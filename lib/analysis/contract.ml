module Sanitize = Rox_algebra.Sanitize
module D = Diagnostic

let enabled () = Sanitize.default_mode ()
let set_enabled b = Sanitize.set_default_mode b

let code_of_contract = function
  | Sanitize.Sorted_dedup -> "RX301"
  | Sanitize.Domain_subset -> "RX302"
  | Sanitize.Cost_bound -> "RX303"
  | Sanitize.Cache_consistent -> "RX304"
  | Sanitize.Sorted_flag -> "RX305"
  | Sanitize.Kernel_equiv -> "RX306"
  | Sanitize.Session_confined -> "RX307"

let diagnostic_of_violation ?label (v : Sanitize.violation) =
  let message =
    match label with
    | None -> Sanitize.message v
    | Some l -> Printf.sprintf "%s: %s" l (Sanitize.message v)
  in
  D.error (code_of_contract v.Sanitize.contract) D.Graph_loc
    ~hint:"re-run with ROX_SANITIZE=1 under a debugger to catch the first breach"
    message

let wrap ?label f =
  (* Sanitizing runs build their own sanitize-on sessions; wrap only
     converts the first violation into a diagnostic — it no longer flips
     any process-global flag (RX307 would flag exactly that). *)
  match f () with
  | result -> Ok result
  | exception Sanitize.Violation v -> Error (diagnostic_of_violation ?label v)
