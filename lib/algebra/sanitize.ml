type contract =
  | Sorted_dedup
  | Domain_subset
  | Cost_bound
  | Cache_consistent
  | Sorted_flag
  | Kernel_equiv
  | Session_confined

type violation = {
  op : string;
  contract : contract;
  detail : string;
}

exception Violation of violation

let contract_label = function
  | Sorted_dedup -> "sorted duplicate-free node sequence"
  | Domain_subset -> "output contained in input domain"
  | Cost_bound -> "Table 1 cost bound"
  | Cache_consistent -> "cache hit bit-identical to fresh execution"
  | Sorted_flag -> "column sorted flag honest (strictly increasing)"
  | Kernel_equiv -> "columnar kernel bit-identical to naive reference"
  | Session_confined -> "per-query state reached only through the session"

let fail ~op ~contract detail = raise (Violation { op; contract; detail })

let message v =
  Printf.sprintf "%s: %s violated (%s)" v.op (contract_label v.contract) v.detail

(* --- session confinement ------------------------------------------------ *)

(* The process-wide *default* sanitize mode, read from ROX_SANITIZE once at
   startup. This is configuration, not per-query state: sessions snapshot it
   at construction time and operators receive the mode as an explicit
   parameter from their session. *)
let default =
  ref
    (match Sys.getenv_opt "ROX_SANITIZE" with
     | None | Some "" | Some "0" -> false
     | Some _ -> true)

(* Per-domain marker for "a session run is in flight". While an *armed*
   (sanitize-on) region is active, any read of process-global mutable state
   through the accessors below is an RX307 Session_confined violation: every
   operator must draw its mode, counter and RNG from the session it was
   handed, never from process globals — that confinement is what makes
   concurrent sessions on separate domains sound. *)
type region = { armed : bool }

let region_key : region option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let confine ~sanitize f =
  let prev = Domain.DLS.get region_key in
  Domain.DLS.set region_key (Some { armed = sanitize });
  Fun.protect ~finally:(fun () -> Domain.DLS.set region_key prev) f

let confined () =
  match Domain.DLS.get region_key with Some _ -> true | None -> false

let global_read what =
  match Domain.DLS.get region_key with
  | Some { armed = true } ->
    fail ~op:what ~contract:Session_confined
      "process-global mutable state read inside a session-confined region"
  | Some { armed = false } | None -> ()

let default_mode () =
  global_read "Sanitize.default_mode";
  !default

let set_default_mode b =
  global_read "Sanitize.set_default_mode";
  default := b

(* --- checks ------------------------------------------------------------- *)

let check_sorted_dedup ~op ~what a =
  let n = Array.length a in
  for i = 1 to n - 1 do
    if a.(i - 1) >= a.(i) then
      fail ~op ~contract:Sorted_dedup
        (Printf.sprintf "%s[%d..%d] = %d, %d" what (i - 1) i a.(i - 1) a.(i))
  done

let check_subset ~op ~what ~domain a =
  Array.iter
    (fun x ->
      if not (Rox_util.Bin_search.mem domain x) then
        fail ~op ~contract:Domain_subset
          (Printf.sprintf "%s contains node %d outside its domain" what x))
    a

let check_column_flag ~op ~what (c : Rox_util.Column.t) =
  if not (Rox_util.Column.flag_honest c) then
    fail ~op ~contract:Sorted_flag
      (Printf.sprintf "%s carries sorted=true but is not strictly increasing" what)

let check_kernel_equiv ~op ~what ok =
  if not ok then
    fail ~op ~contract:Kernel_equiv
      (Printf.sprintf "%s differs from its reference computation" what)

let check_cost ~op ~charged ~bound =
  if charged > bound then
    fail ~op ~contract:Cost_bound
      (Printf.sprintf "charged %d work units, formula bound is %d" charged bound)

(* Observe the work an operator charges without disturbing the caller's
   accounting: run with a private counter, then forward the total. *)
let observed meter f =
  let local = Cost.new_counter () in
  let result = f (Cost.execution_meter local) in
  let total = Cost.total local in
  Cost.charge meter total;
  (result, total)
