type contract =
  | Sorted_dedup
  | Domain_subset
  | Cost_bound
  | Cache_consistent
  | Sorted_flag
  | Kernel_equiv
  | Owner_domain

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
  | Owner_domain -> "session entered only from the domain that claimed it"

let fail ~op ~contract detail = raise (Violation { op; contract; detail })

let message v =
  Printf.sprintf "%s: %s violated (%s)" v.op (contract_label v.contract) v.detail

let env_default =
  match Sys.getenv_opt "ROX_SANITIZE" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

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
