(* Shared plumbing for the experiment harness: engine setup, plan-class
   evaluation, and the cost model conventions.

   Scale mapping. The paper scales the original DBLP dataset (×1) by
   replicating articles 10 and 100 times. The generator reproduces the
   Table 3 author-tag counts divided by [reduction] (default 10, to keep the
   default benchmark run laptop-fast), and replicates with the same
   suffix-serial scheme. Thus "x10" below means: base counts = Table 3 / 10,
   articles replicated 10-fold. Shapes (who wins, by what factor) are
   preserved; absolute counts are 1/10th of the paper's at each scale. *)

open Rox_storage
open Rox_xquery
open Rox_joingraph
open Rox_workload
open Rox_classical

let header title =
  let line = String.make 72 '=' in
  Printf.printf "\n%s\n  %s\n%s\n%!" line title line

let subheader title = Printf.printf "\n--- %s ---\n%!" title

(* ---------- DBLP setups ---------- *)

let dblp_params ~scale ~reduction = { Dblp.default_gen with Dblp.scale; reduction }

type dblp_ctx = {
  engine : Engine.t;
  loaded : Dblp.loaded list;
  by_name : (string * Engine.docref) list;
}

let load_dblp ?(reduction = 10) ?(scale = 1) venues =
  let engine = Engine.create () in
  let loaded = Dblp.load ~params:(dblp_params ~scale ~reduction) engine venues in
  let by_name = List.map (fun l -> (l.Dblp.venue.Dblp.name, l.Dblp.docref)) loaded in
  { engine; loaded; by_name }

let compile_combo ctx venues =
  let uris = List.map Dblp.uri_of venues in
  Compile.compile_string ctx.engine (Dblp.query_for uris)

(* ---------- Plan classes of Figures 5-7 ---------- *)

type plan_class_costs = {
  optimal : int;
      (** cheapest canonical plan: every class, ROX's included, is read
          against it, so ROX-pure may read below 1.0x when ROX executes a
          plan outside the canonical space *)
  largest : int;        (** slowest placement of the largest join order *)
  classical : int;      (** best placement of the classical join order *)
  smallest : int;       (** best placement of the smallest-intermediates order *)
  rox_order : int;      (** best placement of ROX's join order *)
  rox_full : int;       (** ROX, sampling included *)
  rox_pure : int;       (** ROX's plan without the sampling work *)
  rox_result_rows : int;
}

(* Reconstruct which canonical join order ROX executed from its edge order. *)
let rox_join_order graph template edge_order =
  let slot_of_vertex v =
    let rec find i =
      if i >= Array.length template.Enumerate.slots then None
      else if template.Enumerate.slots.(i).Enumerate.join_vertex = v then Some i
      else find (i + 1)
    in
    find 0
  in
  let joins =
    List.filter_map
      (fun id ->
        let e = Graph.edge graph id in
        match e.Edge.op with
        | Edge.Equijoin ->
          (match (slot_of_vertex e.Edge.v1, slot_of_vertex e.Edge.v2) with
           | Some a, Some b -> Some (a, b)
           | _ -> None)
        | Edge.Step _ -> None)
      edge_order
  in
  match joins with
  | [ (a, b); (c, d); _ ] when c <> a && c <> b && d <> a && d <> b ->
    Enumerate.Bushy ((a, b), (c, d))
  | (a, b) :: rest ->
    let joined = ref [ a; b ] in
    List.iter
      (fun (x, y) ->
        if not (List.mem x !joined) then joined := !joined @ [ x ];
        if not (List.mem y !joined) then joined := !joined @ [ y ])
      rest;
    Enumerate.Linear !joined
  | [] -> Enumerate.Linear []

let work run = Rox_algebra.Cost.total run.Executor.counter

(* Runaway plans (the "largest" class at scale) are stopped at [plan_max_rows]
   materialized tuples and assessed a penalty larger than any honest plan —
   they would only be worse if allowed to finish. *)
let plan_max_rows = 1_000_000

(* One throwaway session per fixed-plan run: counters must not accumulate
   across plan evaluations. *)
let plan_session ?(max_rows = plan_max_rows) () =
  Rox_core.Session.create
    ~config:
      { (Rox_core.Session.default_config ()) with
        Rox_core.Session.budgets =
          { Rox_core.Session.default_budgets with max_rows } }
    ()
let blowup_penalty = 30_000_000

type plan_eval = { p_work : int; p_join_rows : int; p_blown : bool }

let execute_compiled ctx compiled edges =
  Executor.execute (plan_session ())
    ~outputs:(Tail.outputs compiled.Compile.tail)
    ctx.engine compiled.Compile.graph edges

let eval_plan ctx compiled edges =
  let graph = compiled.Compile.graph in
  match execute_compiled ctx compiled edges with
  | run -> { p_work = work run; p_join_rows = Executor.join_rows graph run; p_blown = false }
  | exception Runtime.Blowup { rows; _ } ->
    { p_work = blowup_penalty; p_join_rows = max rows blowup_penalty; p_blown = true }

let execute_plan ctx compiled edges =
  try Some (execute_compiled ctx compiled edges)
  with Runtime.Blowup _ -> None

(* Evaluate every plan class for one combo. Returns None when the combo is
   degenerate (no template). *)
let plan_classes ?rox_config ctx compiled =
  let rox_config =
    match rox_config with
    | Some c -> c
    | None -> Rox_core.Session.default_config ()
  in
  let graph = compiled.Compile.graph in
  match Enumerate.analyze graph with
  | None -> None
  | Some template ->
    (* Canonical sweep: per order keep (best placement work, worst placement
       work, best-placement cumulative join rows). *)
    let per_order =
      List.map
        (fun order ->
          let runs =
            List.map
              (fun placement ->
                let edges = Enumerate.plan_edges graph template ~order ~placement in
                (placement, eval_plan ctx compiled edges))
              Enumerate.placements
          in
          (order, runs))
        (Enumerate.all_join_orders ~ndocs:(Array.length template.Enumerate.slots))
    in
    let order_best (_, runs) =
      List.fold_left (fun acc (_, e) -> min acc e.p_work) max_int runs
    in
    let order_worst (_, runs) =
      List.fold_left (fun acc (_, e) -> max acc e.p_work) 0 runs
    in
    let order_join_rows (_, runs) =
      match runs with
      | [] -> max_int
      | (_, e) :: _ -> e.p_join_rows
    in
    let usable = List.filter (fun (_, runs) -> runs <> []) per_order in
    if usable = [] then None
    else begin
      let optimal = List.fold_left (fun acc o -> min acc (order_best o)) max_int usable in
      let largest_order =
        List.fold_left
          (fun acc o -> if order_join_rows o > order_join_rows acc then o else acc)
          (List.hd usable) (List.tl usable)
      in
      let smallest_order =
        List.fold_left
          (fun acc o -> if order_join_rows o < order_join_rows acc then o else acc)
          (List.hd usable) (List.tl usable)
      in
      let find_order target =
        List.find_opt (fun (o, _) -> Enumerate.equal_order o target) usable
      in
      let classical_order = Classical_opt.join_order ctx.engine graph template in
      let classical =
        match find_order classical_order with
        | Some o -> order_best o
        | None -> max_int
      in
      (* ROX. *)
      match
        Rox_core.Optimizer.run
          (Rox_core.Session.create ~config:rox_config ())
          compiled
      with
      | exception Runtime.Blowup _ -> None
      | rox ->
      let counter = rox.Rox_core.Optimizer.counter in
      let rox_full = Rox_algebra.Cost.total counter in
      let rox_pure = Rox_algebra.Cost.read counter Rox_algebra.Cost.Execution in
      let rox_order_class = rox_join_order graph template rox.Rox_core.Optimizer.edge_order in
      let rox_order =
        match find_order rox_order_class with
        | Some o -> order_best o
        | None -> rox_pure
      in
      Some
        {
          optimal;
          largest = order_worst largest_order;
          classical;
          smallest = order_best smallest_order;
          rox_order;
          rox_full;
          rox_pure;
          rox_result_rows = Relation.rows rox.Rox_core.Optimizer.relation;
        }
    end

(* ---------- XMark setup ---------- *)

let xmark_engine ?(factor = 1.0) ?(seed = 7) () =
  let engine = Engine.create () in
  let params = Xmark.scaled factor in
  ignore (Xmark.generate ~seed ~params engine ~uri:"xmark.xml" : Engine.docref);
  engine

let q1_query op threshold =
  Printf.sprintf
    {|let $d := doc("xmark.xml")
for $o in $d//open_auction[.//current/text() %s %d],
    $p in $d//person[.//province],
    $i in $d//item[./quantity = 1]
where $o//bidder//personref/@person = $p/@id and
      $o//itemref/@item = $i/@id
return $o|}
    op threshold

let time_it f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

(* ---------- Machine stamp ---------- *)

let cores () = Domain.recommended_domain_count ()

(* The "machine" fragment every BENCH_*.json carries: a scaling (or
   non-scaling) number is unreadable without the core count the run
   actually had — a 1-core container must be recognizable from the
   artifact alone. [domains_used] is the widest fan-out the experiment
   attempted, 1 for single-domain experiments. *)
let machine_json ~domains_used =
  Printf.sprintf "\"machine\": {\"cores\": %d, \"domains_used\": %d}"
    (cores ()) domains_used
