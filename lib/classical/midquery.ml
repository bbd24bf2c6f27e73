open Rox_storage
open Rox_joingraph
open Rox_core

(* Per-document synopses, rebuilt on every call: nothing caches them. *)
let synopses engine =
  Array.init (Engine.doc_count engine) (fun i -> Synopsis.build (Engine.get engine i))

(* Estimated cardinality of an edge's result given current per-vertex
   estimates, under independence. Cross-document equi-joins are not
   estimable from per-document synopses: rank them smallest-input-first
   behind every estimable operator. *)
let edge_estimate synopses graph est (e : Edge.t) =
  let v1 = Graph.vertex graph e.Edge.v1 in
  let v2 = Graph.vertex graph e.Edge.v2 in
  match e.Edge.op with
  | Edge.Step axis when v1.Vertex.doc_id = v2.Vertex.doc_id ->
    let syn = synopses.(v1.Vertex.doc_id) in
    `Estimated
      (Synopsis.estimate_step syn ~context_card:est.(e.Edge.v1) ~context:v1.Vertex.annot
         ~axis ~target:v2.Vertex.annot)
  | Edge.Step _ -> `Estimated (est.(e.Edge.v1) *. est.(e.Edge.v2))
  | Edge.Equijoin ->
    if v1.Vertex.doc_id = v2.Vertex.doc_id then
      (* Same-document value join: assume a modest hit ratio. *)
      `Estimated (min est.(e.Edge.v1) est.(e.Edge.v2))
    else `Unknown (est.(e.Edge.v1) +. est.(e.Edge.v2))

(* Greedy connected plan over [edges], starting from the given per-vertex
   estimates; returns the order and the per-edge predictions. *)
let greedy_plan synopses graph est edges =
  let est = Array.copy est in
  let covered = Hashtbl.create 16 in
  let order = ref [] in
  let remaining = ref edges in
  while !remaining <> [] do
    let touches (e : Edge.t) =
      Hashtbl.length covered = 0 || Hashtbl.mem covered e.Edge.v1 || Hashtbl.mem covered e.Edge.v2
    in
    let eligible =
      match List.filter touches !remaining with [] -> !remaining | l -> l
    in
    let score e =
      match edge_estimate synopses graph est e with
      | `Estimated c -> c
      | `Unknown rank -> 1e12 +. rank
    in
    let best =
      List.fold_left
        (fun acc e ->
          match acc with
          | Some (_, bs) when bs <= score e -> acc
          | _ -> Some (e, score e))
        None eligible
    in
    match best with
    | None -> remaining := []
    | Some (e, s) ->
      let predicted = if s >= 1e12 then s -. 1e12 else s in
      order := (e, predicted) :: !order;
      Hashtbl.replace covered e.Edge.v1 ();
      Hashtbl.replace covered e.Edge.v2 ();
      (* Independence update: the result bounds both endpoint estimates. *)
      est.(e.Edge.v1) <- max 1.0 (min est.(e.Edge.v1) predicted);
      est.(e.Edge.v2) <- max 1.0 (min est.(e.Edge.v2) predicted);
      remaining := List.filter (fun e' -> e'.Edge.id <> e.Edge.id) !remaining
  done;
  List.rev !order

let base_estimates engine graph =
  Array.map
    (fun (v : Vertex.t) -> float_of_int (Exec.vertex_domain_count engine v))
    (Graph.vertices graph)

let synopsis_order engine graph =
  let edges =
    Runtime.unexecuted_edges (Runtime.create ~outputs:(Graph.vertex_ids graph) engine graph)
  in
  List.map fst (greedy_plan (synopses engine) graph (base_estimates engine graph) edges)

(* Plan from the current statistics — base counts, overridden by observed
   table sizes as execution proceeds — and replan whenever a result falls
   outside the validity range of its prediction. *)
let policy ~validity_factor ~replans engine runtime =
  let graph = Runtime.graph runtime in
  let syn = synopses engine in
  let base = base_estimates engine graph in
  let current_estimates () =
    Array.mapi
      (fun i base ->
        match Runtime.table runtime i with
        | Some t -> float_of_int (Rox_util.Column.length t)
        | None -> base)
      base
  in
  let plan = ref [] in
  let predicted = ref 0.0 in
  let rec next () =
    match !plan with
    | [] -> (
      match Runtime.unexecuted_edges runtime with
      | [] -> None
      | rest ->
        plan := greedy_plan syn graph (current_estimates ()) rest;
        next ())
    | (e, p) :: rest ->
      plan := rest;
      if Runtime.executed runtime e then next ()
      else begin
        predicted := p;
        Some e
      end
  in
  let executed _ (info : Runtime.exec_info) =
    let observed = float_of_int info.Runtime.rel_rows in
    let p = !predicted in
    if p > 0.0
       && (observed > p *. validity_factor || observed < p /. validity_factor)
       && Runtime.unexecuted_edges runtime <> []
    then begin
      incr replans;
      plan := []
    end
  in
  { Driver.next; executed }

let execute ?(validity_factor = 5.0) session ~outputs engine graph =
  let replans = ref 0 in
  let result =
    Driver.run session (fun () ->
        let runtime =
          Runtime.create ~config:(Session.runtime_config session) ~outputs engine graph
        in
        (runtime, policy ~validity_factor ~replans engine runtime))
  in
  (result, !replans)

let answer ?validity_factor session (compiled : Rox_xquery.Compile.compiled) =
  let result, replans =
    execute ?validity_factor session
      ~outputs:(Rox_xquery.Tail.outputs compiled.Rox_xquery.Compile.tail)
      compiled.Rox_xquery.Compile.engine compiled.Rox_xquery.Compile.graph
  in
  (Driver.answer session compiled result, result, replans)

let answer_default compiled = answer (Session.create ()) compiled
