open Rox_util
open Rox_storage
open Rox_algebra
module Sink = Rox_telemetry.Sink
module Tm = Rox_telemetry.Metrics

exception Blowup of { edge : int; rows : int; limit : int }

(* Everything per-query the runtime needs, handed over in one piece by the
   session (or defaulted for direct/test use) instead of the historical
   ad-hoc [?max_rows ?cache ?table_sampler] optionals. *)
type config = {
  max_rows : int;
  (* Per-session sanitize mode: threaded into every operator this runtime
     calls, so concurrent sessions can differ. *)
  sanitize : bool;
  (* Cross-query relation cache: consulted before running the physical
     staircase / value join of an edge, keyed by operation shape and input
     table contents. *)
  cache : Rox_cache.Store.t option;
  (* Applied when a vertex table is first materialized from its index
     domain — the hook behind approximate (sample-driven) execution. *)
  table_sampler : (int -> Column.t -> Column.t) option;
  (* Per-session telemetry sink: spans around edge executions, cache
     hit/miss counters. A disabled (null) sink costs one boolean test. *)
  telemetry : Sink.t;
}

let default_config () =
  { max_rows = 50_000_000;
    sanitize = Sanitize.env_default;
    cache = None;
    table_sampler = None;
    telemetry = Sink.null () }

type t = {
  engine : Engine.t;
  graph : Graph.t;
  max_rows : int;
  sanitize : bool;
  cache : Rox_cache.Store.t option;
  table_sampler : (int -> Column.t -> Column.t) option;
  telemetry : Sink.t;
  tables : Column.t option array;
  executed_edges : bool array;
  implied_edges : bool array;
  (* Component id per vertex (-1 = none); components.(cid) = Some relation. *)
  comp_of : int array;
  mutable components : Relation.t option array;
  mutable ncomponents : int;
  (* Union-find over vertices linked by *executed* equi-joins: an equi-join
     edge whose endpoints are already equi-connected is transitively implied
     (the closure edges of Figure 4 are alternatives, not extra work) and
     completes as a no-op. *)
  equi_uf : int array;
  (* Per vertex: read by the plan tail (a for-bound or returned vertex). *)
  output : bool array;
  (* Per vertex: un-executed incident edges. A vertex is live while it is
     an output or this count is positive. *)
  pending : int array;
  (* Per vertex: dropped from its component once dead, so the final
     relation never re-enters it as its index domain. *)
  retired : bool array;
}

let engine t = t.engine
let graph t = t.graph

let is_trivial_edge graph (e : Edge.t) =
  match e.Edge.op with
  | Edge.Step (Axis.Descendant | Axis.Desc_or_self) ->
    Vertex.is_root (Graph.vertex graph e.Edge.v1)
  | Edge.Step _ | Edge.Equijoin -> false

let mark_executed t (e : Edge.t) =
  if not t.executed_edges.(e.Edge.id) then begin
    t.executed_edges.(e.Edge.id) <- true;
    t.pending.(e.Edge.v1) <- t.pending.(e.Edge.v1) - 1;
    t.pending.(e.Edge.v2) <- t.pending.(e.Edge.v2) - 1
  end

let create ?config ~outputs engine graph =
  let config = match config with Some c -> c | None -> default_config () in
  let nv = Graph.vertex_count graph in
  let output = Array.make nv false in
  Array.iter (fun v -> output.(v) <- true) outputs;
  let pending = Array.make nv 0 in
  Array.iter
    (fun (e : Edge.t) ->
      pending.(e.Edge.v1) <- pending.(e.Edge.v1) + 1;
      pending.(e.Edge.v2) <- pending.(e.Edge.v2) + 1)
    (Graph.edges graph);
  let t =
    {
      engine;
      graph;
      max_rows = config.max_rows;
      sanitize = config.sanitize;
      cache = config.cache;
      table_sampler = config.table_sampler;
      telemetry = config.telemetry;
      tables = Array.make nv None;
      executed_edges = Array.make (Graph.edge_count graph) false;
      implied_edges = Array.make (Graph.edge_count graph) false;
      comp_of = Array.make nv (-1);
      components = Array.make 8 None;
      ncomponents = 0;
      equi_uf = Array.init nv (fun i -> i);
      output;
      pending;
      retired = Array.make nv false;
    }
  in
  Array.iter (fun e -> if is_trivial_edge graph e then mark_executed t e) (Graph.edges graph);
  t

let executed t (e : Edge.t) = t.executed_edges.(e.Edge.id)
let implied t (e : Edge.t) = t.implied_edges.(e.Edge.id)
let live t v = t.output.(v) || t.pending.(v) > 0

let unexecuted_edges t =
  Array.to_list (Graph.edges t.graph) |> List.filter (fun e -> not (executed t e))

let unexecuted_incident t v =
  Graph.incident t.graph v |> List.filter (fun e -> not (executed t e))

let all_executed t = Array.for_all (fun b -> b) t.executed_edges

let table t v = t.tables.(v)

(* A vertex without a table is still its untouched index domain, so the
   domain's descriptor comes along for the step kernels. *)
let table_or_index_domain t v =
  match t.tables.(v) with
  | Some tab -> (tab, None)
  | None -> Exec.index_domain t.engine (Graph.vertex t.graph v)

let table_or_domain t v = fst (table_or_index_domain t v)

let ensure_table t v =
  match t.tables.(v) with
  | Some tab -> tab
  | None ->
    let tab = Exec.vertex_domain t.engine (Graph.vertex t.graph v) in
    let tab = match t.table_sampler with Some f -> f v tab | None -> tab in
    t.tables.(v) <- Some tab;
    tab

let component t v =
  let cid = t.comp_of.(v) in
  if cid < 0 then None else t.components.(cid)

let new_component t rel =
  if t.ncomponents >= Array.length t.components then begin
    let bigger = Array.make (2 * Array.length t.components) None in
    Array.blit t.components 0 bigger 0 t.ncomponents;
    t.components <- bigger
  end;
  let cid = t.ncomponents in
  t.components.(cid) <- Some rel;
  t.ncomponents <- cid + 1;
  cid

let set_component t cid rel =
  t.components.(cid) <- Some rel;
  Array.iter (fun v -> t.comp_of.(v) <- cid) (Relation.vertices rel)

type exec_info = {
  pair_count : int;
  rel_rows : int;
  changed : int list;
}

let rec uf_find t v = if t.equi_uf.(v) = v then v else (t.equi_uf.(v) <- uf_find t t.equi_uf.(v); t.equi_uf.(v))

let equi_connected t a b = uf_find t a = uf_find t b

let equi_union t a b =
  let ra = uf_find t a and rb = uf_find t b in
  if ra <> rb then t.equi_uf.(ra) <- rb

(* Mark every equi-join edge whose endpoints became equi-connected as
   executed — it is transitively implied. *)
let sweep_implied t =
  Array.iter
    (fun (e : Edge.t) ->
      if (not t.executed_edges.(e.Edge.id))
         && (match e.Edge.op with Edge.Equijoin -> true | Edge.Step _ -> false)
         && equi_connected t e.Edge.v1 e.Edge.v2
      then begin
        mark_executed t e;
        t.implied_edges.(e.Edge.id) <- true
      end)
    (Graph.edges t.graph)

(* One all-zero scratch buffer per domain for [Column.semijoin], indexed
   by pre and grown to the largest document seen, so no query allocates
   its own and no two domains share one. *)
let marks_key = Domain.DLS.new_key (fun () -> Bytes.empty)

(* [table] ⋉ [col] with the domain's mark buffer, grown first to cover
   every entry of [table], a node set of vertex [v]. The buffer leaves
   the domain's slot while the semijoin runs: another thread of the same
   domain semijoining meanwhile finds the slot empty and allocates its
   own. *)
let semijoin t v table col =
  let marks = Domain.DLS.get marks_key in
  let n = Column.length table in
  let marks =
    if n > 0 && Bytes.length marks <= Column.get table (n - 1) then
      let doc = (Engine.get t.engine (Graph.vertex t.graph v).Vertex.doc_id).Engine.doc in
      Bytes.make (Rox_shred.Doc.node_count doc) '\000'
    else marks
  in
  Domain.DLS.set marks_key Bytes.empty;
  let fresh = Column.semijoin ~marks table col in
  Domain.DLS.set marks_key marks;
  fresh

(* After the affected component changed, refresh T(v) for its live
   vertices — a dead vertex's table is read by no estimate, chain or edge
   again — and report which ones actually shrank. Each column holds only
   nodes of the table the edge read for its vertex ([read v]: the
   endpoint input, else the current T(v)), and T(v) only ever shrinks —
   so the new T(v) is that sorted table semijoined with the column, never
   a sort — or the column itself when it is strictly increasing. A column the kernel carried by
   pointer ([old.(i)] == the new column) holds the same values as before
   the edge, so its T(v) stands and is skipped. *)
let refresh_tables t rel ~old ~read =
  let changed = ref [] in
  Array.iteri
    (fun i v ->
      let col = Relation.column rel v in
      if live t v && not (match old.(i) with Some c -> c == col | None -> false) then begin
        let fresh = if Column.sorted col then col else semijoin t v (read v) col in
        let dirty =
          match t.tables.(v) with
          | Some old -> Column.length old <> Column.length fresh
          | None -> true
        in
        t.tables.(v) <- Some fresh;
        if dirty then changed := v :: !changed
      end)
    (Relation.vertices rel);
  List.rev !changed

let is_value_vertex t v =
  match (Graph.vertex t.graph v).Vertex.annot with
  | Vertex.Text _ | Vertex.Attr _ -> true
  | Vertex.Root | Vertex.Element _ -> false

(* Size of the vertex's node set without materializing anything: index
   lookups expose counts for free (Section 2.2). *)
let known_size t v =
  match t.tables.(v) with
  | Some tab -> Column.length tab
  | None -> Exec.vertex_domain_count t.engine (Graph.vertex t.graph v)

(* Materializing a table from its index costs |R| (Table 1's Delt / value
   lookups); a table that already exists was paid for when it was built. *)
let charged_table ?meter t v =
  match t.tables.(v) with
  | Some tab -> tab
  | None ->
    let tab = ensure_table t v in
    Rox_algebra.Cost.charge meter (Column.length tab);
    tab

(* The cacheable unit of edge execution: the physical variant's label
   (results are bit-identical only per variant — pair order differs between
   a hash join and an index nested-loop), the concrete input tables, and a
   thunk running the physical operator. *)
type exec_plan = {
  label : string;
  in1 : Column.t;
  in2 : Column.t;
  run : Rox_algebra.Cost.meter option -> Exec.pairs;
}

let edge_fingerprint t (e : Edge.t) plan () =
  let vdesc v = Vertex.fingerprint_label (Graph.vertex t.graph v) in
  Rox_cache.Fingerprint.make
    [
      "edge"; plan.label; vdesc e.Edge.v1; vdesc e.Edge.v2;
      Rox_cache.Fingerprint.column plan.in1; Rox_cache.Fingerprint.column plan.in2;
    ]

(* The physical join behind the relation cache: a hit replays the stored
   pair columns (cross-checked against an uncharged fresh run under the
   sanitizer). *)
let cached_pairs ?meter t (e : Edge.t) plan =
  let v =
    Rox_cache.Store.memo t.cache Rox_cache.Store.Relation ~sanitize:t.sanitize
      ~telemetry:t.telemetry ~edge:e.Edge.id ~key:(edge_fingerprint t e plan)
      ~run:(fun ~charged ->
        let p = plan.run (if charged then meter else None) in
        { Rox_cache.Store.left = p.Exec.left; right = p.Exec.right })
  in
  { Exec.left = v.Rox_cache.Store.left; right = v.Rox_cache.Store.right }

let execute_edge_body ?meter t (e : Edge.t) =
  let v1 = e.Edge.v1 and v2 = e.Edge.v2 in
  (* Marked first, so liveness below counts the edges left after it and
     the sweep never takes the edge itself for an implied one. *)
  mark_executed t e;
  (match e.Edge.op with
   | Edge.Equijoin ->
     equi_union t v1 v2;
     sweep_implied t
   | Edge.Step _ -> ());
  (* Only the outer (context / probing) side is materialized and paid for;
     the inner side is served by the indices — the zero-investment
     discipline the paper's Join Graph execution lives by. Steps take the
     smaller side as context; equi-joins run an index nested-loop from the
     smaller side when the inner endpoint has a value-index access path,
     a hash join otherwise. The label names the variant in cache keys. *)
  let outer_first = known_size t v1 <= known_size t v2 in
  let variant, label =
    match e.Edge.op with
    | Edge.Step axis ->
      let dir, side = if outer_first then (Exec.From_v1, "1") else (Exec.From_v2, "2") in
      ( Exec.Step_from dir,
        Printf.sprintf "step:%s:%s" (Rox_algebra.Axis.short_label axis) side )
    | Edge.Equijoin ->
      if outer_first && is_value_vertex t v2 then
        (Exec.Index_nl_from Exec.From_v1, "eq:nl1")
      else if is_value_vertex t v1 then (Exec.Index_nl_from Exec.From_v2, "eq:nl2")
      else (Exec.Hash_join, "eq:hash")
  in
  let t1, t2, t1_domain, t2_domain =
    match variant with
    | Exec.Step_from Exec.From_v1 ->
      let t2, t2_domain = table_or_index_domain t v2 in
      (charged_table ?meter t v1, t2, None, t2_domain)
    | Exec.Step_from Exec.From_v2 ->
      let t1, t1_domain = table_or_index_domain t v1 in
      (t1, charged_table ?meter t v2, t1_domain, None)
    | Exec.Index_nl_from Exec.From_v1 ->
      (charged_table ?meter t v1, table_or_domain t v2, None, None)
    | Exec.Index_nl_from Exec.From_v2 ->
      (table_or_domain t v1, charged_table ?meter t v2, None, None)
    | Exec.Hash_join -> (charged_table ?meter t v1, charged_table ?meter t v2, None, None)
  in
  let plan =
    {
      label;
      in1 = t1;
      in2 = t2;
      run =
        (fun m ->
          Exec.full_pairs ~sanitize:t.sanitize ?meter:m ~variant ?t1_domain ?t2_domain
            t.engine t.graph e ~t1 ~t2);
    }
  in
  let pairs = cached_pairs ?meter t e plan in
  let c1 = t.comp_of.(v1) and c2 = t.comp_of.(v2) in
  let get cid = match t.components.(cid) with Some r -> r | None -> assert false in
  (* Carry only live columns: the new component leaves out every vertex
     that no output and no other un-executed edge reads (the kernels never
     gather its column). A component with no live vertex keeps one column,
     so its row count, zero included, still reaches the final cross
     product. *)
  let keep = live t in
  let sanitize = t.sanitize and max_rows = t.max_rows in
  let rel =
    match
      if c1 < 0 && c2 < 0 then Relation.of_pairs ~keep ~v1 ~v2 pairs
      else if c1 >= 0 && c2 < 0 then
        Relation.extend ~sanitize ?meter ~max_rows ~keep (get c1) ~on:v1 ~new_vertex:v2 pairs
      else if c1 < 0 && c2 >= 0 then
        Relation.extend ~sanitize ?meter ~max_rows ~keep (get c2) ~on:v2 ~new_vertex:v1
          { Exec.left = pairs.Exec.right; right = pairs.Exec.left }
      else if c1 = c2 then
        Relation.filter_pairs ~sanitize ?meter ~keep (get c1) ~c1:v1 ~c2:v2 pairs
      else
        Relation.fuse ~sanitize ?meter ~max_rows ~keep (get c1) (get c2) ~on_left:v1
          ~on_right:v2 pairs
    with
    | rel -> rel
    | exception Relation.Too_large rows ->
      raise (Blowup { edge = e.Edge.id; rows; limit = t.max_rows })
  in
  if Relation.rows rel > t.max_rows then
    raise (Blowup { edge = e.Edge.id; rows = Relation.rows rel; limit = t.max_rows });
  (* Every vertex the edge joined: its endpoints and their components. *)
  let joined =
    Array.concat
      [ [| v1; v2 |];
        (if c1 >= 0 then Relation.vertices (get c1) else [||]);
        (if c2 >= 0 then Relation.vertices (get c2) else [||]) ]
  in
  (* Each vertex's column before the edge, read before the new component
     replaces the ones it came from. *)
  let old =
    Array.map
      (fun v -> Option.map (fun r -> Relation.column r v) (component t v))
      (Relation.vertices rel)
  in
  (* Install the new component, retiring any merged ones and the vertices
     it left out. *)
  let cid =
    if c1 >= 0 then c1
    else if c2 >= 0 then c2
    else new_component t rel
  in
  if c1 >= 0 && c2 >= 0 && c1 <> c2 then t.components.(c2) <- None;
  set_component t cid rel;
  Array.iter
    (fun v ->
      if not (Relation.has_vertex rel v) then begin
        t.comp_of.(v) <- -1;
        t.retired.(v) <- true
      end)
    joined;
  let read v =
    if v = v1 then plan.in1 else if v = v2 then plan.in2 else table_or_domain t v
  in
  let changed = refresh_tables t rel ~old ~read in
  if t.sanitize then begin
    let op = Printf.sprintf "Runtime.execute_edge(e%d)" e.Edge.id in
    Array.iter
      (fun v ->
        match t.tables.(v) with
        | Some tab when live t v ->
          let what = Printf.sprintf "T(v%d)" v in
          (* The sort-free refresh must equal sorting its column (RX306). *)
          Sanitize.check_kernel_equiv ~op ~what
            (Column.equal tab (Column.sorted_dedup (Relation.column rel v)));
          Sanitize.check_column_flag ~op ~what tab;
          Sanitize.check_sorted_dedup ~op ~what (Column.read tab);
          Sanitize.check_subset ~op ~what
            ~domain:(Column.read (Exec.vertex_domain t.engine (Graph.vertex t.graph v)))
            (Column.read tab)
        | _ -> ())
      (Relation.vertices rel)
  end;
  { pair_count = Exec.pair_count pairs; rel_rows = Relation.rows rel; changed }

let execute_edge ?meter t (e : Edge.t) =
  if executed t e then invalid_arg "Runtime.execute_edge: edge already executed";
  Sink.with_span t.telemetry "execute_edge"
    ~attrs:(fun () -> [ ("edge", string_of_int e.Edge.id) ])
    ~record:(fun m dur ->
      Tm.observe m.Tm.edge_execution_ns dur;
      Tm.incr ~by:dur m.Tm.execution_time_ns)
    (fun () ->
      let info = execute_edge_body ?meter t e in
      if Sink.enabled t.telemetry then begin
        let m = Sink.metrics t.telemetry in
        Tm.incr m.Tm.edges_executed;
        Tm.incr ~by:info.pair_count m.Tm.pairs_emitted;
        Tm.incr ~by:info.rel_rows m.Tm.rows_materialized
      end;
      info)

let final_relation ?meter t =
  if not (all_executed t) then
    invalid_arg "Runtime.final_relation: unexecuted edges remain";
  let parts = ref [] in
  for i = t.ncomponents - 1 downto 0 do
    match t.components.(i) with
    | Some rel -> parts := rel :: !parts
    | None -> ()
  done;
  (* Non-root vertices no executed edge touched (graphs whose only edges
     were trivial) enter as their domains; retired vertices left their
     components on purpose. *)
  Array.iter
    (fun (v : Vertex.t) ->
      if (not (Vertex.is_root v)) && t.comp_of.(v.Vertex.id) < 0
         && not t.retired.(v.Vertex.id)
      then
        parts :=
          Relation.singleton ~vertex:v.Vertex.id (table_or_domain t v.Vertex.id) :: !parts)
    (Graph.vertices t.graph);
  match !parts with
  | [] -> invalid_arg "Runtime.final_relation: empty graph"
  | first :: rest ->
    List.fold_left
      (fun acc r -> Relation.cross ~sanitize:t.sanitize ?meter acc r)
      first rest
