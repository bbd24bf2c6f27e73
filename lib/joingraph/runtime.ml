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
     calls, so concurrent sessions can differ and no operator consults the
     process-global default mid-run. *)
  sanitize : bool;
  (* Cross-query relation cache: consulted before running the physical
     staircase / value join of an edge, keyed by operation shape and input
     table contents (epoch-scoped). *)
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
    sanitize = Sanitize.default_mode ();
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
  (* All-zero scratch indexed by pre for [Column.semijoin]; grown on
     demand. *)
  mutable marks : Bytes.t;
}

let engine t = t.engine
let graph t = t.graph

let is_trivial_edge graph (e : Edge.t) =
  match e.Edge.op with
  | Edge.Step (Axis.Descendant | Axis.Desc_or_self) ->
    Vertex.is_root (Graph.vertex graph e.Edge.v1)
  | Edge.Step _ | Edge.Equijoin -> false

let create ?config engine graph =
  let config = match config with Some c -> c | None -> default_config () in
  let t =
    {
      engine;
      graph;
      max_rows = config.max_rows;
      sanitize = config.sanitize;
      cache = config.cache;
      table_sampler = config.table_sampler;
      telemetry = config.telemetry;
      tables = Array.make (Graph.vertex_count graph) None;
      executed_edges = Array.make (Graph.edge_count graph) false;
      implied_edges = Array.make (Graph.edge_count graph) false;
      comp_of = Array.make (Graph.vertex_count graph) (-1);
      components = Array.make 8 None;
      ncomponents = 0;
      equi_uf = Array.init (Graph.vertex_count graph) (fun i -> i);
      marks = Bytes.empty;
    }
  in
  Array.iter
    (fun e -> if is_trivial_edge graph e then t.executed_edges.(e.Edge.id) <- true)
    (Graph.edges graph);
  t

let executed t (e : Edge.t) = t.executed_edges.(e.Edge.id)
let implied t (e : Edge.t) = t.implied_edges.(e.Edge.id)
let mark_executed t (e : Edge.t) = t.executed_edges.(e.Edge.id) <- true

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
  cache_hit : bool;
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
        t.executed_edges.(e.Edge.id) <- true;
        t.implied_edges.(e.Edge.id) <- true
      end)
    (Graph.edges t.graph)

(* A scratch mark buffer covering every entry of [table], a node set of
   vertex [v]: grown at most once per document size, to cover the whole
   document. *)
let marks_for t v table =
  let n = Column.length table in
  if n > 0 && Bytes.length t.marks <= Column.get table (n - 1) then begin
    let doc = (Engine.get t.engine (Graph.vertex t.graph v).Vertex.doc_id).Engine.doc in
    t.marks <- Bytes.make (Rox_shred.Doc.node_count doc) '\000'
  end;
  t.marks

(* After the affected component changed, refresh T(v) for all its vertices;
   report which ones actually shrank. Each column holds only nodes of the
   table the edge read for its vertex ([read v]: the endpoint input, else
   the current T(v)), and T(v) only ever shrinks — so the new T(v) is that
   sorted table semijoined with the column, never a sort. *)
let refresh_tables t rel ~read =
  let changed = ref [] in
  Array.iter
    (fun v ->
      let base = read v in
      let fresh = Column.semijoin ~marks:(marks_for t v base) base (Relation.column rel v) in
      let dirty =
        match t.tables.(v) with
        | Some old -> Column.length old <> Column.length fresh
        | None -> true
      in
      t.tables.(v) <- Some fresh;
      if dirty then changed := v :: !changed)
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

(* The cacheable unit of edge execution: the physical-variant descriptor
   (results are bit-identical only per variant — pair order differs between
   a hash join and an index nested-loop), the concrete input tables, and a
   thunk running the physical operator. *)
type exec_plan = {
  variant : string;
  in1 : Column.t;
  in2 : Column.t;
  run : Rox_algebra.Cost.meter option -> Exec.pairs;
}

let edge_fingerprint t (e : Edge.t) store plan =
  let vdesc v = Vertex.fingerprint_label (Graph.vertex t.graph v) in
  Rox_cache.Fingerprint.make
    ~epoch:(Rox_cache.Store.epoch store)
    [
      "edge"; plan.variant; vdesc e.Edge.v1; vdesc e.Edge.v2;
      Rox_cache.Fingerprint.column plan.in1; Rox_cache.Fingerprint.column plan.in2;
    ]

(* Consult the relation cache around the physical join. A hit replays the
   stored pair columns; under the sanitizer every hit is cross-checked
   bit-identical against a fresh (uncharged) execution of the same
   physical variant. *)
let cached_pairs ?meter t (e : Edge.t) plan =
  let note_lookup hit =
    if Sink.enabled t.telemetry then begin
      let m = Sink.metrics t.telemetry in
      Tm.incr (if hit then m.Tm.relation_cache_hits else m.Tm.relation_cache_misses)
    end
  in
  match t.cache with
  | None -> (plan.run meter, false)
  | Some store ->
    let key = edge_fingerprint t e store plan in
    let relations = Rox_cache.Store.relations store in
    (match Rox_cache.Relation_cache.find relations key with
     | Some v ->
       note_lookup true;
       let pairs =
         { Exec.left = v.Rox_cache.Relation_cache.left;
           right = v.Rox_cache.Relation_cache.right }
       in
       if t.sanitize then begin
         let op = Printf.sprintf "Runtime.cached_pairs(e%d %s)" e.Edge.id plan.variant in
         let fresh = plan.run None in
         Sanitize.check_identical ~op ~what:"left column"
           (Column.read pairs.Exec.left) (Column.read fresh.Exec.left);
         Sanitize.check_identical ~op ~what:"right column"
           (Column.read pairs.Exec.right) (Column.read fresh.Exec.right)
       end;
       (pairs, true)
     | None ->
       note_lookup false;
       let pairs = plan.run meter in
       Rox_cache.Relation_cache.add relations key
         { Rox_cache.Relation_cache.left = pairs.Exec.left; right = pairs.Exec.right };
       (pairs, false))

let execute_edge_body ?meter t (e : Edge.t) =
  let v1 = e.Edge.v1 and v2 = e.Edge.v2 in
  (match e.Edge.op with
   | Edge.Equijoin ->
     equi_union t v1 v2;
     sweep_implied t
   | Edge.Step _ -> ());
  (* Only the outer (context / probing) side is materialized and paid for;
     the inner side is served by the indices — the zero-investment
     discipline the paper's Join Graph execution lives by. *)
  let outer_first = known_size t v1 <= known_size t v2 in
  let plan =
    match e.Edge.op with
    | Edge.Step axis ->
      let dir = if outer_first then Exec.From_v1 else Exec.From_v2 in
      let t1, t2, t1_domain, t2_domain =
        match dir with
        | Exec.From_v1 ->
          let t2, t2_domain = table_or_index_domain t v2 in
          (charged_table ?meter t v1, t2, None, t2_domain)
        | Exec.From_v2 ->
          let t1, t1_domain = table_or_index_domain t v1 in
          (t1, charged_table ?meter t v2, t1_domain, None)
      in
      {
        variant =
          Printf.sprintf "step:%s:%s" (Rox_algebra.Axis.short_label axis)
            (match dir with Exec.From_v1 -> "1" | Exec.From_v2 -> "2");
        in1 = t1;
        in2 = t2;
        run =
          (fun m ->
            Exec.full_pairs ~sanitize:t.sanitize ?meter:m ~step_direction:dir ?t1_domain
              ?t2_domain t.engine t.graph e ~t1 ~t2);
      }
    | Edge.Equijoin ->
      (* Index nested-loop from the smaller side when the inner endpoint
         has a value-index access path; hash join otherwise. *)
      let algo =
        if outer_first && is_value_vertex t v2 then Exec.Algo_index_nl Exec.From_v1
        else if is_value_vertex t v1 then Exec.Algo_index_nl Exec.From_v2
        else Exec.Algo_hash
      in
      let t1, t2 =
        match algo with
        | Exec.Algo_index_nl Exec.From_v1 ->
          (charged_table ?meter t v1, table_or_domain t v2)
        | Exec.Algo_index_nl Exec.From_v2 ->
          (table_or_domain t v1, charged_table ?meter t v2)
        | Exec.Algo_hash ->
          (charged_table ?meter t v1, charged_table ?meter t v2)
      in
      {
        variant =
          (match algo with
           | Exec.Algo_hash -> "eq:hash"
           | Exec.Algo_index_nl Exec.From_v1 -> "eq:nl1"
           | Exec.Algo_index_nl Exec.From_v2 -> "eq:nl2");
        in1 = t1;
        in2 = t2;
        run =
          (fun m ->
            Exec.full_pairs ~sanitize:t.sanitize ?meter:m ~equi_algo:algo
              t.engine t.graph e ~t1 ~t2);
      }
  in
  let pairs, cache_hit = cached_pairs ?meter t e plan in
  let c1 = t.comp_of.(v1) and c2 = t.comp_of.(v2) in
  let get cid = match t.components.(cid) with Some r -> r | None -> assert false in
  let rel =
    match
      if c1 < 0 && c2 < 0 then Relation.of_pairs ~v1 ~v2 pairs
      else if c1 >= 0 && c2 < 0 then
        Relation.extend ~sanitize:t.sanitize ?meter ~max_rows:t.max_rows (get c1)
          ~on:v1 ~new_vertex:v2 pairs
      else if c1 < 0 && c2 >= 0 then
        Relation.extend ~sanitize:t.sanitize ?meter ~max_rows:t.max_rows (get c2)
          ~on:v2 ~new_vertex:v1
          { Exec.left = pairs.Exec.right; right = pairs.Exec.left }
      else if c1 = c2 then
        Relation.filter_pairs ~sanitize:t.sanitize ?meter (get c1) ~c1:v1 ~c2:v2 pairs
      else
        Relation.fuse ~sanitize:t.sanitize ?meter ~max_rows:t.max_rows (get c1)
          (get c2) ~on_left:v1 ~on_right:v2 pairs
    with
    | rel -> rel
    | exception Relation.Too_large rows ->
      raise (Blowup { edge = e.Edge.id; rows; limit = t.max_rows })
  in
  if Relation.rows rel > t.max_rows then
    raise (Blowup { edge = e.Edge.id; rows = Relation.rows rel; limit = t.max_rows });
  (* Install the new component, retiring any merged ones. *)
  let cid =
    if c1 >= 0 then c1
    else if c2 >= 0 then c2
    else new_component t rel
  in
  if c1 >= 0 && c2 >= 0 && c1 <> c2 then t.components.(c2) <- None;
  set_component t cid rel;
  mark_executed t e;
  let read v =
    if v = v1 then plan.in1 else if v = v2 then plan.in2 else table_or_domain t v
  in
  let changed = refresh_tables t rel ~read in
  if t.sanitize then begin
    let op = Printf.sprintf "Runtime.execute_edge(e%d)" e.Edge.id in
    Array.iter
      (fun v ->
        match t.tables.(v) with
        | None -> ()
        | Some tab ->
          let what = Printf.sprintf "T(v%d)" v in
          (* The sort-free refresh must equal sorting its column (RX306). *)
          Sanitize.check_kernel_equiv ~op ~what
            (Column.equal tab (Column.sorted_dedup (Relation.column rel v)));
          Sanitize.check_column_flag ~op ~what tab;
          Sanitize.check_sorted_dedup ~op ~what (Column.read tab);
          Sanitize.check_subset ~op ~what
            ~domain:(Column.read (Exec.vertex_domain t.engine (Graph.vertex t.graph v)))
            (Column.read tab))
      (Relation.vertices rel)
  end;
  { pair_count = Exec.pair_count pairs; rel_rows = Relation.rows rel; changed; cache_hit }

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
  let live = ref [] in
  for i = t.ncomponents - 1 downto 0 do
    match t.components.(i) with
    | Some rel -> live := rel :: !live
    | None -> ()
  done;
  (* Non-root vertices with no component (graphs whose only edges were
     trivial) enter as their domains. *)
  Array.iter
    (fun (v : Vertex.t) ->
      if (not (Vertex.is_root v)) && t.comp_of.(v.Vertex.id) < 0 then
        live :=
          Relation.singleton ~vertex:v.Vertex.id (table_or_domain t v.Vertex.id) :: !live)
    (Graph.vertices t.graph);
  match !live with
  | [] -> invalid_arg "Runtime.final_relation: empty graph"
  | first :: rest ->
    List.fold_left
      (fun acc r -> Relation.cross ~sanitize:t.sanitize ?meter acc r)
      first rest
