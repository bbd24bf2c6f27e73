open Rox_joingraph
module D = Diagnostic
module Sink = Rox_telemetry.Sink

(* Replay state for the per-component cardinality accounting (RX108):
   which component each vertex belongs to, its current row count, and its
   member vertices (components merge on fuse). *)
type comp = { mutable rows : int; mutable members : int list }

type replay = {
  weighted : bool array;
  chosen : bool array;
  executed : bool array;
  comp_of : int array;
  mutable comps : comp option array;
  mutable ncomps : int;
  equi_uf : int array;
  (* Chain bookkeeping between Chain_started and Chain_chosen. *)
  mutable chain : (int * int) option;  (** (source, min_edge) *)
  mutable chain_round : int;
  mutable chain_cutoff : int;
  mutable chain_last : Sink.chain_path list;  (** the last round's segments *)
  mutable next_order : int;
}

let rec uf_find uf v = if uf.(v) = v then v else (uf.(v) <- uf_find uf uf.(v); uf.(v))

let uf_union uf a b =
  let ra = uf_find uf a and rb = uf_find uf b in
  if ra <> rb then uf.(ra) <- rb

let new_comp r rows members =
  if r.ncomps >= Array.length r.comps then begin
    let bigger = Array.make (max 8 (2 * Array.length r.comps)) None in
    Array.blit r.comps 0 bigger 0 r.ncomps;
    r.comps <- bigger
  end;
  let cid = r.ncomps in
  r.comps.(cid) <- Some { rows; members };
  r.ncomps <- cid + 1;
  List.iter (fun v -> r.comp_of.(v) <- cid) members;
  cid

let comp_exn r cid = match r.comps.(cid) with Some c -> c | None -> assert false

let bad_stat f = Float.is_nan f || f < 0.0

(* Walk [edges] from [source]: each edge must extend the frontier vertex
   reached so far (a chain segment is a path, Section 3.2). *)
let path_connected graph source edges =
  let ok = ref true and cur = ref source in
  List.iter
    (fun id ->
      if !ok then begin
        let e = Graph.edge graph id in
        if Edge.touches e !cur then cur := Edge.other_end e !cur else ok := false
      end)
    edges;
  !ok

(* Line 26 over a round's recorded statistics: the segment whose (cost, sf)
   makes executing it first help every other one. *)
let dominating (paths : Sink.chain_path list) =
  List.find_opt
    (fun (pi : Sink.chain_path) ->
      List.for_all
        (fun (pj : Sink.chain_path) ->
          pj == pi || pi.Sink.cost +. (pi.Sink.sf *. pj.Sink.cost) <= pj.Sink.cost)
        paths)
    paths

(* A chain's stop must be the one its last round justifies: line 26 holds
   for [stopping_condition] and fails for the line-34 stops. *)
let stop_findings r (trigger : Rox_telemetry.Metrics.chain_trigger) =
  let label = Rox_telemetry.Metrics.chain_trigger_label trigger in
  match (trigger, r.chain_last, dominating r.chain_last) with
  | `Single_edge, _, _ ->
    [ Printf.sprintf "a started chain ended as %s" label ]
  | _, [], _ -> [ Printf.sprintf "chain stopped (%s) before any round" label ]
  | `Stopping_condition, _, None ->
    [ Printf.sprintf "chain stopped on line 26 but no segment of round %d dominates"
        r.chain_round ]
  | (`Exhausted | `Cannot_pay), _, Some p ->
    [ Printf.sprintf "chain stopped (%s) although segment %s of round %d dominates (line 26)"
        label p.Sink.label r.chain_round ]
  | _ -> []

let check (g : Graph.t) (sink : Sink.t) =
  let out = ref [] in
  let add d = out := d :: !out in
  let nv = Graph.vertex_count g and ne = Graph.edge_count g in
  let r =
    {
      weighted = Array.make ne false;
      chosen = Array.make ne false;
      executed = Array.make ne false;
      comp_of = Array.make nv (-1);
      comps = Array.make 8 None;
      ncomps = 0;
      equi_uf = Array.init nv (fun i -> i);
      chain = None;
      chain_round = 0;
      chain_cutoff = 0;
      chain_last = [];
      next_order = 1;
    }
  in
  let valid_edge id = id >= 0 && id < ne in
  let valid_vertex v = v >= 0 && v < nv in
  List.iteri
    (fun idx ev ->
      let loc = D.Event idx in
      match (ev : Sink.event) with
      | Sink.Vertex_initialized { vertex; card } ->
        if not (valid_vertex vertex) then
          add
            (D.error "RX111" loc
               (Printf.sprintf "initialized unknown vertex v%d (graph has %d)" vertex nv))
        else if card < 0 then
          add
            (D.error "RX111" loc
               (Printf.sprintf "vertex v%d initialized with negative cardinality %d"
                  vertex card))
      | Sink.Edge_weighted { edge; weight } ->
        if not (valid_edge edge) then
          add
            (D.error "RX112" loc
               (Printf.sprintf "weighted unknown edge e%d (graph has %d)" edge ne))
        else if bad_stat weight then
          add
            (D.error "RX112" loc
               (Printf.sprintf "edge e%d weighted %s" edge (string_of_float weight)))
        else r.weighted.(edge) <- true
      | Sink.Chain_started { source; min_edge } ->
        r.chain_round <- 0;
        r.chain_cutoff <- 0;
        r.chain_last <- [];
        if not (valid_edge min_edge) then begin
          r.chain <- None;
          add
            (D.error "RX106" loc
               (Printf.sprintf "chain started from unknown edge e%d" min_edge))
        end
        else if
          (not (valid_vertex source))
          || not (Edge.touches (Graph.edge g min_edge) source)
        then begin
          r.chain <- None;
          add
            (D.error "RX106" loc
               (Printf.sprintf "chain source v%d is not an endpoint of edge e%d" source
                  min_edge))
        end
        else r.chain <- Some (source, min_edge)
      | Sink.Chain_round { round; cutoff; paths } ->
        if r.chain = None then
          add
            (D.error "RX105" loc "chain round emitted outside a chain (no Chain_started)")
        else begin
          if round <> r.chain_round + 1 then
            add
              (D.error "RX105" loc
                 (Printf.sprintf "round %d follows round %d (must be consecutive)" round
                    r.chain_round));
          if cutoff < r.chain_cutoff then
            add
              (D.error "RX105" loc
                 (Printf.sprintf "cutoff shrank from %d to %d (must grow monotonically)"
                    r.chain_cutoff cutoff));
          if cutoff <= 0 then
            add (D.error "RX105" loc (Printf.sprintf "cutoff %d is not positive" cutoff));
          r.chain_round <- round;
          r.chain_cutoff <- max r.chain_cutoff cutoff;
          r.chain_last <- paths;
          List.iter
            (fun (p : Sink.chain_path) ->
              if bad_stat p.Sink.cost || bad_stat p.Sink.sf then
                add
                  (D.error "RX113" loc
                     (Printf.sprintf "segment %s has cost %s, sf %s" p.Sink.label
                        (string_of_float p.Sink.cost) (string_of_float p.Sink.sf))))
            paths
        end
      | Sink.Chain_chosen { edges; trigger } ->
        (match r.chain with
         | None ->
           add
             (D.error "RX106" loc
                "chain choice emitted outside a chain (no Chain_started)")
         | Some (source, _min_edge) ->
           List.iter (fun msg -> add (D.error "RX105" loc msg)) (stop_findings r trigger);
           let ids_ok =
             List.for_all
               (fun id ->
                 if valid_edge id then true
                 else begin
                   add
                     (D.error "RX106" loc
                        (Printf.sprintf "chain chose unknown edge e%d" id));
                   false
                 end)
               edges
           in
           if ids_ok then begin
             List.iter
               (fun id ->
                 if r.executed.(id) then
                   add
                     (D.error "RX110" loc
                        (Printf.sprintf "chain chose already-executed edge e%d" id)))
               edges;
             if edges = [] then
               add (D.error "RX106" loc "chain chose an empty path segment")
             else if not (path_connected g source edges) then
               add
                 (D.error "RX106" loc
                    (Printf.sprintf
                       "chosen edges [%s] do not form a connected path from v%d"
                       (String.concat "; "
                          (List.map (fun id -> Printf.sprintf "e%d" id) edges))
                       source));
             List.iter (fun id -> r.chosen.(id) <- true) edges
           end);
        r.chain <- None
      | Sink.Edge_executed { edge; order; pairs; rel_rows } ->
        if not (valid_edge edge) then
          add
            (D.error "RX101" loc
               (Printf.sprintf "executed unknown edge e%d (graph has %d)" edge ne))
        else begin
          let e = Graph.edge g edge in
          if r.executed.(edge) then
            add (D.error "RX102" loc (Printf.sprintf "edge e%d executed twice" edge));
          r.executed.(edge) <- true;
          if order <> r.next_order then
            add
              (D.error "RX103" loc
                 (Printf.sprintf "execution order %d, expected %d (contiguous from 1)"
                    order r.next_order));
          r.next_order <- r.next_order + 1;
          if not (r.weighted.(edge) || r.chosen.(edge)) then
            add
              (D.error "RX104" loc
                 ~hint:"Algorithm 2 weighs every edge before it may execute"
                 (Printf.sprintf
                    "edge e%d executed without a prior weight or chain choice" edge));
          if Runtime.is_trivial_edge g e then
            add
              (D.error "RX107" loc
                 (Printf.sprintf
                    "trivial root-descendant edge e%d appears in the execution order"
                    edge));
          if pairs < 0 || rel_rows < 0 then
            add
              (D.error "RX108" loc
                 (Printf.sprintf "negative cardinality (pairs %d, rows %d)" pairs
                    rel_rows))
          else begin
            (* Component replay: check the produced row count against the
               relational-algebra bound of the operation performed. *)
            let v1 = e.Edge.v1 and v2 = e.Edge.v2 in
            let c1 = r.comp_of.(v1) and c2 = r.comp_of.(v2) in
            let fl = float_of_int in
            let violation bound op_name =
              add
                (D.error "RX108" loc
                   (Printf.sprintf
                      "edge e%d (%s) produced %d rows from %d pairs, bound is %.0f"
                      edge op_name rel_rows pairs bound))
            in
            if pairs = 0 && rel_rows > 0 then
              add
                (D.error "RX108" loc
                   (Printf.sprintf "edge e%d produced %d rows from zero pairs" edge
                      rel_rows))
            else if c1 < 0 && c2 < 0 then begin
              if rel_rows <> pairs then
                add
                  (D.error "RX108" loc
                     (Printf.sprintf
                        "fresh component of edge e%d has %d rows, expected exactly %d \
                         pairs"
                        edge rel_rows pairs));
              ignore (new_comp r rel_rows [ v1; v2 ])
            end
            else if c1 >= 0 && c2 >= 0 && c1 = c2 then begin
              let c = comp_exn r c1 in
              if rel_rows > c.rows then violation (fl c.rows) "filter";
              c.rows <- rel_rows
            end
            else if c1 >= 0 && c2 >= 0 then begin
              let a = comp_exn r c1 and b = comp_exn r c2 in
              if fl rel_rows > fl a.rows *. fl b.rows *. fl pairs then
                violation (fl a.rows *. fl b.rows *. fl pairs) "fuse";
              a.rows <- rel_rows;
              a.members <- a.members @ b.members;
              List.iter (fun v -> r.comp_of.(v) <- c1) b.members;
              r.comps.(c2) <- None
            end
            else begin
              let cid, fresh = if c1 >= 0 then (c1, v2) else (c2, v1) in
              let c = comp_exn r cid in
              if fl rel_rows > fl c.rows *. fl pairs then
                violation (fl c.rows *. fl pairs) "extend";
              c.rows <- rel_rows;
              c.members <- fresh :: c.members;
              r.comp_of.(fresh) <- cid
            end
          end;
          match e.Edge.op with
          | Edge.Equijoin -> uf_union r.equi_uf e.Edge.v1 e.Edge.v2
          | Edge.Step _ -> ()
        end
      | Sink.Cache_lookup { edge; store = _; hit = _ } ->
        (* Cache consultations are free-form (estimate lookups happen for
           edges never executed); only the edge id must be real. *)
        if not (valid_edge edge) then
          add
            (D.error "RX114" loc
               (Printf.sprintf "cache lookup on unknown edge e%d (graph has %d)" edge
                  ne))
      | Sink.Truncated _ -> ())
    (Sink.events sink);
  (* RX109: completeness. Every non-trivial edge must have been executed or
     be transitively implied by executed equi-joins (Runtime.sweep_implied
     marks those without emitting an event). *)
  Array.iter
    (fun (e : Edge.t) ->
      if (not r.executed.(e.Edge.id)) && not (Runtime.is_trivial_edge g e) then begin
        let implied =
          match e.Edge.op with
          | Edge.Equijoin -> uf_find r.equi_uf e.Edge.v1 = uf_find r.equi_uf e.Edge.v2
          | Edge.Step _ -> false
        in
        if not implied then
          add
            (D.warning "RX109" (D.Edge e.Edge.id)
               ~hint:"partial traces (sampling-only runs) are expected to trip this"
               (Printf.sprintf "non-trivial edge e%d was never executed" e.Edge.id))
      end)
    (Graph.edges g);
  List.rev !out
