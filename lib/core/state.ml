open Rox_util
open Rox_storage
open Rox_algebra
open Rox_joingraph
module Sink = Rox_telemetry.Sink
module Tm = Rox_telemetry.Metrics

(* One cut-off sampled run remembered for the rest of the query: the
   request (direction, limit, inner table by identity, sample by content
   under its hash) and its result. *)
type replay = {
  r_outer : Exec.direction;
  r_limit : int;
  r_inner : Column.t option;
  r_hash : int;
  r_sample : Column.t;
  r_cut : Cutoff.t;
}

type t = {
  session : Session.t;
  runtime : Runtime.t;
  samples : Column.t option array;
  cards : float option array;
  weights : float option array;
  replays : replay list array;  (* per edge id *)
}

let create session ~outputs engine graph =
  {
    session;
    runtime = Runtime.create ~config:(Session.runtime_config session) ~outputs engine graph;
    samples = Array.make (Graph.vertex_count graph) None;
    cards = Array.make (Graph.vertex_count graph) None;
    weights = Array.make (Graph.edge_count graph) None;
    replays = Array.make (Graph.edge_count graph) [];
  }

let session t = t.session
let runtime t = t.runtime
let graph t = Runtime.graph t.runtime
let engine t = Runtime.engine t.runtime
let tau t = Session.tau t.session
let rng t = Session.rng t.session
let telemetry t = Session.telemetry t.session
let sample t v = t.samples.(v)
let card t v = t.cards.(v)
let sampling_meter t = Session.sampling_meter t.session

(* The inner table is matched by identity: T(v) is replaced, never
   mutated, and a remembered request keeps its table alive, so the same
   object means the same contents. *)
let same_request r ~outer ~limit ~inner_table ~hash ~sample =
  r.r_outer = outer && r.r_limit = limit && r.r_hash = hash
  && (match (r.r_inner, inner_table) with
      | None, None -> true
      | Some a, Some b -> a == b
      | _ -> false)
  && Column.equal r.r_sample sample

(* Cut-off sampled execution with the cross-query estimate cache in front:
   a hit replays the whole Cutoff.t and skips the sampled operator and its
   sampling-meter charges. *)
let cached_cutoff t (e : Edge.t) ~run ~outer ~sample ~inner_table ~limit =
  let graph = Runtime.graph t.runtime in
  let tel = Session.telemetry t.session in
  let key () =
    let vdesc v = Vertex.fingerprint_label (Graph.vertex graph v) in
    Rox_cache.Fingerprint.make
      [
        "est";
        (match e.Edge.op with
         | Edge.Step axis -> "step:" ^ Axis.short_label axis
         | Edge.Equijoin -> "eq");
        (match outer with Exec.From_v1 -> "1" | Exec.From_v2 -> "2");
        vdesc e.Edge.v1;
        vdesc e.Edge.v2;
        Rox_cache.Fingerprint.column sample;
        Rox_cache.Fingerprint.option_column inner_table;
        string_of_int limit;
      ]
  in
  Rox_cache.Store.memo (Session.cache t.session) Rox_cache.Store.Estimate
    ~sanitize:(Session.sanitize t.session) ~telemetry:tel ~edge:e.Edge.id ~key
    ~run:(fun ~charged ->
      if not charged then run None
      else
        (* Charged runs are spanned and feed the sampling wall-clock
           bucket — the numerator of the Figure 8 overhead. *)
        Sink.with_span tel "exec_sampled"
          ~attrs:(fun () -> [ ("edge", string_of_int e.Edge.id) ])
          ~record:(fun m dur ->
            Tm.observe m.Tm.sampled_run_ns dur;
            Tm.incr ~by:dur m.Tm.sampling_time_ns)
          (fun () -> run (Some (sampling_meter t))))

(* The per-query memo in front of [cached_cutoff]: a request this query
   already made replays its Cutoff.t, charging nothing, and a miss is
   remembered for the rest of the query. *)
let sampled_cutoff t (e : Edge.t) ~outer ~sample ~inner_table ~limit =
  let sanitize = Session.sanitize t.session in
  let run meter =
    Exec.sampled ~sanitize ?meter (Runtime.engine t.runtime) (Runtime.graph t.runtime) e
      ~outer ~sample ~inner_table ~limit
  in
  let hash = Column.hash sample in
  let remembered = t.replays.(e.Edge.id) in
  match List.find_opt (same_request ~outer ~limit ~inner_table ~hash ~sample) remembered with
  | Some r ->
    let tel = Session.telemetry t.session in
    if Sink.enabled tel then Tm.incr (Sink.metrics tel).Tm.sampled_replays;
    if sanitize then
      Rox_cache.Store.verify_replay Rox_cache.Store.Estimate
        ~op:(Printf.sprintf "State.sampled_cutoff(e%d)" e.Edge.id)
        ~what:"replayed cut-off run" ~replayed:r.r_cut ~fresh:(run None);
    r.r_cut
  | None ->
    let cut = cached_cutoff t e ~run ~outer ~sample ~inner_table ~limit in
    t.replays.(e.Edge.id) <-
      { r_outer = outer; r_limit = limit; r_inner = inner_table; r_hash = hash;
        r_sample = sample; r_cut = cut }
      :: remembered;
    cut

let set_sample_from t v table =
  let s = Sampling.sample (rng t) table (tau t) in
  (* Drawing the sample touches |s| tuples. *)
  Cost.charge (Some (sampling_meter t)) (Column.length s);
  t.samples.(v) <- Some s;
  t.cards.(v) <- Some (float_of_int (Column.length table))

let refresh_vertex t v =
  match Runtime.table t.runtime v with
  | Some table -> set_sample_from t v table
  | None -> ()

let init_vertex_from_index t v =
  let vertex = Graph.vertex (graph t) v in
  if Exec.can_index_init vertex then begin
    let domain = Exec.vertex_domain (engine t) vertex in
    set_sample_from t v domain;
    Sink.emit (telemetry t) (Sink.Vertex_initialized { vertex = v; card = Column.length domain });
    true
  end
  else false

let weight t (e : Edge.t) = t.weights.(e.Edge.id)

let set_weight t (e : Edge.t) w =
  t.weights.(e.Edge.id) <- Some w;
  Sink.emit (telemetry t) (Sink.Edge_weighted { edge = e.Edge.id; weight = w })

let min_weight_edge t =
  let best = ref None in
  List.iter
    (fun e ->
      let w = match t.weights.(e.Edge.id) with Some w -> w | None -> infinity in
      match !best with
      | None -> best := Some (e, w)
      | Some (_, bw) -> if w < bw then best := Some (e, w))
    (Runtime.unexecuted_edges t.runtime);
  Option.map fst !best
