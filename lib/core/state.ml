open Rox_util
open Rox_storage
open Rox_algebra
open Rox_joingraph
module Sink = Rox_telemetry.Sink
module Tm = Rox_telemetry.Metrics

type t = {
  session : Session.t;
  runtime : Runtime.t;
  samples : Column.t option array;
  cards : float option array;
  weights : float option array;
}

let create session engine graph =
  {
    session;
    runtime = Runtime.create ~config:(Session.runtime_config session) engine graph;
    samples = Array.make (Graph.vertex_count graph) None;
    cards = Array.make (Graph.vertex_count graph) None;
    weights = Array.make (Graph.edge_count graph) None;
  }

let session t = t.session
let runtime t = t.runtime
let graph t = Runtime.graph t.runtime
let engine t = Runtime.engine t.runtime
let tau t = Session.tau t.session
let rng t = Session.rng t.session
let counter t = Session.counter t.session
let telemetry t = Session.telemetry t.session
let sample t v = t.samples.(v)
let card t v = t.cards.(v)
let cache t = Session.cache t.session
let sampling_meter t = Session.sampling_meter t.session
let execution_meter t = Session.execution_meter t.session

(* Cut-off sampled execution with the cross-query estimate cache in front.
   A sampled run is a pure function of (edge shape, direction, outer
   sample, inner table, limit), so the full Cutoff.t — estimate, sampled
   output, consumed fraction — can be replayed from cache; a hit skips the
   physical sampled operator and its sampling-meter charges. Under the
   sanitizer every hit is cross-checked bit-identical against a fresh
   (uncharged) execution. *)
let sampled_cutoff t (e : Edge.t) ~outer ~sample ~inner_table ~limit =
  let engine = Runtime.engine t.runtime in
  let graph = Runtime.graph t.runtime in
  let tel = Session.telemetry t.session in
  let run meter =
    Exec.sampled ~sanitize:(Session.sanitize t.session) ?meter engine graph e ~outer ~sample
      ~inner_table ~limit
  in
  (* Charged (non-sanitize-replay) sampled runs are spanned and feed the
     sampling wall-clock bucket — the numerator of the Figure 8 overhead. *)
  let run_charged () =
    Sink.with_span tel "exec_sampled"
      ~attrs:(fun () -> [ ("edge", string_of_int e.Edge.id) ])
      ~record:(fun m dur ->
        Tm.observe m.Tm.sampled_run_ns dur;
        Tm.incr ~by:dur m.Tm.sampling_time_ns)
      (fun () -> run (Some (sampling_meter t)))
  in
  let note_lookup hit =
    if Sink.enabled tel then begin
      let m = Sink.metrics tel in
      Tm.incr (if hit then m.Tm.estimate_cache_hits else m.Tm.estimate_cache_misses)
    end
  in
  match Session.cache t.session with
  | None -> run_charged ()
  | Some store ->
    let vdesc v = Vertex.fingerprint_label (Graph.vertex graph v) in
    let key =
      Rox_cache.Fingerprint.make
        ~epoch:(Rox_cache.Store.epoch store)
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
    let estimates = Rox_cache.Store.estimates store in
    (match
       Rox_cache.Estimate_cache.find estimates key
     with
     | Some cut ->
       note_lookup true;
       Sink.emit (telemetry t)
         (Sink.Cache_lookup { edge = e.Edge.id; store = `Estimate; hit = true });
       if Session.sanitize t.session then begin
         let op = Printf.sprintf "State.sampled_cutoff(e%d)" e.Edge.id in
         let fresh = run None in
         Sanitize.check_identical ~op ~what:"sampled output"
           cut.Cutoff.out fresh.Cutoff.out;
         if
           cut.Cutoff.est <> fresh.Cutoff.est
           || cut.Cutoff.produced <> fresh.Cutoff.produced
           || cut.Cutoff.consumed_outer
              <> fresh.Cutoff.consumed_outer
           || cut.Cutoff.completed <> fresh.Cutoff.completed
         then
           Sanitize.fail ~op
             ~contract:Sanitize.Cache_consistent
             (Printf.sprintf "cached est %g/produced %d, fresh est %g/produced %d"
                cut.Cutoff.est cut.Cutoff.produced
                fresh.Cutoff.est fresh.Cutoff.produced)
       end;
       cut
     | None ->
       note_lookup false;
       Sink.emit (telemetry t)
         (Sink.Cache_lookup { edge = e.Edge.id; store = `Estimate; hit = false });
       let cut = run_charged () in
       Rox_cache.Estimate_cache.add estimates key cut;
       cut)

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
