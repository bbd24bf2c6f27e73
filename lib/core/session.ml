open Rox_util
open Rox_storage
open Rox_algebra
open Rox_joingraph

type budgets = {
  max_rows : int;
  deadline_ms : int option;
  max_sampled_rows : int option;
}

let default_budgets =
  { max_rows = 50_000_000; deadline_ms = None; max_sampled_rows = None }

type config = {
  seed : int;
  tau : int;
  use_chain : bool;
  resample : bool;
  grow_cutoff : bool;
  table_fraction : float option;
  sanitize : bool;
  budgets : budgets;
  client_id : string;
}

(* The ONLY place a session consults process-global state: the default
   sanitize mode seeded from ROX_SANITIZE at module init. Every other
   field is an explicit literal. Inside an armed confined region this
   call itself trips RX307 — sessions must be built before entering
   another session's region, never from within one. *)
let default_config () =
  {
    seed = 42;
    tau = 100;
    use_chain = true;
    resample = true;
    grow_cutoff = true;
    table_fraction = None;
    sanitize = Sanitize.default_mode ();
    budgets = default_budgets;
    client_id = "local";
  }

type t = {
  config : config;
  rng : Xoshiro.t;
  counter : Cost.counter;
  cache : Rox_cache.Store.t option;
  telemetry : Rox_telemetry.Sink.t;
  (* RX5xx access-log site (kind Confined, -1 when the log was disarmed
     at creation): every [confine] entry records one Write, so the race
     detector proves each session lives and dies on one domain — a
     session reused across domains is RX504, the cross-domain extension
     of RX307. *)
  al_site : int;
  mutable deadline_at : float option;
      (* Absolute wall-clock instant (Unix time) past which the session
         aborts; set when a run is armed, cleared when it unwinds. *)
}

let create ?config ?cache ?telemetry () =
  let config = match config with Some c -> c | None -> default_config () in
  let telemetry =
    match telemetry with Some s -> s | None -> Rox_telemetry.Sink.null ()
  in
  let sampling_budget =
    match config.budgets.max_sampled_rows with Some b -> b | None -> max_int
  in
  {
    config;
    rng = Xoshiro.create config.seed;
    counter = Cost.new_counter ~sampling_budget ();
    cache;
    telemetry;
    al_site =
      (if Accesslog.armed () then
         Accesslog.site ~name:"core.session" Accesslog.Confined
       else -1);
    deadline_at = None;
  }

let config t = t.config
let seed t = t.config.seed
let tau t = t.config.tau
let sanitize t = t.config.sanitize
let budgets t = t.config.budgets
let client_id t = t.config.client_id
let rng t = t.rng
let counter t = t.counter
let cache t = t.cache
let telemetry t = t.telemetry
let metrics t = Rox_telemetry.Sink.metrics t.telemetry
let sampling_meter t = Cost.sampling_meter t.counter
let execution_meter t = Cost.execution_meter t.counter

let arm t =
  t.deadline_at <-
    (match t.config.budgets.deadline_ms with
     | None -> None
     | Some ms -> Some (Unix.gettimeofday () +. (float_of_int ms /. 1000.0)))

let disarm t = t.deadline_at <- None

let check_deadline t =
  match t.deadline_at with
  | None -> ()
  | Some at ->
    let now = Unix.gettimeofday () in
    if now > at then begin
      let budget =
        match t.config.budgets.deadline_ms with Some ms -> ms | None -> 0
      in
      let spent = budget + int_of_float (ceil ((now -. at) *. 1000.0)) in
      raise (Cost.Budget_exceeded { reason = Cost.Deadline; spent; budget })
    end

let confine t f =
  if Accesslog.armed () then Accesslog.record ~site:t.al_site Accesslog.Write;
  arm t;
  Fun.protect
    ~finally:(fun () -> disarm t)
    (fun () -> Sanitize.confine ~sanitize:t.config.sanitize f)

let table_sampler t =
  match t.config.table_fraction with
  | None -> None
  | Some fraction ->
    (* An isolated stream so approximate-mode draws do not perturb the
       optimizer's sampling decisions. *)
    let rng = Xoshiro.create (t.config.seed lxor 0x5eed) in
    Some (fun _vertex table -> Sampling.sample_fraction rng table fraction)

let runtime_config t =
  {
    Runtime.max_rows = t.config.budgets.max_rows;
    sanitize = t.config.sanitize;
    cache = t.cache;
    table_sampler = table_sampler t;
    telemetry = t.telemetry;
  }

(* The one-shot CLI's flight-recorder hook: rox run / rox profile build a
   record from the finished session exactly the way the server's
   record_request does — same fingerprint rule, same spend/cache-counter
   reads — so a slow CLI query and a slow served query produce
   reconcilable slow-log lines. *)
let flight_record t recorder ~query ~plan ~latency_ns ~status =
  let module R = Rox_telemetry.Recorder in
  let module Tm = Rox_telemetry.Metrics in
  let m = Rox_telemetry.Sink.metrics t.telemetry in
  let c (cnt : Tm.counter) = cnt.Tm.c_value in
  let record =
    {
      R.trace_id = R.next_trace_id recorder;
      fingerprint = String.sub (Digest.to_hex (Digest.string query)) 0 12;
      tenant = t.config.client_id;
      plan_digest = R.plan_digest plan;
      plan_edges = List.length plan;
      latency_ns;
      queue_ns = 0;
      sampling_units = Cost.read t.counter Cost.Sampling;
      execution_units = Cost.read t.counter Cost.Execution;
      cache_hits = c m.Tm.relation_cache_hits + c m.Tm.estimate_cache_hits;
      cache_misses = c m.Tm.relation_cache_misses + c m.Tm.estimate_cache_misses;
      outcome = R.Executed;
      status;
      (* Raw close-order spans are fine for per-edge timings; the
         chronological sort is paid only when the tree is retained. *)
      edge_ns = R.edge_timings_of_spans (Rox_telemetry.Sink.spans t.telemetry);
    }
  in
  (match R.observe recorder record with
   | Some reason -> (
     match Rox_telemetry.Sink.snapshot t.telemetry with
     | None -> ()
     | Some snap -> R.retain recorder record reason snap)
   | None -> ());
  record

let describe t =
  let b = t.config.budgets in
  Printf.sprintf
    "session client=%s seed=%d tau=%d chain=%b resample=%b grow_cutoff=%b \
     table_fraction=%s sanitize=%b max_rows=%d deadline_ms=%s \
     max_sampled_rows=%s cache=%b telemetry=%b"
    t.config.client_id t.config.seed t.config.tau t.config.use_chain t.config.resample
    t.config.grow_cutoff
    (match t.config.table_fraction with
     | None -> "-"
     | Some f -> string_of_float f)
    t.config.sanitize b.max_rows
    (match b.deadline_ms with None -> "-" | Some ms -> string_of_int ms)
    (match b.max_sampled_rows with None -> "-" | Some r -> string_of_int r)
    (t.cache <> None)
    (Rox_telemetry.Sink.enabled t.telemetry)
