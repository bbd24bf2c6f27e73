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
  table_fraction : float option;
  sanitize : bool;
  budgets : budgets;
  client_id : string;
}

(* The sanitize mode starts from ROX_SANITIZE, read once at program start;
   every other field is an explicit literal. *)
let default_config () =
  {
    seed = 42;
    tau = 100;
    use_chain = true;
    resample = true;
    table_fraction = None;
    sanitize = Sanitize.env_default;
    budgets = default_budgets;
    client_id = "local";
  }

type t = {
  config : config;
  rng : Xoshiro.t;
  counter : Cost.counter;
  cache : Rox_cache.Store.t option;
  telemetry : Rox_telemetry.Sink.t;
  (* The domain that first entered [confine] (-1 until then). With the
     sanitize mode on, an entry from any other domain is RX504. *)
  owner : int Atomic.t;
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
    owner = Atomic.make (-1);
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

(* The first entry claims the session for its domain, wherever the
   session was created: a server worker confines sessions the worker
   itself builds, and a session handed to a pool is claimed by the domain
   that runs it. *)
let confine t f =
  let self = (Domain.self () :> int) in
  ignore (Atomic.compare_and_set t.owner (-1) self : bool);
  let owner = Atomic.get t.owner in
  if t.config.sanitize && owner <> self then
    Sanitize.fail ~op:"Session.confine" ~contract:Sanitize.Owner_domain
      (Printf.sprintf "session claimed by domain %d, entered from domain %d"
         owner self);
  arm t;
  Fun.protect ~finally:(fun () -> disarm t) f

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

let flight_record t recorder ~query ~plan ~latency_ns ~status =
  let module R = Rox_telemetry.Recorder in
  R.record_request recorder ~trace_id:(R.next_trace_id recorder) ~query
    ~tenant:t.config.client_id ~outcome:R.Executed ~status ~latency_ns
    ~queue_ns:0
    (Some
       {
         R.sink = t.telemetry;
         plan;
         sampling_units = Cost.read t.counter Cost.Sampling;
         execution_units = Cost.read t.counter Cost.Execution;
       })

let describe t =
  let b = t.config.budgets in
  Printf.sprintf
    "session client=%s seed=%d tau=%d chain=%b resample=%b \
     table_fraction=%s sanitize=%b max_rows=%d deadline_ms=%s \
     max_sampled_rows=%s cache=%b telemetry=%b"
    t.config.client_id t.config.seed t.config.tau t.config.use_chain t.config.resample
    (match t.config.table_fraction with
     | None -> "-"
     | Some f -> string_of_float f)
    t.config.sanitize b.max_rows
    (match b.deadline_ms with None -> "-" | Some ms -> string_of_int ms)
    (match b.max_sampled_rows with None -> "-" | Some r -> string_of_int r)
    (t.cache <> None)
    (Rox_telemetry.Sink.enabled t.telemetry)
