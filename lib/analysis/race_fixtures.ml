(* Deliberate concurrency bugs (and their fixed twins) for the race
   detector to cut its teeth on.

   Each fixture arms the access log, runs a small multi-domain workload,
   and returns the detector's diagnostics over exactly that recording.
   The seeded race is the standing proof-of-teeth: `rox racecheck` runs
   it first and refuses to bless a workload with a detector that cannot
   see a planted unguarded counter.

   Fixtures save and restore the armed flag so they compose with any
   surrounding ROX_SANITIZE setting, and they model the real fork/join
   edges with hb tokens — the parent's setup writes must not read as
   races against the workers. *)

module Al = Rox_util.Accesslog

let with_recording f =
  let was = Al.armed () in
  Al.set_armed true;
  Al.reset ();
  let finish () =
    let sites = Al.sites_snapshot () in
    let events = Al.events () in
    Al.set_armed was;
    (sites, events)
  in
  match f () with
  | () ->
    let sites, events = finish () in
    Race_check.check ~sites events
  | exception exn ->
    ignore (finish ());
    raise exn

(* Spawn [n] workers with honest fork/join happens-before edges. *)
let fork_join n work =
  let start_toks = Array.init n (fun i -> Al.hb_token ~name:(Printf.sprintf "fixture.spawn%d" i)) in
  let done_toks = Array.init n (fun i -> Al.hb_token ~name:(Printf.sprintf "fixture.join%d" i)) in
  let domains =
    Array.init n (fun i ->
        Al.hb_publish start_toks.(i);
        Domain.spawn (fun () ->
            Al.hb_acquire start_toks.(i);
            work i;
            Al.hb_publish done_toks.(i)))
  in
  Array.iteri
    (fun i d ->
      Domain.join d;
      Al.hb_acquire done_toks.(i))
    domains

(* The seeded race: two domains bang on one counter with no lock at all.
   A real int ref races for real; the recorded site races on the log. *)
let seeded_race ?(domains = 2) ?(iters = 64) () =
  with_recording (fun () ->
      let counter = ref 0 in
      let site = Al.site ~name:"fixture.unguarded_counter" Al.Shared in
      Al.record ~site Al.Write (* parent seeds the counter *);
      counter := 0;
      fork_join domains (fun _ ->
          for _ = 1 to iters do
            Al.record ~site Al.Read;
            let v = !counter in
            Al.record ~site Al.Write;
            counter := v + 1
          done))

(* The fixed twin: same counter, one mutex on every path — must be clean. *)
let guarded_counter ?(domains = 2) ?(iters = 64) () =
  with_recording (fun () ->
      let counter = ref 0 in
      let mutex = Mutex.create () in
      let site = Al.site ~name:"fixture.guarded_counter" Al.Shared in
      let lock = Al.lock ~name:"fixture.counter_mutex" in
      fork_join domains (fun _ ->
          for _ = 1 to iters do
            Mutex.protect mutex (fun () ->
                Al.with_lock lock (fun () ->
                    Al.record ~site Al.Write;
                    incr counter))
          done))

(* Inconsistent lock discipline: two sequential phases (fork/join orders
   them, so no race manifests), each guarding the same site with a
   *different* mutex. Every access is locked, no single lock covers the
   site — the fragile pattern RX502 warns about before a scheduling
   change turns it into RX501. *)
let split_locks ?(iters = 16) () =
  with_recording (fun () ->
      let cell = ref 0 in
      let m1 = Mutex.create () and m2 = Mutex.create () in
      let site = Al.site ~name:"fixture.split_lock_cell" Al.Shared in
      let l1 = Al.lock ~name:"fixture.lock_a" in
      let l2 = Al.lock ~name:"fixture.lock_b" in
      let phase mutex lock =
        fork_join 1 (fun _ ->
            for _ = 1 to iters do
              Mutex.protect mutex (fun () ->
                  Al.with_lock lock (fun () ->
                      Al.record ~site Al.Write;
                      incr cell))
            done)
      in
      phase m1 l1;
      phase m2 l2)

(* A session-shaped confined site leaked across the fork: RX504. *)
let confined_leak () =
  with_recording (fun () ->
      let site = Al.site ~name:"fixture.leaked_session" Al.Confined in
      Al.record ~site Al.Write;
      fork_join 1 (fun _ -> Al.record ~site Al.Write))

(* A cache interleaving with a planted hole: domain 0 follows the cache
   discipline (mutate only under the cache mutex), domain 1 writes the
   cache's byte counter without the lock. The Lru takes its lock on every
   operation to make this impossible — the detector must still have
   teeth for it. *)
let cache_unguarded ?(iters = 48) () =
  with_recording (fun () ->
      let bytes = ref 0 in
      let site = Al.site ~name:"fixture.cache" Al.Shared in
      let lock = Al.lock ~name:"fixture.cache.mutex" in
      let mutex = Mutex.create () in
      fork_join 2 (fun d ->
          for _ = 1 to iters do
            if d = 0 then
              Mutex.protect mutex (fun () ->
                  Al.with_lock lock (fun () ->
                      Al.record ~site Al.Write;
                      incr bytes))
            else begin
              (* planted: cache state mutated without the cache lock *)
              Al.record ~site Al.Write;
              decr bytes
            end
          done))

(* The fixed twin is the real thing: a Rox_cache.Lru hammered from two
   domains through its public operations — its one mutex on every lookup
   and mutation. Must come back clean. *)
let cache_guarded ?(domains = 2) ?(iters = 120) () =
  let module L = Rox_cache.Lru.Make (struct
    type t = string

    let equal = String.equal
    let hash = Hashtbl.hash
  end) in
  with_recording (fun () ->
      let cache = L.create ~name:"fixture.lru" ~budget:4096 () in
      fork_join domains (fun d ->
          for i = 1 to iters do
            let k = Printf.sprintf "k%d" ((i + d) land 31) in
            L.add cache k ~weight:16 ((d * 100_000) + i);
            ignore (L.find cache k : int option)
          done))

(* The flight recorder's twin of cache-guarded: a real Recorder driven
   from two domains through record_request while the same domains read
   recent, prometheus and threshold_ns — its one mutex on every path.
   The records outnumber the ring, errors outnumber the retained-trace
   bound and tenants outnumber the tenant cap, so wraparound, retention
   eviction and tenant overflow all run concurrently. Must come back
   clean. *)
let recorder_guarded ?(domains = 2) ?(iters = 200) () =
  let module R = Rox_telemetry.Recorder in
  with_recording (fun () ->
      let rc = R.create () in
      fork_join domains (fun d ->
          for i = 1 to iters do
            let sink = Rox_telemetry.Sink.create ~cap:4 ~enabled:true () in
            Rox_telemetry.Sink.with_span sink "fixture" ignore;
            let run =
              { R.sink; plan = []; sampling_units = i; execution_units = 0 }
            in
            let outcome, status, run =
              match i mod 4 with
              | 0 -> (R.Rejected, "busy", None)
              | 1 -> (R.Executed, "deadline", Some run)
              | _ -> (R.Executed, "ok", Some run)
            in
            ignore
              (R.record_request rc ~trace_id:(R.next_trace_id rc)
                 ~query:"fixture"
                 ~tenant:(Printf.sprintf "t%d" ((i + d) mod (R.tenant_cap + 4)))
                 ~outcome ~status ~latency_ns:(1_000 * i) ~queue_ns:0 run
                : R.record);
            ignore (R.recent rc 4 : R.record list);
            ignore (R.prometheus rc : string);
            ignore (R.threshold_ns rc : int)
          done))

let all =
  [
    ("seeded-race", (fun () -> seeded_race ()),
     "two domains increment an unguarded shared counter", [ "RX501" ]);
    ("guarded-counter", (fun () -> guarded_counter ()),
     "the same counter behind one mutex on every path", []);
    ("split-locks", (fun () -> split_locks ()),
     "two paths guard one site with two different locks", [ "RX502" ]);
    ("confined-leak", (fun () -> confined_leak ()),
     "a session-confined site touched from a second domain", [ "RX504" ]);
    ("cache-unguarded", (fun () -> cache_unguarded ()),
     "a cache's bytes mutated without the cache lock", [ "RX501" ]);
    ("cache-guarded", (fun () -> cache_guarded ()),
     "the real single-lock LRU hammered through its public ops", []);
    ("recorder-guarded", (fun () -> recorder_guarded ()),
     "the real flight recorder written and read from two domains", []);
  ]

let find name =
  List.find_opt (fun (n, _, _, _) -> n = name) all
