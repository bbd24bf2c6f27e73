(* The shared-access event log behind the RX5xx race detector.

   Every instrumented touch of cross-domain mutable state — a cache store
   operation, a server ledger update, a session confinement entry —
   appends one event: which domain, which site, read or write, and which
   locks the domain held. The checker in
   Rox_analysis.Race_check replays the log with Eraser-style locksets and
   vector-clock happens-before.

   Overhead contract (mirrors the telemetry sink): a *disarmed* log costs
   one boolean test per instrumented site — no atomics, no allocation.
   Armed, an event is one Atomic.fetch_and_add plus four stores into a
   preallocated buffer. The buffer is bounded: events past the cap are
   counted as dropped, never grown. *)

type site_kind = Shared | Confined

type op = Read | Write | Acquire | Release

type event = {
  seq : int;
  domain : int;
  site : int;  (* site id for Read/Write, lock id for Acquire/Release *)
  op : op;
  locks : int; (* bitmask of lock ids held by the recording domain *)
}

(* --- arming ------------------------------------------------------------- *)

(* Plain ref, not an Atomic: it is flipped before domains spawn (CLI
   startup or a racecheck driver) and only read afterwards — the spawn
   itself publishes the value. One load + one branch per disarmed site. *)
let armed_flag =
  ref
    (match Sys.getenv_opt "ROX_SANITIZE" with
     | None | Some "" | Some "0" -> false
     | Some _ -> true)

let armed () = !armed_flag

(* --- registration ------------------------------------------------------- *)

(* Site and lock tables grow under their own private mutex; registration
   is a cold path (object construction), never a per-access one. The
   registry mutex is deliberately *not* instrumented — the detector must
   not observe itself. *)
let registry_mutex = Mutex.create ()

type site_info = { s_name : string; s_kind : site_kind }

let sites : site_info array ref = ref [||]
let n_sites = ref 0

let lock_names : string array ref = ref [||]
let n_locks = ref 0

(* Locksets are bitmasks in an OCaml int: at most 62 tracked locks.
   Registration dedups by name — a mutex re-registered under a name seen
   before (a fixture re-run, a second cache store with the same label)
   reuses the original bit instead of burning a fresh one, so a long
   multi-pass racecheck process cannot exhaust the bitmask through
   repetition alone. The price is that two *live* mutexes sharing a name
   alias to one tracked bit (labels embed the protected object's
   identity, so in practice only temporally disjoint objects collide).
   Past 62 distinct names, registrations return -1 and their critical
   sections go untracked — graceful degradation, loud in the summary's
   lock count. *)
let max_locks = 62

let push tbl count v =
  let n = !count in
  let cap = Array.length !tbl in
  if n >= cap then begin
    let bigger = Array.make (max 16 (2 * cap)) v in
    Array.blit !tbl 0 bigger 0 n;
    tbl := bigger
  end;
  !tbl.(n) <- v;
  count := n + 1;
  n

(* Linear scan: registration is a cold path and the tables are tiny. *)
let find_name tbl count name =
  let rec go i = if i >= !count then -1 else if !tbl.(i) = name then i else go (i + 1) in
  go 0

let site ~name kind =
  Mutex.protect registry_mutex (fun () ->
      push sites n_sites { s_name = name; s_kind = kind })

let lock ~name =
  Mutex.protect registry_mutex (fun () ->
      match find_name lock_names n_locks name with
      | i when i >= 0 -> i
      | _ -> if !n_locks >= max_locks then -1 else push lock_names n_locks name)

(* Happens-before tokens are pseudo-locks used only for their
   vector-clock transfer (see below): they never appear in a lockset, so
   they get their own id space — offset far above any lockset bit — and
   their own unbounded, name-dedup'd table. Tokens must not compete with
   real mutexes for the 62 bitmask slots: a workload that forks many
   times registers tokens freely without ever untracked-ing a mutex. *)
let token_base = 1 lsl 16

let token_names : string array ref = ref [||]
let n_tokens = ref 0

let lock_count () = !n_locks

let site_kind id =
  if id >= 0 && id < !n_sites then !sites.(id).s_kind else Shared

let lock_name id =
  if id >= 0 && id < !n_locks then !lock_names.(id)
  else if id >= token_base && id - token_base < !n_tokens then
    !token_names.(id - token_base)
  else "?"

let sites_snapshot () = Array.sub !sites 0 !n_sites

(* --- the event buffer --------------------------------------------------- *)

(* Flat int array, 4 slots per event. Each slot is written exactly once,
   by the domain that won the cursor for it; readers only look after the
   recording domains have quiesced (joined), which synchronizes. *)
let stride = 4
let default_cap = 65_536

let cap = ref default_cap
let buf = ref [||]
let cursor = Atomic.make 0
let dropped_count = Atomic.make 0

let ensure_buf () =
  if Array.length !buf < !cap * stride then buf := Array.make (!cap * stride) 0

let set_armed b =
  if b then ensure_buf ();
  armed_flag := b

let () = if !armed_flag then ensure_buf ()

let reset () =
  Atomic.set cursor 0;
  Atomic.set dropped_count 0

let dropped () = Atomic.get dropped_count
let recorded () = min (Atomic.get cursor) !cap

let op_code = function Read -> 0 | Write -> 1 | Acquire -> 2 | Release -> 3
let op_of_code = function 0 -> Read | 1 -> Write | 2 -> Acquire | _ -> Release

(* --- per-domain lockset ------------------------------------------------- *)

let lockset_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let locks_held () = Domain.DLS.get lockset_key

let record_raw ~site ~op ~locks =
  let i = Atomic.fetch_and_add cursor 1 in
  if i < !cap then begin
    let b = !buf and o = i * stride in
    Array.unsafe_set b o (op_code op);
    Array.unsafe_set b (o + 1) ((Domain.self () :> int));
    Array.unsafe_set b (o + 2) site;
    Array.unsafe_set b (o + 3) locks
  end
  else Atomic.incr dropped_count

let record ~site op =
  if !armed_flag && site >= 0 then
    record_raw ~site ~op ~locks:(Domain.DLS.get lockset_key)

(* [with_lock] is called *inside* the real critical section (after the
   Mutex.lock), so the Acquire event order reflects actual acquisition
   order and the lockset bit is honest for every access recorded while
   the lock is held. *)
let with_lock id f =
  if (not !armed_flag) || id < 0 then f ()
  else begin
    let prev = Domain.DLS.get lockset_key in
    let held = prev lor (1 lsl id) in
    Domain.DLS.set lockset_key held;
    record_raw ~site:id ~op:Acquire ~locks:held;
    Fun.protect
      ~finally:(fun () ->
        record_raw ~site:id ~op:Release ~locks:held;
        Domain.DLS.set lockset_key prev)
      f
  end

(* --- happens-before tokens ---------------------------------------------- *)

(* A token is a pseudo-lock used only for its vector-clock transfer:
   [hb_publish] behaves like a release (the publishing domain's history
   flows into the token), [hb_acquire] like an acquire (the token's
   history flows into the acquiring domain). Drivers bracket
   Domain.spawn/join with these so the detector sees the real fork/join
   edges instead of inventing races against initialization writes.
   Token ids live at [token_base] and up — disjoint from both lock ids
   and site ids, so the checker's per-id clocks never collide — and are
   dedup'd by name: a fixture's Nth fork reuses its first fork's token,
   which only strengthens the recorded ordering (the main domain's
   clock already covers the earlier rounds it joined). *)
let hb_token ~name =
  Mutex.protect registry_mutex (fun () ->
      match find_name token_names n_tokens name with
      | i when i >= 0 -> token_base + i
      | _ -> token_base + push token_names n_tokens name)

let hb_publish tok =
  if !armed_flag && tok >= 0 then
    record_raw ~site:tok ~op:Release ~locks:(Domain.DLS.get lockset_key)

let hb_acquire tok =
  if !armed_flag && tok >= 0 then
    record_raw ~site:tok ~op:Acquire ~locks:(Domain.DLS.get lockset_key)

(* --- decoding ----------------------------------------------------------- *)

let events () =
  let n = recorded () in
  let b = !buf in
  Array.init n (fun i ->
      let o = i * stride in
      {
        seq = i;
        op = op_of_code b.(o);
        domain = b.(o + 1);
        site = b.(o + 2);
        locks = b.(o + 3);
      })
