(** Shared-access event log for the RX5xx concurrency-soundness checks.

    Instrumented sites (the cache store, the server's queue and ledger,
    the flight recorder, session confinement) append one event per touch
    of cross-domain mutable state: domain id, site id, read/write and the
    locks the domain held. {!Rox_analysis.Race_check} replays the log
    with Eraser locksets and vector-clock happens-before.

    Overhead contract: disarmed, an instrumented site costs one boolean
    test ({!armed}) — no atomics, no allocation. Armed, one
    [Atomic.fetch_and_add] plus four stores into a preallocated bounded
    buffer; events past the cap are counted in {!dropped}, never grown.

    The log is process-global by design — it is the one observer that
    must see *every* domain — and is armed either by [ROX_SANITIZE=1] at
    startup or explicitly ({!set_armed}) before domains spawn. *)

type site_kind =
  | Shared    (** plain cross-domain mutable state; races are RX501/RX502 *)
  | Confined  (** single-owner state; any second domain is RX504 *)

type op = Read | Write | Acquire | Release

type event = {
  seq : int;      (** index in global recording order *)
  domain : int;   (** [(Domain.self () :> int)] of the recording domain *)
  site : int;     (** site id for [Read]/[Write]; lock id for [Acquire]/[Release] *)
  op : op;
  locks : int;    (** bitmask of lock ids held by the recording domain *)
}

val armed : unit -> bool
(** The one test every instrumented site performs first. *)

val set_armed : bool -> unit
(** Arm or disarm; arming allocates the event buffer. Flip only while
    single-domained (before spawning workers). *)

val site : name:string -> site_kind -> int
(** Register one instrumented site (per shared *object*, not per source
    location — two private stores must not alias). Cold path, thread-safe. *)

val lock : name:string -> int
(** Register one tracked lock. Dedup'd by name: re-registering a name
    returns the original id (so repeated fixture runs or re-created
    same-labelled objects don't burn bitmask slots — label locks per
    protected object to keep live mutexes from aliasing). Locksets are
    bitmasks: at most 62 distinct names are tracked; later registrations
    return [-1] and go untracked. *)

val record : site:int -> op -> unit
(** Append one [Read]/[Write] event with the domain's current lockset.
    No-op when disarmed or [site < 0]. *)

val with_lock : int -> (unit -> 'a) -> 'a
(** Mark a critical section: sets the lock's bit in the domain lockset
    and records [Acquire]/[Release] events. Call *inside* the real mutex
    so the recorded order reflects actual acquisition order. No-op
    (beyond running the thunk) when disarmed or the id is [-1]. *)

val locks_held : unit -> int
(** This domain's current lockset bitmask. *)

val hb_token : name:string -> int
(** A pseudo-lock used only for happens-before transfer. Tokens live in
    their own unbounded, name-dedup'd id space (disjoint from lock and
    site ids) and never occupy a lockset bit — fork-heavy workloads
    cannot exhaust the 62 tracked-mutex slots through tokens. *)

val hb_publish : int -> unit
(** Release-like: the caller's history flows into the token. Bracket the
    parent side of [Domain.spawn] / the child side before exit. *)

val hb_acquire : int -> unit
(** Acquire-like: the token's history flows into the caller. Bracket the
    child's entry / the parent side after [Domain.join]. *)

val reset : unit -> unit
(** Clear events and the dropped counter; registrations survive (they are
    tied to live objects). Call while single-domained. *)

val events : unit -> event array
(** Decode the recorded events in order. Call after all recording domains
    joined — the join synchronizes the buffer. *)

val dropped : unit -> int
val recorded : unit -> int

val lock_count : unit -> int
val site_kind : int -> site_kind
val lock_name : int -> string

type site_info = { s_name : string; s_kind : site_kind }

val sites_snapshot : unit -> site_info array
(** The registered sites, indexed by site id — what the checker pairs
    with {!events}. *)
