(** Deliberate concurrency bugs (and their fixed twins) for the RX5xx
    race detector.

    Every fixture arms the access log, runs a small real multi-domain
    workload (honest fork/join happens-before edges via hb tokens),
    restores the previous armed state, and returns the detector's
    diagnostics over that recording.

    The seeded race is the proof-of-teeth gate: [rox racecheck] refuses
    to bless a workload unless the detector flags it RX501. *)

val with_recording : (unit -> unit) -> Diagnostic.t list
(** Arm the access log, reset it, run [f], restore the previous armed
    state, and return {!Race_check.check} over the recording. The
    building block behind every fixture and the [rox racecheck]
    workload replay. *)

val fork_join : int -> (int -> unit) -> unit
(** [fork_join n work] spawns [n] domains running [work i] with honest
    fork/join happens-before edges (hb tokens around spawn and join), so
    the parent's setup writes do not read as races against the workers. *)

val seeded_race : ?domains:int -> ?iters:int -> unit -> Diagnostic.t list
(** Unguarded shared counter hammered by [domains] workers → RX501. *)

val guarded_counter : ?domains:int -> ?iters:int -> unit -> Diagnostic.t list
(** The same counter behind one mutex on every path → no diagnostics. *)

val split_locks : ?iters:int -> unit -> Diagnostic.t list
(** One site, two phases, two different mutexes → RX502 (discipline
    warning; fork/join ordering keeps it from being a manifest race). *)

val confined_leak : unit -> Diagnostic.t list
(** A confined (session-like) site touched from a second domain → RX504. *)

val all : (string * (unit -> Diagnostic.t list) * string * string list) list
(** (name, run, description, expected codes) — the [--fixture] menu. *)

val find :
  string -> (string * (unit -> Diagnostic.t list) * string * string list) option
