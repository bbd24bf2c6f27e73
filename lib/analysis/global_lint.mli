(** Static mutable-global lint (RX510/RX511) — the [rox lint] engine.

    Scans OCaml sources (no compiler dependency: a line-oriented lexical
    pass with comments and string literals stripped) for the two shapes
    of shared mutable state the multi-domain engine must account for:

    - {b globals}: column-zero [let] {e value} bindings whose right-hand
      side creates mutable state — [ref], [Atomic.make], [Mutex.create],
      [Condition.create], [Domain.DLS.new_key], [Hashtbl.create],
      [Buffer.create], [Queue.create], [Stack.create], [Bytes.create],
      [Array.make]/[init], or an array literal. Function bindings are
      skipped: state created per call is not global.
    - {b fields}: [mutable] record fields at any nesting depth, named
      [type.field] after the innermost enclosing [type]/[and].

    Each finding is matched against {!Capability.allowlist}. An
    unmatched binding is RX510 (error); an allowlist entry with an empty
    guard is RX510 on the entry; an entry matching no binding is RX511
    (warning) so the allowlist cannot outlive the code it excuses.

    The scanner is deliberately a heuristic: it over-approximates
    (arrays used as read-only lookup tables still need an entry saying
    so) and under-approximates (mutable state smuggled through
    non-column-zero module bodies is out of scope). The point is the
    ratchet — new top-level state fails CI until its guard is written
    down. *)

type kind = Capability.kind = Global | Field

type binding = {
  gb_file : string;  (** path as given to the scanner, e.g. [lib/x/y.ml] *)
  gb_line : int;     (** 1-based line of the [let] / [mutable] keyword *)
  gb_kind : kind;
  gb_name : string;  (** global name, or [type.field] for fields *)
  gb_what : string;  (** the creation pattern that matched, e.g. ["ref"] *)
}

val strip : string -> string
(** Source text with comments (nested) and string/char literals blanked
    to spaces — same length, same line structure. Exposed for tests. *)

val scan_source : file:string -> string -> binding list
(** Scan one file's contents. [file] is used verbatim in findings. *)

val scan_root : string -> binding list
(** Recursively scan every [.ml] file under a directory, in sorted
    order. Findings are named relative to the root's parent
    ([lib/util/x.ml] whether invoked as [lib] or [../lib]) so they match
    {!Capability.allowlist} from any working directory. *)

val check : binding list -> Diagnostic.t list
(** Match bindings against {!Capability.allowlist}: RX510 for each
    undocumented binding and each empty-guard entry, RX511 for each
    stale entry. Errors first. *)

val run : root:string -> Report.t
(** [scan_root] + [check], packaged as a report with subject
    ["lint:" ^ root]. *)
