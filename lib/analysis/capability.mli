(** The mutable-state capability allowlist behind [rox lint] (RX510/RX511).

    Every top-level mutable binding ([ref], [Atomic.t], mutexes, DLS
    keys, arrays, growable tables) and every [mutable] record field under
    [lib/] must either be process-private by construction or carry an
    explicit entry here stating which discipline guards it. The lint
    ({!Global_lint}) scans the sources, matches what it finds against this
    list, and fails on any mutable state that is not documented (RX510) —
    so adding shared state to the engine forces the author to write down,
    in this file, why it is safe under multi-domain execution. A guard
    that begins ["mutex:"] claims the state lives in a
    {!Rox_util.Guarded.t}; the lint fails it (RX510) unless its file
    calls [Guarded.create].

    Entries are matched by relative file path, binding kind, and name.
    The name is exact, or a wildcard of the form ["t.*"] / ["*"] covering
    every field of one record (one guard sentence for the whole record).
    An entry that matches nothing is itself reported (RX511) so the list
    cannot rot. *)

type kind =
  | Global  (** a top-level [let] binding creating mutable state *)
  | Field   (** a [mutable] record field, named [type.field] *)

type entry = {
  cap_file : string;  (** path relative to the scan root's parent, e.g.
                          ["lib/util/int_vec.ml"] *)
  cap_kind : kind;
  cap_name : string;  (** exact name, or a ["prefix.*"] / ["*"] wildcard *)
  cap_guard : string; (** the documented discipline that makes it safe;
                          must be non-empty or the entry fails the lint *)
}

val kind_string : kind -> string

val allowlist : entry list
(** Every mutable global and mutable field currently sanctioned under
    [lib/], each with its guard. Kept sorted by file. *)

val name_matches : pattern:string -> string -> bool
(** [name_matches ~pattern name] — exact match, or prefix match when
    [pattern] ends in [".*"] (["t.*"] matches ["t.bytes"]), or ["*"]
    matching everything. *)

val find : file:string -> kind:kind -> name:string -> entry option
(** First allowlist entry covering the given binding, if any. *)
