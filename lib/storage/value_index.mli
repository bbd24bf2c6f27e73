(** Value index over text and attribute nodes.

    Models MonetDB/XQuery's ordered (val, qelt, qattr, pre) store of Section
    2.2 with two access paths:

    - a hash path for equality lookups ([Dtext(v)] and [Dattr(v, qelt,
      qattr)]) — matching "the released version of MonetDB that supports a
      hash-based index for string equality lookups"; keys are single ints
      in an open-addressing table, so a probe allocates nothing;
    - an ordered numeric path for range selections (the [current < 145]
      predicates of the XMark queries), playing the role of the B-tree.

    Counts of qualifying nodes are available without materializing the
    result, and every result sequence is duplicate-free, sorted on pre.
    Unlike the paper's [Dattr], attribute lookups here return the attribute
    nodes themselves; the owner element is one O(1) [parent] hop away.

    A text node is numeric when its value parses with [float_of_string]
    to anything but NaN: ["nan"] is never numeric, so no range selects it
    (just as no comparison with NaN holds), while ["inf"], ["-0"] and
    ["1e2"] are. A NaN bound selects nothing. *)

type t

val build : Rox_shred.Doc.t -> t
(** Attribute lookups key on the (name, value) id pair packed into one
    int, so both ids must fit in 31 bits.
    @raise Invalid_argument on an attribute whose ids do not. *)

val text_eq : t -> int -> Rox_util.Column.t
(** [text_eq idx value_id]: text nodes whose value equals the interned
    value — shared sorted column (zero-copy, [sorted] flag set). *)

val text_eq_count : t -> int -> int

val attr_eq : t -> name_id:int -> value_id:int -> Rox_util.Column.t
(** Attribute nodes with a given name and value. *)

val attr_eq_count : t -> name_id:int -> value_id:int -> int

val attr_eq_any_name : t -> value_id:int -> Rox_util.Column.t
(** Attribute nodes with a given value, any attribute name — used by value
    equi-joins whose attribute name is fixed per vertex anyway. *)

val text_range : t -> ?lo:float -> ?hi:float -> unit -> Rox_util.Column.t
(** Text nodes whose value parses as a number within [lo, hi] (inclusive;
    bounds optional). Result is freshly allocated, sorted on pre: one scan
    of the numeric nodes kept in pre order, no sort. *)

val text_range_count : t -> ?lo:float -> ?hi:float -> unit -> int
(** [Column.length (text_range t ?lo ?hi ())] by binary search over the
    sorted values, without materializing. *)

val numeric_text_count : t -> int
(** How many text nodes have numeric values at all. *)
