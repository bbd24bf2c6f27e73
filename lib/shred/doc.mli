(** Shredded XML document: the pre/size/level columnar encoding.

    Every XML node of a document occupies one row, identified by its [pre]
    rank — the order of opening tags in the document (MonetDB/XQuery's
    range-based encoding, Section 2.2 of the paper). Row 0 is the virtual
    document root (kind [Doc]); attribute nodes are ranked immediately after
    their owner element (before its content) and counted in its subtree
    [size], so the containment test [c.pre < s.pre <= c.pre + size(c)]
    uniformly covers all axes.

    Qualified names and values are interned in two {!Rox_util.Str_pool}s
    supplied at build time. Sharing one value pool across documents makes
    cross-document equi-joins integer comparisons. *)

type t

type pre = int
(** Node identifier: row index in this document. *)

val id : t -> int
(** Engine-assigned document id (position in the engine's registry; -1 for a
    document not yet registered). *)

val set_id : t -> int -> unit
val uri : t -> string
val node_count : t -> int

val kind : t -> pre -> Nodekind.t

val kind_code : t -> pre -> int
(** [Nodekind.to_int (kind t pre)] without decoding: the stored code. *)

val name_id : t -> pre -> int
(** Interned qname of an element / attribute (target for a PI); -1 for
    kinds without a name. *)

val value_id : t -> pre -> int
(** Interned value of a text or attribute node (content for comment / PI);
    -1 for elements and the doc root. *)

val size : t -> pre -> int
(** Subtree size, excluding the node itself. *)

val level : t -> pre -> int
(** Depth; 0 for the virtual root. *)

val parent : t -> pre -> pre
(** -1 for the virtual root. *)

val qname_pool : t -> Rox_util.Str_pool.t
val value_pool : t -> Rox_util.Str_pool.t

val name : t -> pre -> string
(** Convenience: resolved qname string; "" when nameless. *)

val value : t -> pre -> string
(** Convenience: resolved value string; "" when valueless. *)

val in_subtree : t -> root:pre -> pre -> bool
(** Containment: is the node inside (strictly below) [root]? *)

val is_ancestor : t -> anc:pre -> pre -> bool
(** Same as [in_subtree ~root:anc] — ancestor along the parent chain. *)

(** {1 Construction} *)

module Builder : sig
  (** Streaming construction in document order. Generators shred directly
      through this interface without materializing a {!Rox_xmldom.Tree.t}. *)

  type builder

  val create :
    ?uri:string ->
    qnames:Rox_util.Str_pool.t ->
    values:Rox_util.Str_pool.t ->
    unit ->
    builder

  val open_element : builder -> string -> unit
  val attribute : builder -> string -> string -> unit
  (** Only valid directly after {!open_element} / other attributes, before
      any content — document order. *)

  val text : builder -> string -> unit
  val comment : builder -> string -> unit
  val pi : builder -> string -> string -> unit
  val close_element : builder -> unit
  val finish : builder -> t
  (** @raise Invalid_argument if elements remain open or none was added. *)
end

val of_tree :
  ?uri:string ->
  qnames:Rox_util.Str_pool.t ->
  values:Rox_util.Str_pool.t ->
  Rox_xmldom.Tree.t ->
  t
