(** Multi-document execution context.

    An engine owns the global qname and value pools (so equi-joins across
    documents compare interned integers — the DBLP query joins author text
    across four documents) and, per registered document, the element, kind
    and value indices, built eagerly at registration like MonetDB/XQuery
    builds its indices at shred time. *)

type t

type docref = {
  doc : Rox_shred.Doc.t;
  elements : Element_index.t;
  kinds : Kind_index.t;
  values : Value_index.t;
}

val create : unit -> t
val qnames : t -> Rox_util.Str_pool.t
val values : t -> Rox_util.Str_pool.t

val add_tree : t -> ?uri:string -> Rox_xmldom.Tree.t -> docref
(** Shred, index and register a tree; the document id is its registration
    order. Registration only appends: a registered document, its id and
    its indices never change afterwards, which is what lets [Rox_cache]
    keys name documents by id. Register every document before the first
    query runs — the engine is not synchronized against concurrent
    readers. *)

val add_doc : t -> Rox_shred.Doc.t -> docref
(** Index and register an already-shredded document (it must have been
    shredded against this engine's pools). *)

val doc_count : t -> int
val get : t -> int -> docref
(** By document id. @raise Invalid_argument for an unknown id. *)

val find_uri : t -> string -> docref option
val qname_id : t -> string -> int option
val value_id : t -> string -> int option
