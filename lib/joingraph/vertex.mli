(** Join Graph vertices (Definition 1 of the paper).

    A vertex denotes a relation of XML nodes of one document: the document
    root, the elements with a qualified name, the text nodes (optionally
    under a range-selection predicate), or the attribute nodes of a given
    name (ditto). *)

type annot =
  | Root
  | Element of string                                    (** qualified name *)
  | Text of Rox_algebra.Selection.t option
  | Attr of string * Rox_algebra.Selection.t option      (** attribute name *)

type t = {
  id : int;        (** dense id within its graph *)
  doc_id : int;    (** engine document the node set lives in *)
  annot : annot;
}

val label : t -> string
(** Display label in the paper's style: "open_auction", "text() < 145",
    "@person", "root". *)

val fingerprint_label : t -> string
(** Graph-independent identity for cache fingerprints: document id plus
    annotation label, without the per-graph vertex id — so the same base
    node set fingerprints identically across queries. *)

val is_root : t -> bool

val predicate : t -> Rox_algebra.Selection.t option

val equality_value : t -> string option
(** [Some v] when the vertex is a text or attribute node with an equality
    predicate ["= v"] — the vertices Algorithm 1 may initialize from the
    value index. *)
