type annot =
  | Root
  | Element of string
  | Text of Rox_algebra.Selection.t option
  | Attr of string * Rox_algebra.Selection.t option

type t = { id : int; doc_id : int; annot : annot }

let label t =
  match t.annot with
  | Root -> "root"
  | Element q -> q
  | Text None -> "text()"
  | Text (Some pred) -> "text() " ^ Rox_algebra.Selection.to_string pred
  | Attr (q, None) -> "@" ^ q
  | Attr (q, Some pred) -> "@" ^ q ^ " " ^ Rox_algebra.Selection.to_string pred

(* Graph-independent identity for cache fingerprints: two vertices with
   equal keys denote the same base node set, whatever their graph ids. *)
let fingerprint_label t = Printf.sprintf "d%d:%s" t.doc_id (label t)

let is_root t = match t.annot with Root -> true | _ -> false

let predicate t =
  match t.annot with
  | Text pred | Attr (_, pred) -> pred
  | Root | Element _ -> None

let equality_value t =
  match predicate t with
  | Some (Rox_algebra.Selection.Eq v) -> Some v
  | Some _ | None -> None
