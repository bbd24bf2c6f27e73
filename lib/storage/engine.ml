open Rox_util
open Rox_shred

type docref = {
  doc : Doc.t;
  elements : Element_index.t;
  kinds : Kind_index.t;
  values : Value_index.t;
}

type t = {
  qname_pool : Str_pool.t;
  value_pool : Str_pool.t;
  mutable docs : docref array;
  mutable ndocs : int;
  by_uri : (string, int) Hashtbl.t;
}

let create () =
  {
    qname_pool = Str_pool.create ();
    value_pool = Str_pool.create ();
    docs = [||];
    ndocs = 0;
    by_uri = Hashtbl.create 16;
  }

let qnames t = t.qname_pool
let values t = t.value_pool

let register t doc =
  let r =
    {
      doc;
      elements = Element_index.build doc;
      kinds = Kind_index.build doc;
      values = Value_index.build doc;
    }
  in
  if t.ndocs >= Array.length t.docs then begin
    let cap = max 4 (2 * Array.length t.docs) in
    let bigger = Array.make cap r in
    Array.blit t.docs 0 bigger 0 t.ndocs;
    t.docs <- bigger
  end;
  Doc.set_id doc t.ndocs;
  t.docs.(t.ndocs) <- r;
  Hashtbl.replace t.by_uri (Doc.uri doc) t.ndocs;
  t.ndocs <- t.ndocs + 1;
  r

let add_doc t doc = register t doc

let add_tree t ?uri tree =
  let doc = Doc.of_tree ?uri ~qnames:t.qname_pool ~values:t.value_pool tree in
  register t doc

let doc_count t = t.ndocs

let get t i =
  if i < 0 || i >= t.ndocs then invalid_arg "Engine.get: unknown document id";
  t.docs.(i)

let find_uri t uri =
  match Hashtbl.find_opt t.by_uri uri with
  | Some i -> Some t.docs.(i)
  | None -> None

let qname_id t s = Str_pool.find t.qname_pool s
let value_id t s = Str_pool.find t.value_pool s
