open Rox_util

type pre = int

type t = {
  mutable doc_id : int;
  uri : string;
  kinds : Bytes.t;
  names : int array;
  values : int array;
  sizes : int array;
  levels : int array;
  parents : int array;
  qname_pool : Str_pool.t;
  value_pool : Str_pool.t;
}

let id t = t.doc_id
let set_id t i = t.doc_id <- i
let uri t = t.uri
let node_count t = Bytes.length t.kinds
let kind t pre = Nodekind.of_int (Char.code (Bytes.get t.kinds pre))
let kind_code t pre = Char.code (Bytes.get t.kinds pre)
let name_id t pre = t.names.(pre)
let value_id t pre = t.values.(pre)
let size t pre = t.sizes.(pre)
let level t pre = t.levels.(pre)
let parent t pre = t.parents.(pre)
let qname_pool t = t.qname_pool
let value_pool t = t.value_pool

let name t pre =
  let id = t.names.(pre) in
  if id < 0 then "" else Str_pool.to_string t.qname_pool id

let value t pre =
  let id = t.values.(pre) in
  if id < 0 then "" else Str_pool.to_string t.value_pool id

let in_subtree t ~root pre = pre > root && pre <= root + t.sizes.(root)
let is_ancestor t ~anc pre = in_subtree t ~root:anc pre

module Builder = struct
  type builder = {
    b_uri : string;
    b_qnames : Str_pool.t;
    b_values : Str_pool.t;
    b_kinds : Buffer.t;
    b_names : Int_vec.t;
    b_values_col : Int_vec.t;
    b_sizes : Int_vec.t; (* patched on close *)
    b_levels : Int_vec.t;
    b_parents : Int_vec.t;
    mutable stack : int list; (* pre ranks of open elements, innermost first *)
    mutable in_tag : bool; (* attributes still allowed *)
  }

  let create ?(uri = "generated.xml") ~qnames ~values () =
    let b =
      {
        b_uri = uri;
        b_qnames = qnames;
        b_values = values;
        b_kinds = Buffer.create 4096;
        b_names = Int_vec.create ();
        b_values_col = Int_vec.create ();
        b_sizes = Int_vec.create ();
        b_levels = Int_vec.create ();
        b_parents = Int_vec.create ();
        stack = [];
        in_tag = false;
      }
    in
    (* Row 0: virtual document root. *)
    Buffer.add_char b.b_kinds (Char.chr (Nodekind.to_int Nodekind.Doc));
    Int_vec.push b.b_names (-1);
    Int_vec.push b.b_values_col (-1);
    Int_vec.push b.b_sizes 0;
    Int_vec.push b.b_levels 0;
    Int_vec.push b.b_parents (-1);
    b.stack <- [ 0 ];
    b

  let depth b = List.length b.stack - 1

  let add_row b ~kind ~name ~value =
    let pre = Buffer.length b.b_kinds in
    let parent = match b.stack with p :: _ -> p | [] -> invalid_arg "Doc.Builder: closed" in
    Buffer.add_char b.b_kinds (Char.chr (Nodekind.to_int kind));
    Int_vec.push b.b_names name;
    Int_vec.push b.b_values_col value;
    Int_vec.push b.b_sizes 0;
    Int_vec.push b.b_levels (depth b + 1);
    Int_vec.push b.b_parents parent;
    pre

  let open_element b tag =
    let name = Str_pool.intern b.b_qnames tag in
    let pre = add_row b ~kind:Nodekind.Elem ~name ~value:(-1) in
    b.stack <- pre :: b.stack;
    b.in_tag <- true

  let attribute b name value =
    if not b.in_tag then
      invalid_arg "Doc.Builder.attribute: attributes must precede element content";
    let name = Str_pool.intern b.b_qnames name in
    let value = Str_pool.intern b.b_values value in
    ignore (add_row b ~kind:Nodekind.Attr ~name ~value : int)

  let text b s =
    b.in_tag <- false;
    let value = Str_pool.intern b.b_values s in
    ignore (add_row b ~kind:Nodekind.Text ~name:(-1) ~value : int)

  let comment b s =
    b.in_tag <- false;
    let value = Str_pool.intern b.b_values s in
    ignore (add_row b ~kind:Nodekind.Comment ~name:(-1) ~value : int)

  let pi b target content =
    b.in_tag <- false;
    let name = Str_pool.intern b.b_qnames target in
    let value = Str_pool.intern b.b_values content in
    ignore (add_row b ~kind:Nodekind.Pi ~name ~value : int)

  let close_element b =
    b.in_tag <- false;
    match b.stack with
    | pre :: rest when pre <> 0 ->
      (* Subtree size = rows emitted since this element opened. *)
      Int_vec.set b.b_sizes pre (Buffer.length b.b_kinds - pre - 1);
      b.stack <- rest
    | _ -> invalid_arg "Doc.Builder.close_element: no open element"

  let finish b =
    (match b.stack with
     | [ 0 ] -> ()
     | _ -> invalid_arg "Doc.Builder.finish: unclosed elements");
    let total = Buffer.length b.b_kinds in
    if total < 2 then invalid_arg "Doc.Builder.finish: empty document";
    Int_vec.set b.b_sizes 0 (total - 1);
    {
      doc_id = -1;
      uri = b.b_uri;
      kinds = Buffer.to_bytes b.b_kinds;
      names = Int_vec.to_array b.b_names;
      values = Int_vec.to_array b.b_values_col;
      sizes = Int_vec.to_array b.b_sizes;
      levels = Int_vec.to_array b.b_levels;
      parents = Int_vec.to_array b.b_parents;
      qname_pool = b.b_qnames;
      value_pool = b.b_values;
    }
end

let of_tree ?uri ~qnames ~values tree =
  let open Rox_xmldom in
  let b = Builder.create ?uri ~qnames ~values () in
  let rec walk = function
    | Tree.Element e ->
      Builder.open_element b (Qname.to_string e.tag);
      List.iter
        (fun { Tree.name; value } -> Builder.attribute b (Qname.to_string name) value)
        e.attrs;
      List.iter walk e.children;
      Builder.close_element b
    | Tree.Text s -> Builder.text b s
    | Tree.Comment s -> Builder.comment b s
    | Tree.Pi (target, content) -> Builder.pi b target content
  in
  walk (Tree.Element tree.Tree.root);
  Builder.finish b
