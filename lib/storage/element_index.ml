open Rox_util
open Rox_shred

type t = {
  doc : Doc.t;
  by_name : (int, Column.t) Hashtbl.t;
  attrs_by_name : (int, Column.t) Hashtbl.t;
}

let build doc =
  let acc : (int, Int_vec.t) Hashtbl.t = Hashtbl.create 64 in
  let attr_acc : (int, Int_vec.t) Hashtbl.t = Hashtbl.create 64 in
  let push tbl name pre =
    let vec =
      match Hashtbl.find_opt tbl name with
      | Some v -> v
      | None ->
        let v = Int_vec.create () in
        Hashtbl.replace tbl name v;
        v
    in
    Int_vec.push vec pre
  in
  for pre = 0 to Doc.node_count doc - 1 do
    match Doc.kind doc pre with
    | Nodekind.Elem -> push acc (Doc.name_id doc pre) pre
    | Nodekind.Attr -> push attr_acc (Doc.name_id doc pre) pre
    | Nodekind.Doc | Nodekind.Text | Nodekind.Comment | Nodekind.Pi -> ()
  done;
  (* Rows were visited in pre order, so each vector is already sorted. *)
  let freeze acc =
    let out = Hashtbl.create (Hashtbl.length acc) in
    Hashtbl.iter
      (fun name vec ->
        Hashtbl.replace out name
          (Column.unsafe_of_array ~sorted:true (Int_vec.to_array vec)))
      acc;
    out
  in
  { doc; by_name = freeze acc; attrs_by_name = freeze attr_acc }

let find_or_empty tbl key =
  match Hashtbl.find_opt tbl key with Some a -> a | None -> Column.empty

let lookup t name_id = find_or_empty t.by_name name_id

let lookup_name t name =
  match Str_pool.find (Doc.qname_pool t.doc) name with
  | Some id -> lookup t id
  | None -> Column.empty

let count t name_id = Column.length (lookup t name_id)

let names t =
  let out = Int_vec.create () in
  Hashtbl.iter (fun name _ -> Int_vec.push out name) t.by_name;
  let arr = Int_vec.to_array out in
  Int_sort.sort arr;
  arr

let lookup_attr t name_id = find_or_empty t.attrs_by_name name_id

let lookup_attr_name t name =
  match Str_pool.find (Doc.qname_pool t.doc) name with
  | Some id -> lookup_attr t id
  | None -> Column.empty

let count_attr t name_id = Column.length (lookup_attr t name_id)
