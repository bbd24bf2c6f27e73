open Rox_util
open Rox_shred
open Rox_storage

type inner_side =
  | Inner_text
  | Inner_attr of int

type inner_spec = {
  docref : Engine.docref;
  side : inner_side;
  restrict : Column.t option;
}

let inner_lookup inner value_id =
  match inner.side with
  | Inner_text -> Value_index.text_eq inner.docref.Engine.values value_id
  | Inner_attr name_id -> Value_index.attr_eq inner.docref.Engine.values ~name_id ~value_id

let iter_index_nl ?meter ~outer_doc ~outer ~inner f =
  Column.iteri
    (fun cidx onode ->
      Cost.charge meter 1;
      let v = Doc.value_id outer_doc onode in
      if v >= 0 then begin
        let bucket = inner_lookup inner v in
        match inner.restrict with
        | None ->
          Column.iter
            (fun inode ->
              Cost.charge meter 1;
              f cidx onode inode)
            bucket
        | Some table ->
          Column.iter
            (fun inode ->
              Cost.charge meter 1;
              if Column.mem table inode then f cidx onode inode)
            bucket
      end)
    outer

let iter_hash ?meter ~outer_doc ~outer ~inner_doc ~inner f =
  (* Build on the inner side — the paper's hash join costs |C| + |S| + |R|.
     The open-addressing multimap keeps keys and per-key chains unboxed. *)
  let table = Int_table.Multimap.create ~capacity:(Column.length inner) () in
  Column.iter
    (fun inode ->
      Cost.charge meter 1;
      let v = Doc.value_id inner_doc inode in
      if v >= 0 then Int_table.Multimap.add table v inode)
    inner;
  Column.iteri
    (fun cidx onode ->
      Cost.charge meter 1;
      let v = Doc.value_id outer_doc onode in
      if v >= 0 then
        Int_table.Multimap.iter_key table v (fun inode ->
            Cost.charge meter 1;
            f cidx onode inode))
    outer
