open Rox_util
open Rox_shred

(* Equality buckets keyed by one int: [slots] maps a key to its column's
   index in [cols]. A probe is one open-addressing lookup and one array
   read — no boxed key, no polymorphic hash, no option. *)
type buckets = { slots : Int_table.t; cols : Column.t array }

type t = {
  text_by_value : buckets;
  attr_by_name_value : buckets; (* key: [attr_key ~name_id ~value_id] *)
  attr_by_value : buckets;
  (* Numeric access paths over the text nodes whose value parses as a
     number other than NaN: the values sorted, for range counts by binary
     search, and the nodes in pre order with their values alongside, for
     range lookups by one filtering scan that needs no sort. *)
  num_values : float array;
  num_pre : int array;
  num_pre_values : float array; (* parallel to [num_pre] *)
}

(* The build checks that attribute name and value ids fit in 31 bits, so
   each stored pair packs into a distinct non-negative int. A probe with a
   negative id (a node without a value) packs to a negative key that
   matches nothing. *)
let id_bits = 31
let fits id = id >= 0 && id < 1 lsl id_bits
let attr_key ~name_id ~value_id = (name_id lsl id_bits) lor value_id

(* Build-time buckets: the key's slot, and per slot a vector of pres. *)
let bucket_acc () = (Int_table.create (), ref [||])

let push (slots, vecs) key pre =
  let used = Int_table.length slots in
  let slot = Int_table.find_or_add slots key ~default:used in
  if slot = used then begin
    if used = Array.length !vecs then begin
      let grown = Array.make (Int.max 64 (2 * used)) (Int_vec.create ~capacity:0 ()) in
      Array.blit !vecs 0 grown 0 used;
      vecs := grown
    end;
    !vecs.(slot) <- Int_vec.create ~capacity:2 ()
  end;
  Int_vec.push !vecs.(slot) pre

(* Buckets were filled in pre order: already sorted and duplicate-free. *)
let freeze (slots, vecs) =
  {
    slots;
    cols =
      Array.init (Int_table.length slots) (fun i ->
          Column.unsafe_of_array ~sorted:true (Int_vec.to_array !vecs.(i)));
  }

let build doc =
  let text_acc = bucket_acc () in
  let attr_nv_acc = bucket_acc () in
  let attr_v_acc = bucket_acc () in
  let num_pre = Int_vec.create () in
  let nums = ref [] in
  for pre = 1 to Doc.node_count doc - 1 do
    match Doc.kind doc pre with
    | Nodekind.Text ->
      let v = Doc.value_id doc pre in
      push text_acc v pre;
      (* [float_of_string_opt] accepts "nan", but no comparison selects
         NaN, and indexing it would break the sorted-value binary search. *)
      (match float_of_string_opt (Doc.value doc pre) with
       | Some f when not (Float.is_nan f) ->
         Int_vec.push num_pre pre;
         nums := f :: !nums
       | Some _ | None -> ())
    | Nodekind.Attr ->
      let v = Doc.value_id doc pre in
      let n = Doc.name_id doc pre in
      if not (fits n && fits v) then
        invalid_arg
          (Printf.sprintf "Value_index.build: attribute ids (%d, %d) exceed %d bits" n v
             id_bits);
      push attr_nv_acc (attr_key ~name_id:n ~value_id:v) pre;
      push attr_v_acc v pre
    | Nodekind.Doc | Nodekind.Elem | Nodekind.Comment | Nodekind.Pi -> ()
  done;
  let num_pre_values = Array.of_list (List.rev !nums) in
  let num_values = Array.copy num_pre_values in
  Array.sort Float.compare num_values;
  {
    text_by_value = freeze text_acc;
    attr_by_name_value = freeze attr_nv_acc;
    attr_by_value = freeze attr_v_acc;
    num_values;
    num_pre = Int_vec.to_array num_pre;
    num_pre_values;
  }

let find_or_empty b key =
  let slot = Int_table.find_default b.slots key ~default:(-1) in
  if slot < 0 then Column.empty else b.cols.(slot)

let text_eq t value_id = find_or_empty t.text_by_value value_id
let text_eq_count t value_id = Column.length (text_eq t value_id)
let attr_eq t ~name_id ~value_id =
  find_or_empty t.attr_by_name_value (attr_key ~name_id ~value_id)

let attr_eq_count t ~name_id ~value_id = Column.length (attr_eq t ~name_id ~value_id)
let attr_eq_any_name t ~value_id = find_or_empty t.attr_by_value value_id

(* Boundary indices in the value-sorted array for [lo, hi]. *)
let range_bounds t ?lo ?hi () =
  let n = Array.length t.num_values in
  let start =
    match lo with
    | None -> 0
    | Some lo ->
      let lo_idx = ref 0 and hi_idx = ref n in
      while !lo_idx < !hi_idx do
        let mid = (!lo_idx + !hi_idx) / 2 in
        if t.num_values.(mid) < lo then lo_idx := mid + 1 else hi_idx := mid
      done;
      !lo_idx
  in
  let stop =
    match hi with
    | None -> n
    | Some hi ->
      let lo_idx = ref 0 and hi_idx = ref n in
      while !lo_idx < !hi_idx do
        let mid = (!lo_idx + !hi_idx) / 2 in
        if t.num_values.(mid) <= hi then lo_idx := mid + 1 else hi_idx := mid
      done;
      !lo_idx
  in
  (start, stop)

let is_nan_bound = function Some b -> Float.is_nan b | None -> false

(* A NaN bound selects nothing, as in every comparison. *)
let text_range_count t ?lo ?hi () =
  if is_nan_bound lo || is_nan_bound hi then 0
  else
    let start, stop = range_bounds t ?lo ?hi () in
    Int.max 0 (stop - start)

(* One scan of the pre-ordered numeric nodes: the result comes out sorted
   on pre, into an array sized by the count — the same selection, since no
   NaN is indexed and a NaN bound selects nothing either way. *)
let text_range t ?lo ?hi () =
  let out = Array.make (text_range_count t ?lo ?hi ()) 0 in
  let lo = Option.value lo ~default:Float.neg_infinity in
  let hi = Option.value hi ~default:Float.infinity in
  let values = t.num_pre_values and k = ref 0 in
  for i = 0 to Array.length values - 1 do
    let v = values.(i) in
    if lo <= v && v <= hi then begin
      out.(!k) <- t.num_pre.(i);
      incr k
    end
  done;
  Column.unsafe_of_array ~sorted:true out

let numeric_text_count t = Array.length t.num_values
