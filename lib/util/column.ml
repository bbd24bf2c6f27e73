(* Immutable int column: the unit of materialized storage.

   A column is a read-only view [off, off+len) into an int array that is
   promised never to mutate. Slicing and full-array reads are zero-copy;
   the [sorted] flag — *strictly increasing*, i.e. sorted and
   duplicate-free, the document-order contract of node sequences — is
   trusted by kernels and audited by the sanitizer (RX305). *)

type t = {
  data : int array;
  off : int;
  len : int;
  sorted : bool; (* strictly increasing over the view *)
}

let empty = { data = [||]; off = 0; len = 0; sorted = true }

let is_strictly_increasing_range arr off len =
  let rec go i = i >= off + len || (arr.(i - 1) < arr.(i) && go (i + 1)) in
  len <= 1 || go (off + 1)

let of_array arr =
  let data = Array.copy arr in
  let len = Array.length data in
  { data; off = 0; len; sorted = is_strictly_increasing_range data 0 len }

(* No copy and no scan: [arr] must never be mutated afterwards, and
   [sorted] is the caller's promise (checked only under ROX_SANITIZE). *)
let unsafe_of_array ~sorted arr =
  { data = arr; off = 0; len = Array.length arr; sorted }

(* No copy; detects the flag with one scan. *)
let unsafe_of_array_detect arr =
  let len = Array.length arr in
  { data = arr; off = 0; len; sorted = is_strictly_increasing_range arr 0 len }

let length t = t.len
let is_empty t = t.len = 0
let sorted t = t.sorted
let get t i = t.data.(t.off + i)

let slice t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Column.slice";
  { t with off = t.off + pos; len }

let to_array t = Array.sub t.data t.off t.len

(* Zero-copy when the view covers its whole storage (the common case);
   callers must not mutate the result. *)
let read t =
  if t.off = 0 && t.len = Array.length t.data then t.data else to_array t

let iter f t =
  for i = t.off to t.off + t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(t.off + i)
  done

let fold_left f acc t =
  let acc = ref acc in
  for i = t.off to t.off + t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let equal a b =
  a.len = b.len
  &&
  let rec go i = i >= a.len || (a.data.(a.off + i) = b.data.(b.off + i) && go (i + 1)) in
  go 0

let same_storage a b = a.data == b.data

(* Bytes of the *underlying* storage — shared storage should be counted
   once by callers that account for memory (see Rox_cache). *)
let storage_bytes t = 8 * Array.length t.data

let mem t x =
  if t.sorted then begin
    (* binary search over the view *)
    let lo = ref t.off and hi = ref (t.off + t.len) in
    let found = ref false in
    while (not !found) && !lo < !hi do
      let mid = !lo + ((!hi - !lo) / 2) in
      let v = t.data.(mid) in
      if v = x then found := true else if v < x then lo := mid + 1 else hi := mid
    done;
    !found
  end
  else
    let rec go i = i < t.off + t.len && (t.data.(i) = x || go (i + 1)) in
    go t.off

(* Honesty audit for the trusted flag: true iff the flag matches reality
   in the strict direction that kernels rely on (a set flag over an
   unsorted view is the lie; an unset flag is merely conservative). *)
let flag_honest t =
  (not t.sorted) || is_strictly_increasing_range t.data t.off t.len

(* Sorted duplicate-free copy of the values (zero-copy when the flag
   says the work is already done). *)
let sorted_dedup t =
  if t.sorted then t
  else begin
    let arr = to_array t in
    Int_sort.sort arr;
    let n = Array.length arr in
    if n = 0 then empty
    else begin
      let w = ref 1 in
      for i = 1 to n - 1 do
        if arr.(i) <> arr.(!w - 1) then begin
          arr.(!w) <- arr.(i);
          incr w
        end
      done;
      if !w = n then { data = arr; off = 0; len = n; sorted = true }
      else { data = Array.sub arr 0 !w; off = 0; len = !w; sorted = true }
    end
  end

(* [table] ⋉ [t]: the entries of the strictly increasing [table] that occur
   in [t], in table order — mark [t]'s values, then walk [table] keeping
   and clearing the marked entries. O(|t| + |table|), no sort, strictly
   increasing by construction; [table] itself when nothing is dropped.
   The output array is only allocated at the first dropped entry. *)
let semijoin ~marks table t =
  if not table.sorted then invalid_arg "Column.semijoin: table not strictly increasing";
  let nm = Bytes.length marks in
  let in_range x = x >= 0 && x < nm in
  let marked = ref 0 in
  for i = t.off to t.off + t.len - 1 do
    let x = t.data.(i) in
    if in_range x && Bytes.unsafe_get marks x = '\000' then begin
      Bytes.unsafe_set marks x '\001';
      incr marked
    end
  done;
  (* Distinct table entries each consume a distinct mark: at most [marked]
     survive. *)
  let out = ref [||] and kept = ref 0 in
  for i = 0 to table.len - 1 do
    let x = table.data.(table.off + i) in
    if in_range x && Bytes.unsafe_get marks x <> '\000' then begin
      Bytes.unsafe_set marks x '\000';
      if !kept < i then !out.(!kept) <- x;
      incr kept
    end
    else if !kept = i then begin
      out := Array.make !marked 0;
      Array.blit table.data table.off !out 0 i
    end
  done;
  (* Values of [t] outside [table] keep their marks: clear them so the
     scratch buffer is all zero again. *)
  if !kept < !marked then
    iter (fun x -> if in_range x then Bytes.unsafe_set marks x '\000') t;
  if !kept = table.len then table
  else
    let data = if !kept = Array.length !out then !out else Array.sub !out 0 !kept in
    { data; off = 0; len = !kept; sorted = true }

let pp ppf t =
  Format.fprintf ppf "[%s|%d%s]"
    (String.concat ";"
       (List.map string_of_int
          (Array.to_list (Array.sub t.data t.off (min t.len 8)))))
    t.len
    (if t.sorted then "s" else "")
