(* Open-addressing int -> int hash table (linear probing, power-of-two
   capacity, Fibonacci mixing). No boxing, no polymorphic [Hashtbl.hash]:
   the workhorse behind the columnar join kernels and Floyd sampling.

   [min_int] is the empty-slot sentinel, so it cannot be a key — node
   identifiers, row indices and sample values are all non-negative. *)

let empty_key = min_int

(* 2^63 / phi, truncated to OCaml's 63-bit int range. *)
let fib = 0x2545F4914F6CDD1D

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable mask : int; (* capacity - 1, capacity a power of two *)
  mutable shift : int; (* Sys.int_size - log2 capacity *)
  mutable size : int;
}

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let rec pow2_at_least n c = if c >= n then c else pow2_at_least n (c * 2)

let create ?(capacity = 16) () =
  let cap = pow2_at_least (max 8 capacity) 8 in
  {
    keys = Array.make cap empty_key;
    vals = Array.make cap 0;
    mask = cap - 1;
    shift = Sys.int_size - log2 cap;
    size = 0;
  }

let length t = t.size

(* The home slot is the top bits of the product (Fibonacci hashing): its
   low bits depend only on the key's low bits, so keys that differ above
   the mask, like packed (name, value) pairs, would share one chain. *)
let slot_of keys mask shift key =
  (* [i] is below the capacity and stays masked, so the unsafe reads are
     in bounds. *)
  let i = ref ((key * fib) lsr shift) in
  while
    let k = Array.unsafe_get keys !i in
    k <> empty_key && k <> key
  do
    i := (!i + 1) land mask
  done;
  !i

let grow t =
  let cap = (t.mask + 1) * 2 in
  let keys = Array.make cap empty_key in
  let vals = Array.make cap 0 in
  let mask = cap - 1 in
  let shift = t.shift - 1 in
  for i = 0 to t.mask do
    let k = t.keys.(i) in
    if k <> empty_key then begin
      let j = slot_of keys mask shift k in
      keys.(j) <- k;
      vals.(j) <- t.vals.(i)
    end
  done;
  t.keys <- keys;
  t.vals <- vals;
  t.mask <- mask;
  t.shift <- shift

(* Keep load <= 1/2 so probe sequences stay short. *)
let ensure_room t = if 2 * (t.size + 1) > t.mask + 1 then grow t

let set t key v =
  if key = empty_key then invalid_arg "Int_table: min_int key";
  ensure_room t;
  let i = slot_of t.keys t.mask t.shift key in
  if t.keys.(i) = empty_key then begin
    t.keys.(i) <- key;
    t.size <- t.size + 1
  end;
  t.vals.(i) <- v

let find t key =
  let i = slot_of t.keys t.mask t.shift key in
  if t.keys.(i) = empty_key then None else Some t.vals.(i)

(* Allocation-free [find]: hot kernels probe once per row. *)
let find_default t key ~default =
  let i = slot_of t.keys t.mask t.shift key in
  if t.keys.(i) = empty_key then default else t.vals.(i)

let mem t key = t.keys.(slot_of t.keys t.mask t.shift key) <> empty_key

let add t key = set t key 0

(* Returns the existing value for [key], or inserts [default] and
   returns it — one probe for the find-or-create pattern. *)
let find_or_add t key ~default =
  if key = empty_key then invalid_arg "Int_table: min_int key";
  ensure_room t;
  let i = slot_of t.keys t.mask t.shift key in
  if t.keys.(i) = empty_key then begin
    t.keys.(i) <- key;
    t.vals.(i) <- default;
    t.size <- t.size + 1;
    default
  end
  else t.vals.(i)

let probe_length t key =
  let home = (key * fib) lsr t.shift in
  ((slot_of t.keys t.mask t.shift key - home) land t.mask) + 1

let iter f t =
  for i = 0 to t.mask do
    if t.keys.(i) <> empty_key then f t.keys.(i) t.vals.(i)
  done

(* Multimap over the same skeleton: key -> dense key id via the table,
   per-key chains stored as (vals, next) entry arrays with head/tail
   slots so each key's values replay in insertion order — the kernels
   depend on that to stay bit-identical to the naive row-major
   reference. *)
module Multimap = struct
  type nonrec t = {
    index : t; (* key -> dense key id *)
    heads : Int_vec.t; (* key id -> first entry, -1 if none *)
    tails : Int_vec.t; (* key id -> last entry *)
    entries : Int_vec.t; (* entry -> value *)
    next : Int_vec.t; (* entry -> next entry of same key, -1 at end *)
  }

  let create ?(capacity = 16) () =
    {
      index = create ~capacity ();
      heads = Int_vec.create ();
      tails = Int_vec.create ();
      entries = Int_vec.create ();
      next = Int_vec.create ();
    }

  let add t key v =
    let kid = find_or_add t.index key ~default:(Int_vec.length t.heads) in
    let entry = Int_vec.length t.entries in
    Int_vec.push t.entries v;
    Int_vec.push t.next (-1);
    if kid = Int_vec.length t.heads then begin
      Int_vec.push t.heads entry;
      Int_vec.push t.tails entry
    end
    else begin
      Int_vec.set t.next (Int_vec.get t.tails kid) entry;
      Int_vec.set t.tails kid entry
    end

  let keys t = length t.index

  let iter_key t key f =
    match find t.index key with
    | None -> ()
    | Some kid ->
      let e = ref (Int_vec.get t.heads kid) in
      while !e >= 0 do
        f (Int_vec.get t.entries !e);
        e := Int_vec.get t.next !e
      done

  let mem_pair t key v =
    match find t.index key with
    | None -> false
    | Some kid ->
      let e = ref (Int_vec.get t.heads kid) in
      let found = ref false in
      while (not !found) && !e >= 0 do
        if Int_vec.get t.entries !e = v then found := true
        else e := Int_vec.get t.next !e
      done;
      !found
end
