(* xoshiro256** by Blackman & Vigna (public domain reference), seeded via
   splitmix64 so that small integer seeds still produce well-mixed states.

   The four 64-bit state words live unboxed in a 32-byte buffer, read and
   written with the native-endian bytes primitives: a record of mutable
   [int64] fields would box a fresh word on every store. With [next]
   inlined, a draw such as [int] keeps every intermediate in registers
   and allocates nothing. *)

type t = Bytes.t

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let t = Bytes.create 32 in
  for w = 0 to 3 do
    set64u t (8 * w) (splitmix64 state)
  done;
  t

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] next t =
  let open Int64 in
  let s0 = get64u t 0 and s1 = get64u t 8 and s2 = get64u t 16 and s3 = get64u t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1' = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  set64u t 0 s0;
  set64u t 8 s1';
  set64u t 16 (logxor s2 (shift_left s1 17));
  set64u t 24 (rotl s3 45);
  result

let int64 t = next t

let split t =
  let seed = Int64.to_int (next t) land max_int in
  create seed

let int t n =
  assert (n > 0);
  (* Rejection-free for practical purposes: 63 uniform bits modulo n has
     negligible bias for the n (< 2^40) used in this repository. *)
  let v = Int64.to_int (next t) land max_int in
  v mod n

let float t =
  let v = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int v *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (next t) 1L = 1L

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t n k =
  let k = Int.min n k in
  if k <= 0 then [||]
  else if k * 3 >= n then begin
    (* Dense case: shuffle a full identity permutation and take a prefix.
       The draws of [shuffle], written out on an [int array]: the
       polymorphic [shuffle] checks each array access for a float array
       and shuffles 15-40% slower. *)
    let all = Array.init n (fun i -> i) in
    for i = n - 1 downto 1 do
      let j = int t (i + 1) in
      let tmp = all.(i) in
      all.(i) <- all.(j);
      all.(j) <- tmp
    done;
    let out = Array.sub all 0 k in
    Int_sort.sort out;
    out
  end
  else begin
    (* Floyd's algorithm: k iterations, set-membership via the unboxed
       open-addressing [Int_table]. *)
    let seen = Int_table.create ~capacity:(2 * k) () in
    for j = n - k to n - 1 do
      let r = int t (j + 1) in
      if Int_table.mem seen r then Int_table.add seen j
      else Int_table.add seen r
    done;
    let out = Array.make k 0 in
    let i = ref 0 in
    Int_table.iter (fun key _ -> out.(!i) <- key; incr i) seen;
    Int_sort.sort out;
    out
  end
