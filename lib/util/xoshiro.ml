(* xoshiro256** by Blackman & Vigna (public domain reference), seeded via
   splitmix64 so that small integer seeds still produce well-mixed states. *)

type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  { s0; s1; s2; s3 }

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let int64 t =
  let open Int64 in
  let result = mul (rotl (mul t.s1 5L) 7) 9L in
  let tt = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tt;
  t.s3 <- rotl t.s3 45;
  result

let split t =
  let seed = Int64.to_int (int64 t) land max_int in
  create seed

let int t n =
  assert (n > 0);
  (* Rejection-free for practical purposes: 63 uniform bits modulo n has
     negligible bias for the n (< 2^40) used in this repository. *)
  let v = Int64.to_int (int64 t) land max_int in
  v mod n

let float t =
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 11) in
  float_of_int v *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (int64 t) 1L = 1L

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
  let k = min n k in
  if k <= 0 then [||]
  else if k * 3 >= n then begin
    (* Dense case: shuffle a full identity permutation and take a prefix. *)
    let all = Array.init n (fun i -> i) in
    shuffle t all;
    let out = Array.sub all 0 k in
    Array.sort Int.compare out;
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
    Array.sort Int.compare out;
    out
  end
