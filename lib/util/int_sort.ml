(* Bottom-up merge sort: insertion-sort runs of [run] elements, then merge
   runs of doubling width, alternating between the array and one scratch
   copy. [sort] and [sort_by] are the same algorithm written twice, so that
   [sort] compares with an inlined int [<] instead of a closure call. All
   indices stay within [0, n), so the reads and writes skip bounds checks. *)

let run = 16

(* --- ascending --------------------------------------------------------- *)

let insertion (a : int array) lo hi =
  for i = lo + 1 to hi - 1 do
    let v = Array.unsafe_get a i in
    let j = ref (i - 1) in
    while !j >= lo && Array.unsafe_get a !j > v do
      Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
      decr j
    done;
    Array.unsafe_set a (!j + 1) v
  done

(* [src.(lo..mid-1)] and [src.(mid..hi-1)] are sorted; merge into [dst]. *)
let merge (src : int array) (dst : int array) lo mid hi =
  if mid >= hi || Array.unsafe_get src (mid - 1) <= Array.unsafe_get src mid then
    Array.blit src lo dst lo (hi - lo)
  else begin
    let i = ref lo and j = ref mid in
    for k = lo to hi - 1 do
      if !j >= hi || (!i < mid && Array.unsafe_get src !i <= Array.unsafe_get src !j)
      then begin
        Array.unsafe_set dst k (Array.unsafe_get src !i);
        incr i
      end
      else begin
        Array.unsafe_set dst k (Array.unsafe_get src !j);
        incr j
      end
    done
  end

let sort a =
  let n = Array.length a in
  let lo = ref 0 in
  while !lo < n do
    insertion a !lo (Int.min n (!lo + run));
    lo := !lo + run
  done;
  if n > run then begin
    let src = ref a and dst = ref (Array.make n 0) and width = ref run in
    while !width < n do
      let lo = ref 0 in
      while !lo < n do
        let hi = Int.min n (!lo + (2 * !width)) in
        merge !src !dst !lo (Int.min n (!lo + !width)) hi;
        lo := hi
      done;
      let s = !src in
      src := !dst;
      dst := s;
      width := 2 * !width
    done;
    if !src != a then Array.blit !src 0 a 0 n
  end

(* --- by a caller's order ----------------------------------------------- *)

let insertion_by less (a : int array) lo hi =
  for i = lo + 1 to hi - 1 do
    let v = Array.unsafe_get a i in
    let j = ref (i - 1) in
    while !j >= lo && less v (Array.unsafe_get a !j) do
      Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
      decr j
    done;
    Array.unsafe_set a (!j + 1) v
  done

let merge_by less (src : int array) (dst : int array) lo mid hi =
  if mid >= hi || not (less (Array.unsafe_get src mid) (Array.unsafe_get src (mid - 1)))
  then Array.blit src lo dst lo (hi - lo)
  else begin
    let i = ref lo and j = ref mid in
    for k = lo to hi - 1 do
      if !j >= hi
         || (!i < mid && not (less (Array.unsafe_get src !j) (Array.unsafe_get src !i)))
      then begin
        Array.unsafe_set dst k (Array.unsafe_get src !i);
        incr i
      end
      else begin
        Array.unsafe_set dst k (Array.unsafe_get src !j);
        incr j
      end
    done
  end

let sort_by ~less a =
  let n = Array.length a in
  let lo = ref 0 in
  while !lo < n do
    insertion_by less a !lo (Int.min n (!lo + run));
    lo := !lo + run
  done;
  if n > run then begin
    let src = ref a and dst = ref (Array.make n 0) and width = ref run in
    while !width < n do
      let lo = ref 0 in
      while !lo < n do
        let hi = Int.min n (!lo + (2 * !width)) in
        merge_by less !src !dst !lo (Int.min n (!lo + !width)) hi;
        lo := hi
      done;
      let s = !src in
      src := !dst;
      dst := s;
      width := 2 * !width
    done;
    if !src != a then Array.blit !src 0 a 0 n
  end
