(* Every function is annotated at [int array] / [int]: left polymorphic,
   [a.(mid) < x] compiles to a [caml_lessthan] call over generic array
   reads, several times slower per probe. *)

let lower_bound_in (a : int array) lo hi (x : int) =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let upper_bound_in (a : int array) lo hi (x : int) =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

let lower_bound (a : int array) (x : int) = lower_bound_in a 0 (Array.length a) x
let upper_bound (a : int array) (x : int) = upper_bound_in a 0 (Array.length a) x

let lower_bound_from (a : int array) lo (x : int) =
  let n = Array.length a in
  if lo >= n then n
  else if a.(lo) >= x then lo
  else begin
    (* Gallop: double the step until we overshoot, then binary search. *)
    let step = ref 1 in
    let prev = ref lo in
    let cur = ref (lo + 1) in
    while !cur < n && a.(!cur) < x do
      prev := !cur;
      step := !step * 2;
      cur := !cur + !step
    done;
    lower_bound_in a (!prev + 1) (Int.min !cur n) x
  end

let mem (a : int array) (x : int) =
  let i = lower_bound a x in
  i < Array.length a && a.(i) = x

let count_range (a : int array) ~(lo : int) ~(hi : int) =
  if hi < lo then 0 else upper_bound a hi - lower_bound a lo
