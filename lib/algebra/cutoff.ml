open Rox_util

type t = {
  out : int array;
  produced : int;
  consumed_outer : int;
  fraction : float;
  est : float;
  completed : bool;
}

exception Cut

let run ~limit ~outer_len ~iter =
  (* At most 256 slots up front, the largest block the minor heap takes
     (Max_young_wosize): a late chain round at limit 1,200 that emits 100
     nodes stays off the major heap, and only what is produced beyond 256
     grows the buffer. *)
  let out = Int_vec.create ~capacity:(Int.min limit 256) () in
  let last_outer = ref (-1) in
  let emit oi node =
    last_outer := Int.max !last_outer oi;
    Int_vec.push out node;
    if Int_vec.length out >= limit then raise Cut
  in
  let completed =
    try
      iter emit;
      true
    with Cut -> false
  in
  let produced = Int_vec.length out in
  let consumed_outer = if completed then outer_len else !last_outer + 1 in
  let fraction =
    if completed || outer_len = 0 then 1.0
    else float_of_int (Int.max 1 consumed_outer) /. float_of_int outer_len
  in
  let est = if completed then float_of_int produced else float_of_int produced /. fraction in
  { out = Int_vec.to_array out; produced; consumed_outer; fraction; est; completed }

let equal a b =
  a.produced = b.produced
  && a.consumed_outer = b.consumed_outer
  && Float.equal a.fraction b.fraction
  && Float.equal a.est b.est
  && Bool.equal a.completed b.completed
  && Array.length a.out = Array.length b.out
  && Array.for_all2 Int.equal a.out b.out
