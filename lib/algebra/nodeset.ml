open Rox_util

let checked ~sanitize ~op a b out =
  if sanitize then begin
    Sanitize.check_sorted_dedup ~op ~what:"left input" a;
    Sanitize.check_sorted_dedup ~op ~what:"right input" b;
    Sanitize.check_sorted_dedup ~op ~what:"output" out
  end;
  out

let intersect ~sanitize a b =
  let out = Int_vec.create ~capacity:(min (Array.length a) (Array.length b) + 1) () in
  let i = ref 0 and j = ref 0 in
  while !i < Array.length a && !j < Array.length b do
    let x = a.(!i) and y = b.(!j) in
    if x = y then begin
      Int_vec.push out x;
      incr i;
      incr j
    end
    else if x < y then incr i
    else incr j
  done;
  checked ~sanitize ~op:"Nodeset.intersect" a b (Int_vec.to_array out)

let union ~sanitize a b =
  let out = Int_vec.create ~capacity:(Array.length a + Array.length b) () in
  let i = ref 0 and j = ref 0 in
  while !i < Array.length a && !j < Array.length b do
    let x = a.(!i) and y = b.(!j) in
    if x = y then begin
      Int_vec.push out x;
      incr i;
      incr j
    end
    else if x < y then begin
      Int_vec.push out x;
      incr i
    end
    else begin
      Int_vec.push out y;
      incr j
    end
  done;
  while !i < Array.length a do
    Int_vec.push out a.(!i);
    incr i
  done;
  while !j < Array.length b do
    Int_vec.push out b.(!j);
    incr j
  done;
  checked ~sanitize ~op:"Nodeset.union" a b (Int_vec.to_array out)

let difference ~sanitize a b =
  let out = Int_vec.create () in
  let i = ref 0 and j = ref 0 in
  while !i < Array.length a do
    if !j >= Array.length b then begin
      Int_vec.push out a.(!i);
      incr i
    end
    else begin
      let x = a.(!i) and y = b.(!j) in
      if x = y then begin
        incr i;
        incr j
      end
      else if x < y then begin
        Int_vec.push out x;
        incr i
      end
      else incr j
    end
  done;
  checked ~sanitize ~op:"Nodeset.difference" a b (Int_vec.to_array out)

let mem = Bin_search.mem

let is_sorted_dedup a =
  let rec check i = i >= Array.length a || (a.(i - 1) < a.(i) && check (i + 1)) in
  Array.length a = 0 || check 1

let is_sorted a =
  let rec check i = i >= Array.length a || (a.(i - 1) <= a.(i) && check (i + 1)) in
  Array.length a = 0 || check 1

let of_unsorted ~sanitize a =
  let out =
    if is_sorted a then begin
      (* Already in document order (duplicates allowed): dedup linearly
         without paying for the sort. *)
      let n = Array.length a in
      if n = 0 then [||]
      else begin
        let out = Int_vec.create ~capacity:n () in
        Int_vec.push out a.(0);
        for i = 1 to n - 1 do
          if a.(i) <> a.(i - 1) then Int_vec.push out a.(i)
        done;
        Int_vec.to_array out
      end
    end
    else Int_vec.sorted_dedup (Int_vec.of_array a)
  in
  if sanitize then
    Sanitize.check_sorted_dedup ~op:"Nodeset.of_unsorted" ~what:"output" out;
  out

(* Monomorphic length+element loop: no polymorphic [=] on int arrays. *)
let equal (a : int array) (b : int array) =
  Array.length a = Array.length b
  &&
  let rec go i = i >= Array.length a || (a.(i) = b.(i) && go (i + 1)) in
  go 0
