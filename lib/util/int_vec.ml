type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 16) () =
  { data = Array.make (max capacity 1) 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Int_vec.get";
  t.data.(i)

let set t i v =
  if i < 0 || i >= t.len then invalid_arg "Int_vec.set";
  t.data.(i) <- v

let ensure t needed =
  if needed > Array.length t.data then begin
    let cap = ref (Array.length t.data) in
    while !cap < needed do cap := !cap * 2 done;
    let data = Array.make !cap 0 in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let push t v =
  ensure t (t.len + 1);
  t.data.(t.len) <- v;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Int_vec.pop";
  t.len <- t.len - 1;
  t.data.(t.len)

let clear t = t.len <- 0

let last t =
  if t.len = 0 then invalid_arg "Int_vec.last";
  t.data.(t.len - 1)

let to_array t = Array.sub t.data 0 t.len

let release t = if t.len = Array.length t.data then t.data else to_array t

let of_array arr =
  { data = (if Array.length arr = 0 then Array.make 1 0 else Array.copy arr);
    len = Array.length arr }

let iter f t =
  for i = 0 to t.len - 1 do f t.data.(i) done

let fold f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do acc := f !acc t.data.(i) done;
  !acc

let append_array t arr =
  ensure t (t.len + Array.length arr);
  Array.blit arr 0 t.data t.len (Array.length arr);
  t.len <- t.len + Array.length arr

let sort t =
  let live = Array.sub t.data 0 t.len in
  Int_sort.sort live;
  Array.blit live 0 t.data 0 t.len

let sorted_dedup t =
  sort t;
  if t.len = 0 then [||]
  else begin
    let out = create ~capacity:t.len () in
    push out t.data.(0);
    for i = 1 to t.len - 1 do
      if t.data.(i) <> t.data.(i - 1) then push out t.data.(i)
    done;
    to_array out
  end
