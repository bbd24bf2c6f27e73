open Rox_util
open Rox_algebra

(* Column-major materialized intermediates. Each vertex's cells live in
   one immutable [Column.t]; kernels move column pointers where they can
   ([project], [of_pairs]) and gather through row-index vectors where
   they cannot ([extend], [fuse], [distinct], [sort_rows]), so a cell is
   copied at most once per kernel and never boxed. The trusted
   [Column.sorted] flag (strictly increasing = document order, duplicate
   free) unlocks merge paths and makes [distinct] / [sort_rows] /
   [column_distinct] free on fresh single-component relations.

   Under [ROX_SANITIZE=1] every kernel is cross-checked bit-for-bit
   against the retained row-major reference in {!Naive} (RX306), and
   every column flag is audited (RX305). *)

type t = {
  verts : int array;
  cols : Column.t array; (* parallel to [verts] *)
  col_of : int array; (* vertex id -> column index, -1 when absent *)
  nrows : int;
}

exception Too_large of int

let make verts cols nrows =
  let maxv = Array.fold_left max (-1) verts in
  let col_of = Array.make (maxv + 1) (-1) in
  Array.iteri (fun i v -> col_of.(v) <- i) verts;
  { verts; cols; col_of; nrows }

let width t = Array.length t.verts
let rows t = t.nrows
let vertices t = t.verts

let col_index t v =
  if v < 0 || v >= Array.length t.col_of then None
  else
    let i = t.col_of.(v) in
    if i < 0 then None else Some i

let has_vertex t v = col_index t v <> None

let col_index_exn t v =
  match col_index t v with
  | Some i -> i
  | None -> invalid_arg "Relation: vertex not in relation"

let column t v = t.cols.(col_index_exn t v)
let column_distinct t v = Column.sorted_dedup (column t v)

let singleton ~vertex nodes = make [| vertex |] [| nodes |] (Column.length nodes)

let of_pairs ~v1 ~v2 (p : Exec.pairs) =
  (* Pointer copy: the pair columns become the relation's columns. *)
  make [| v1; v2 |] [| p.Exec.left; p.Exec.right |] (Column.length p.Exec.left)

let equal a b =
  a.nrows = b.nrows
  && Array.length a.verts = Array.length b.verts
  && (let rec go i =
        i >= Array.length a.verts || (a.verts.(i) = b.verts.(i) && go (i + 1))
      in
      go 0)
  &&
  let rec go i =
    i >= Array.length a.cols || (Column.equal a.cols.(i) b.cols.(i) && go (i + 1))
  in
  go 0

let row_array t i = Array.map (fun c -> Column.get c i) t.cols

let iter_rows t f =
  let w = width t in
  let buf = Array.make w 0 in
  for i = 0 to t.nrows - 1 do
    for j = 0 to w - 1 do
      buf.(j) <- Column.get t.cols.(j) i
    done;
    f buf
  done

(* Gather the first [n] row indices of [rows] out of every column of
   [t]. [rows] entries are in bounds by construction. *)
let gather t rows n =
  Array.map
    (fun c ->
      let src = Column.read c in
      let out = Array.make n 0 in
      for i = 0 to n - 1 do
        Array.unsafe_set out i (Array.unsafe_get src (Array.unsafe_get rows i))
      done;
      Column.unsafe_of_array ~sorted:false out)
    t.cols

(* Pairs grouped by key in a compressed sparse layout: key id [kid] owns
   the [starts.(kid) .. starts.(kid) + counts.(kid) - 1] slice of
   [vals], in pair order — per-key insertion order is what keeps the
   kernels bit-identical to the row-major reference. *)
type csr = {
  index : Int_table.t; (* key -> key id *)
  counts : int array;
  starts : int array;
  vals : int array;
}

let csr_of_pairs keys vals_in =
  let np = Array.length keys in
  let index = Int_table.create ~capacity:(2 * np) () in
  let kid_of = Array.make (max np 1) 0 in
  let nkeys = ref 0 in
  for k = 0 to np - 1 do
    let kid = Int_table.find_or_add index (Array.unsafe_get keys k) ~default:!nkeys in
    if kid = !nkeys then incr nkeys;
    Array.unsafe_set kid_of k kid
  done;
  let counts = Array.make (max !nkeys 1) 0 in
  for k = 0 to np - 1 do
    let kid = Array.unsafe_get kid_of k in
    Array.unsafe_set counts kid (Array.unsafe_get counts kid + 1)
  done;
  let starts = Array.make (max !nkeys 1) 0 in
  let acc = ref 0 in
  for kid = 0 to !nkeys - 1 do
    starts.(kid) <- !acc;
    acc := !acc + counts.(kid)
  done;
  let vals = Array.make (max np 1) 0 in
  let fill = Array.copy starts in
  for k = 0 to np - 1 do
    let kid = Array.unsafe_get kid_of k in
    Array.unsafe_set vals (Array.unsafe_get fill kid) (Array.unsafe_get vals_in k);
    Array.unsafe_set fill kid (Array.unsafe_get fill kid + 1)
  done;
  { index; counts; starts; vals }

let project t keep =
  let cols = Array.map (fun v -> column t v) keep in
  make (Array.copy keep) cols t.nrows

(* --- extend ------------------------------------------------------------ *)

let is_nondecreasing arr =
  let rec go i = i >= Array.length arr || (arr.(i - 1) <= arr.(i) && go (i + 1)) in
  Array.length arr <= 1 || go 1

let extend_impl ?meter ?(max_rows = max_int) t ~on ~new_vertex (p : Exec.pairs) =
  let on_col = column t on in
  let pl = Column.read p.Exec.left and pr = Column.read p.Exec.right in
  let np = Array.length pl in
  let od = Column.read on_col in
  let n = t.nrows in
  if Column.sorted on_col && is_nondecreasing pl then begin
    (* Merge path: the on-column is strictly increasing (each key on at
       most one row) and the pairs arrive grouped by non-decreasing left
       key — a single forward scan reproduces the hash path's output
       order exactly. *)
    let out_rows = Int_vec.create () in
    let out_new = Int_vec.create () in
    let nrows = ref 0 in
    let i = ref 0 and k = ref 0 in
    while !i < n && !k < np do
      let key = od.(!i) and l = pl.(!k) in
      if l < key then incr k
      else if l > key then incr i
      else begin
        Int_vec.push out_rows !i;
        Int_vec.push out_new pr.(!k);
        incr nrows;
        if !nrows > max_rows then raise (Too_large !nrows);
        incr k
      end
    done;
    Cost.charge meter !nrows;
    make
      (Array.append t.verts [| new_vertex |])
      (Array.append
         (gather t (Int_vec.to_array out_rows) !nrows)
         [| Column.unsafe_of_array ~sorted:false (Int_vec.to_array out_new) |])
      !nrows
  end
  else begin
    (* Hash path: pairs grouped by left key, one counting pass to size
       the output exactly, then straight column fills — no per-row
       closures, no growth reallocation. *)
    let csr = csr_of_pairs pl pr in
    let row_kid = Array.make (max n 1) (-1) in
    let row_cnt = Array.make (max n 1) 0 in
    let total = ref 0 in
    for i = 0 to n - 1 do
      let kid = Int_table.find_default csr.index (Array.unsafe_get od i) ~default:(-1) in
      Array.unsafe_set row_kid i kid;
      if kid >= 0 then begin
        let cnt = Array.unsafe_get csr.counts kid in
        Array.unsafe_set row_cnt i cnt;
        total := !total + cnt;
        if !total > max_rows then raise (Too_large (max_rows + 1))
      end
    done;
    Cost.charge meter !total;
    let w = Array.length t.cols in
    let out = Array.make (w + 1) Column.empty in
    for c = 0 to w - 1 do
      let src = Column.read t.cols.(c) in
      let dst = Array.make !total 0 in
      let r = ref 0 in
      for i = 0 to n - 1 do
        let v = Array.unsafe_get src i in
        for _ = 1 to Array.unsafe_get row_cnt i do
          Array.unsafe_set dst !r v;
          incr r
        done
      done;
      out.(c) <- Column.unsafe_of_array ~sorted:false dst
    done;
    let dst = Array.make !total 0 in
    let r = ref 0 in
    for i = 0 to n - 1 do
      let kid = Array.unsafe_get row_kid i in
      if kid >= 0 then begin
        let s = Array.unsafe_get csr.starts kid in
        for j = 0 to Array.unsafe_get csr.counts kid - 1 do
          Array.unsafe_set dst !r (Array.unsafe_get csr.vals (s + j));
          incr r
        done
      end
    done;
    out.(w) <- Column.unsafe_of_array ~sorted:false dst;
    make (Array.append t.verts [| new_vertex |]) out !total
  end

(* --- fuse -------------------------------------------------------------- *)

(* Rows of [t] grouped by the values of its [ci]th column. *)
let rows_csr t ci =
  csr_of_pairs (Column.read t.cols.(ci)) (Array.init t.nrows (fun i -> i))

let fuse_impl ?meter ?(max_rows = max_int) left right ~on_left ~on_right (p : Exec.pairs) =
  let cl = col_index_exn left on_left in
  let cr = col_index_exn right on_right in
  let lc = rows_csr left cl in
  let rc = rows_csr right cr in
  let pl = Column.read p.Exec.left and pr = Column.read p.Exec.right in
  let np = Array.length pl in
  (* Counting pass: exact output size and each pair's key ids. *)
  let lkid = Array.make (max np 1) (-1) and rkid = Array.make (max np 1) (-1) in
  let total = ref 0 in
  for k = 0 to np - 1 do
    let lk = Int_table.find_default lc.index (Array.unsafe_get pl k) ~default:(-1) in
    let rk = Int_table.find_default rc.index (Array.unsafe_get pr k) ~default:(-1) in
    Array.unsafe_set lkid k lk;
    Array.unsafe_set rkid k rk;
    if lk >= 0 && rk >= 0 then begin
      total := !total + (Array.unsafe_get lc.counts lk * Array.unsafe_get rc.counts rk);
      if !total > max_rows then raise (Too_large (max_rows + 1))
    end
  done;
  Cost.charge meter !total;
  let out_l = Array.make (max !total 1) 0 and out_r = Array.make (max !total 1) 0 in
  let r = ref 0 in
  for k = 0 to np - 1 do
    let lk = Array.unsafe_get lkid k and rk = Array.unsafe_get rkid k in
    if lk >= 0 && rk >= 0 then begin
      let ls = Array.unsafe_get lc.starts lk and ln = Array.unsafe_get lc.counts lk in
      let rs = Array.unsafe_get rc.starts rk and rn = Array.unsafe_get rc.counts rk in
      for a = 0 to ln - 1 do
        let li = Array.unsafe_get lc.vals (ls + a) in
        for b = 0 to rn - 1 do
          Array.unsafe_set out_l !r li;
          Array.unsafe_set out_r !r (Array.unsafe_get rc.vals (rs + b));
          incr r
        done
      done
    end
  done;
  make
    (Array.append left.verts right.verts)
    (Array.append (gather left out_l !total) (gather right out_r !total))
    !total

(* --- filter_pairs ------------------------------------------------------ *)

let filter_pairs_impl ?meter t ~c1 ~c2 (p : Exec.pairs) =
  let i1 = col_index_exn t c1 and i2 = col_index_exn t c2 in
  let pl = Column.read p.Exec.left and pr = Column.read p.Exec.right in
  let set = Int_table.Multimap.create ~capacity:(Array.length pl) () in
  for k = 0 to Array.length pl - 1 do
    Int_table.Multimap.add set pl.(k) pr.(k)
  done;
  let d1 = Column.read t.cols.(i1) and d2 = Column.read t.cols.(i2) in
  let keep = Array.make (max t.nrows 1) 0 in
  let nkeep = ref 0 in
  for i = 0 to t.nrows - 1 do
    if Int_table.Multimap.mem_pair set d1.(i) d2.(i) then begin
      Array.unsafe_set keep !nkeep i;
      incr nkeep
    end
  done;
  Cost.charge meter t.nrows;
  if !nkeep = t.nrows then t else make t.verts (gather t keep !nkeep) !nkeep

(* --- distinct ----------------------------------------------------------- *)

let distinct_impl ?meter t =
  (* Any strictly-increasing column certifies every row distinct. *)
  if t.nrows <= 1 || Array.exists Column.sorted t.cols then begin
    Cost.charge meter t.nrows;
    t
  end
  else begin
    let w = Array.length t.cols in
    let cols_data = Array.map Column.read t.cols in
    let cap = ref 16 in
    while !cap < 2 * t.nrows do
      cap := !cap * 2
    done;
    let mask = !cap - 1 in
    let slots = Array.make !cap (-1) in
    let keep = Array.make t.nrows 0 in
    let nkeep = ref 0 in
    let row_equal i j =
      let rec go c =
        c >= w
        || (let col = Array.unsafe_get cols_data c in
            Array.unsafe_get col i = Array.unsafe_get col j && go (c + 1))
      in
      go 0
    in
    for i = 0 to t.nrows - 1 do
      let h = ref 0 in
      for c = 0 to w - 1 do
        h := (!h lxor Array.unsafe_get (Array.unsafe_get cols_data c) i) * 0x2545F4914F6CDD1D
      done;
      let j = ref (!h land mask) in
      while
        let s = Array.unsafe_get slots !j in
        s >= 0 && not (row_equal s i)
      do
        j := (!j + 1) land mask
      done;
      if Array.unsafe_get slots !j < 0 then begin
        (* First occurrence wins: order-preserving, like the reference. *)
        Array.unsafe_set slots !j i;
        Array.unsafe_set keep !nkeep i;
        incr nkeep
      end
    done;
    Cost.charge meter t.nrows;
    if !nkeep = t.nrows then t else make t.verts (gather t keep !nkeep) !nkeep
  end

(* --- sort_rows ---------------------------------------------------------- *)

let sort_rows_impl t =
  (* A strictly-increasing first column already orders the rows. *)
  if t.nrows <= 1 || (width t > 0 && Column.sorted t.cols.(0)) then t
  else begin
    let w = Array.length t.cols in
    let cols_data = Array.map Column.read t.cols in
    let idx = Array.init t.nrows (fun i -> i) in
    let cmp a b =
      let rec go c =
        if c >= w then 0
        else
          let d = Int.compare cols_data.(c).(a) cols_data.(c).(b) in
          if d <> 0 then d else go (c + 1)
      in
      go 0
    in
    Array.sort cmp idx;
    make t.verts (gather t idx t.nrows) t.nrows
  end

(* --- cross -------------------------------------------------------------- *)

let cross_impl ?meter ?(max_rows = max_int) a b =
  let nrows = a.nrows * b.nrows in
  if nrows > max_rows then raise (Too_large nrows);
  Cost.charge meter nrows;
  let verts = Array.append a.verts b.verts in
  if b.nrows = 1 then
    (* One right row: left columns survive untouched (pointer copy), the
       single right row is replicated down every output row. *)
    make verts
      (Array.append a.cols
         (Array.map
            (fun c ->
              Column.unsafe_of_array ~sorted:false (Array.make nrows (Column.get c 0)))
            b.cols))
      nrows
  else if a.nrows = 1 then
    make verts
      (Array.append
         (Array.map
            (fun c ->
              Column.unsafe_of_array ~sorted:false (Array.make nrows (Column.get c 0)))
            a.cols)
         b.cols)
      nrows
  else begin
    let left =
      Array.map
        (fun c ->
          let src = Column.read c in
          let out = Array.make nrows 0 in
          let r = ref 0 in
          for i = 0 to a.nrows - 1 do
            let v = src.(i) in
            for _ = 0 to b.nrows - 1 do
              out.(!r) <- v;
              incr r
            done
          done;
          Column.unsafe_of_array ~sorted:false out)
        a.cols
    in
    let right =
      Array.map
        (fun c ->
          let src = Column.read c in
          let out = Array.make nrows 0 in
          let r = ref 0 in
          for _ = 0 to a.nrows - 1 do
            for j = 0 to b.nrows - 1 do
              out.(!r) <- src.(j);
              incr r
            done
          done;
          Column.unsafe_of_array ~sorted:false out)
        b.cols
    in
    make verts (Array.append left right) nrows
  end

(* --- naive row-major reference ------------------------------------------ *)

module Naive = struct
  (* The seed's row-major implementation, retained verbatim in spirit:
     one flat [data] array, boxed hashtables, polymorphic sorts. It is
     the ground truth the columnar kernels are compared against under
     ROX_SANITIZE=1 (RX306), the oracle of the property tests, and the
     "old" side of bench/exp_relation. *)

  type r = { verts : int array; data : int array (* row-major *); nrows : int }

  let of_relation t =
    let w = width t in
    let data = Array.make (t.nrows * w) 0 in
    for j = 0 to w - 1 do
      let src = Column.read t.cols.(j) in
      for i = 0 to t.nrows - 1 do
        data.((i * w) + j) <- src.(i)
      done
    done;
    { verts = Array.copy t.verts; data; nrows = t.nrows }

  let to_relation r =
    let w = Array.length r.verts in
    let cols =
      Array.init w (fun j ->
          let out = Array.make r.nrows 0 in
          for i = 0 to r.nrows - 1 do
            out.(i) <- r.data.((i * w) + j)
          done;
          Column.unsafe_of_array_detect out)
    in
    make (Array.copy r.verts) cols r.nrows

  let width r = Array.length r.verts

  let col_index_exn r v =
    let rec find i =
      if i >= Array.length r.verts then invalid_arg "Relation.Naive: vertex not in relation"
      else if r.verts.(i) = v then i
      else find (i + 1)
    in
    find 0

  let singleton ~vertex nodes =
    { verts = [| vertex |]; data = Array.copy nodes; nrows = Array.length nodes }

  let of_pairs ~v1 ~v2 ~left ~right =
    let n = Array.length left in
    let data = Array.make (2 * n) 0 in
    for i = 0 to n - 1 do
      data.(2 * i) <- left.(i);
      data.((2 * i) + 1) <- right.(i)
    done;
    { verts = [| v1; v2 |]; data; nrows = n }

  let pairs_multimap ~left ~right =
    let map : (int, Int_vec.t) Hashtbl.t = Hashtbl.create (Array.length left) in
    Array.iteri
      (fun i l ->
        let vec =
          match Hashtbl.find_opt map l with
          | Some v -> v
          | None ->
            let v = Int_vec.create ~capacity:2 () in
            Hashtbl.replace map l v;
            v
        in
        Int_vec.push vec right.(i))
      left;
    map

  let extend ?(max_rows = max_int) t ~on ~new_vertex ~left ~right =
    let c = col_index_exn t on in
    let w = width t in
    let map = pairs_multimap ~left ~right in
    let out = Int_vec.create () in
    let nrows = ref 0 in
    for i = 0 to t.nrows - 1 do
      match Hashtbl.find_opt map t.data.((i * w) + c) with
      | None -> ()
      | Some matches ->
        Int_vec.iter
          (fun m ->
            for j = 0 to w - 1 do
              Int_vec.push out t.data.((i * w) + j)
            done;
            Int_vec.push out m;
            incr nrows;
            if !nrows > max_rows then raise (Too_large !nrows))
          matches
    done;
    { verts = Array.append t.verts [| new_vertex |];
      data = Int_vec.to_array out;
      nrows = !nrows }

  let rows_by_key t c =
    let w = width t in
    let map : (int, Int_vec.t) Hashtbl.t = Hashtbl.create (max 16 t.nrows) in
    for i = 0 to t.nrows - 1 do
      let key = t.data.((i * w) + c) in
      let vec =
        match Hashtbl.find_opt map key with
        | Some v -> v
        | None ->
          let v = Int_vec.create ~capacity:2 () in
          Hashtbl.replace map key v;
          v
      in
      Int_vec.push vec i
    done;
    map

  let fuse ?(max_rows = max_int) left right ~on_left ~on_right ~pl ~pr =
    let cl = col_index_exn left on_left in
    let cr = col_index_exn right on_right in
    let wl = width left and wr = width right in
    let left_rows = rows_by_key left cl in
    let right_rows = rows_by_key right cr in
    let out = Int_vec.create () in
    let nrows = ref 0 in
    Array.iteri
      (fun i lnode ->
        let rnode = pr.(i) in
        match (Hashtbl.find_opt left_rows lnode, Hashtbl.find_opt right_rows rnode) with
        | Some lrows, Some rrows ->
          Int_vec.iter
            (fun li ->
              Int_vec.iter
                (fun ri ->
                  for j = 0 to wl - 1 do
                    Int_vec.push out left.data.((li * wl) + j)
                  done;
                  for j = 0 to wr - 1 do
                    Int_vec.push out right.data.((ri * wr) + j)
                  done;
                  incr nrows;
                  if !nrows > max_rows then raise (Too_large !nrows))
                rrows)
            lrows
        | _ -> ())
      pl;
    { verts = Array.append left.verts right.verts;
      data = Int_vec.to_array out;
      nrows = !nrows }

  let filter_pairs t ~c1 ~c2 ~left ~right =
    let i1 = col_index_exn t c1 and i2 = col_index_exn t c2 in
    let w = width t in
    let set : (int * int, unit) Hashtbl.t = Hashtbl.create (Array.length left) in
    Array.iteri (fun i l -> Hashtbl.replace set (l, right.(i)) ()) left;
    let out = Int_vec.create () in
    let nrows = ref 0 in
    for i = 0 to t.nrows - 1 do
      let key = (t.data.((i * w) + i1), t.data.((i * w) + i2)) in
      if Hashtbl.mem set key then begin
        for j = 0 to w - 1 do
          Int_vec.push out t.data.((i * w) + j)
        done;
        incr nrows
      end
    done;
    { t with data = Int_vec.to_array out; nrows = !nrows }

  let project t keep =
    let cols = Array.map (col_index_exn t) keep in
    let w = width t in
    let nw = Array.length cols in
    let data = Array.make (t.nrows * nw) 0 in
    for i = 0 to t.nrows - 1 do
      Array.iteri (fun j c -> data.((i * nw) + j) <- t.data.((i * w) + c)) cols
    done;
    { verts = Array.copy keep; data; nrows = t.nrows }

  let row_array t i =
    let w = width t in
    Array.sub t.data (i * w) w

  let distinct t =
    let seen : (int array, unit) Hashtbl.t = Hashtbl.create (max 16 t.nrows) in
    let out = Int_vec.create () in
    let nrows = ref 0 in
    for i = 0 to t.nrows - 1 do
      let row = row_array t i in
      if not (Hashtbl.mem seen row) then begin
        Hashtbl.replace seen row ();
        Array.iter (Int_vec.push out) row;
        incr nrows
      end
    done;
    { t with data = Int_vec.to_array out; nrows = !nrows }

  let sort_rows t =
    let rows = Array.init t.nrows (row_array t) in
    Array.sort compare rows;
    let w = width t in
    let data = Array.make (t.nrows * w) 0 in
    Array.iteri (fun i row -> Array.blit row 0 data (i * w) w) rows;
    { t with data }

  let cross ?(max_rows = max_int) a b =
    let wa = width a and wb = width b in
    let nrows = a.nrows * b.nrows in
    if nrows > max_rows then raise (Too_large nrows);
    let data = Array.make (nrows * (wa + wb)) 0 in
    let r = ref 0 in
    for i = 0 to a.nrows - 1 do
      for j = 0 to b.nrows - 1 do
        Array.blit a.data (i * wa) data (!r * (wa + wb)) wa;
        Array.blit b.data (j * wb) data ((!r * (wa + wb)) + wa) wb;
        incr r
      done
    done;
    { verts = Array.append a.verts b.verts; data; nrows }
end

(* --- sanitizer wrappers ------------------------------------------------- *)

(* Kernels take the session's sanitize mode explicitly; a missing argument
   falls back to the process default, which the RX307 confinement trap
   rejects inside an armed session region. *)
let resolve = function Some s -> s | None -> Sanitize.default_mode ()

let check_flags ~op t =
  Array.iteri
    (fun i c ->
      Sanitize.check_column_flag ~op
        ~what:(Printf.sprintf "column %d (vertex %d)" i t.verts.(i))
        c)
    t.cols

let check_against ~op result naive =
  check_flags ~op result;
  Sanitize.check_kernel_equiv ~op ~what:"result" (equal result (Naive.to_relation naive))

let pair_arrays (p : Exec.pairs) = (Column.read p.Exec.left, Column.read p.Exec.right)

let extend ?sanitize ?meter ?max_rows t ~on ~new_vertex p =
  let r = extend_impl ?meter ?max_rows t ~on ~new_vertex p in
  if resolve sanitize then begin
    let op = "Relation.extend" in
    check_flags ~op t;
    Sanitize.check_column_flag ~op ~what:"pairs.left" p.Exec.left;
    Sanitize.check_column_flag ~op ~what:"pairs.right" p.Exec.right;
    let left, right = pair_arrays p in
    check_against ~op r
      (Naive.extend ?max_rows (Naive.of_relation t) ~on ~new_vertex ~left ~right)
  end;
  r

let fuse ?sanitize ?meter ?max_rows left right ~on_left ~on_right p =
  let r = fuse_impl ?meter ?max_rows left right ~on_left ~on_right p in
  if resolve sanitize then begin
    let op = "Relation.fuse" in
    check_flags ~op left;
    check_flags ~op right;
    let pl, pr = pair_arrays p in
    check_against ~op r
      (Naive.fuse ?max_rows (Naive.of_relation left) (Naive.of_relation right)
         ~on_left ~on_right ~pl ~pr)
  end;
  r

let filter_pairs ?sanitize ?meter t ~c1 ~c2 p =
  let r = filter_pairs_impl ?meter t ~c1 ~c2 p in
  if resolve sanitize then begin
    let op = "Relation.filter_pairs" in
    check_flags ~op t;
    let left, right = pair_arrays p in
    check_against ~op r (Naive.filter_pairs (Naive.of_relation t) ~c1 ~c2 ~left ~right)
  end;
  r

let project ?sanitize t keep =
  let r = project t keep in
  if resolve sanitize then
    check_against ~op:"Relation.project" r (Naive.project (Naive.of_relation t) keep);
  r

let distinct ?sanitize ?meter t =
  let r = distinct_impl ?meter t in
  if resolve sanitize then
    check_against ~op:"Relation.distinct" r (Naive.distinct (Naive.of_relation t));
  r

let sort_rows ?sanitize t =
  let r = sort_rows_impl t in
  if resolve sanitize then
    check_against ~op:"Relation.sort_rows" r (Naive.sort_rows (Naive.of_relation t));
  r

let cross ?sanitize ?meter ?max_rows a b =
  let r = cross_impl ?meter ?max_rows a b in
  if resolve sanitize then
    check_against ~op:"Relation.cross" r
      (Naive.cross ?max_rows (Naive.of_relation a) (Naive.of_relation b));
  r
