(* E-relation — columnar relation kernels vs the retained row-major
   reference. The core intermediate-result kernels (extend, fuse,
   distinct) run on synthetic duplicate-heavy inputs at 10^4 and 10^5
   rows (10^6 with --full), once through the columnar implementation and
   once through [Relation.Naive], the seed's row-major code. Every
   columnar result is compared bit-for-bit against the naive one before
   any timing is reported. Results land in BENCH_relation.json for
   `make bench-smoke`. *)

open Rox_joingraph
open Bench_common
module Column = Rox_util.Column
module Xoshiro = Rox_util.Xoshiro

let json_file = "BENCH_relation.json"

let time_best f =
  ignore (f ());
  (* best of 3: wall-clock floor, insensitive to one-off GC pauses *)
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

type case = {
  kernel : string;
  rows : int;
  old_s : float;
  new_s : float;
  out_rows : int;
}

let speedup c = c.old_s /. c.new_s

(* ---- input generators (deterministic per size) ---- *)

let gen_pairs rng ~nkeys ~fanout =
  let lv = Rox_util.Int_vec.create () and rv = Rox_util.Int_vec.create () in
  for k = 0 to nkeys - 1 do
    for j = 0 to Xoshiro.int rng (fanout + 1) - 1 do
      Rox_util.Int_vec.push lv k;
      Rox_util.Int_vec.push rv ((k * 7) + j + 1_000_000)
    done
  done;
  (Rox_util.Int_vec.to_array lv, Rox_util.Int_vec.to_array rv)

let col a = Column.unsafe_of_array_detect a

(* extend: n-row binary relation, on-column duplicate-heavy (n/4 distinct
   keys), pair list with fanout 0..2 per key. *)
let case_extend n =
  let rng = Xoshiro.create (n + 1) in
  let nk = max 1 (n / 4) in
  let left = Array.init n (fun i -> i) in
  let right = Array.init n (fun _ -> Xoshiro.int rng nk) in
  let pl, pr = gen_pairs rng ~nkeys:nk ~fanout:2 in
  let naive_base = Relation.Naive.of_pairs ~v1:0 ~v2:1 ~left ~right in
  let columnar_base = Relation.of_pairs ~v1:0 ~v2:1 { Exec.left = col left; right = col right } in
  let pairs = { Exec.left = col pl; right = col pr } in
  let old_s =
    time_best (fun () ->
        Relation.Naive.extend naive_base ~on:1 ~new_vertex:2 ~left:pl ~right:pr)
  in
  let new_s =
    time_best (fun () ->
        Relation.extend ~sanitize:false columnar_base ~on:1 ~new_vertex:2 pairs)
  in
  let out = Relation.extend ~sanitize:false columnar_base ~on:1 ~new_vertex:2 pairs in
  let ref_out =
    Relation.Naive.to_relation
      (Relation.Naive.extend naive_base ~on:1 ~new_vertex:2 ~left:pl ~right:pr)
  in
  if not (Relation.equal out ref_out) then
    failwith "relation bench: columnar extend differs from naive reference";
  { kernel = "extend"; rows = n; old_s; new_s; out_rows = Relation.rows out }

(* fuse: two n-row components joined through n/2 pairs over near-unique
   join columns. *)
let case_fuse n =
  let rng = Xoshiro.create (n + 2) in
  let mk v1 v2 =
    let l = Array.init n (fun i -> i) in
    let r = Array.init n (fun _ -> Xoshiro.int rng n) in
    ( Relation.Naive.of_pairs ~v1 ~v2 ~left:l ~right:r,
      Relation.of_pairs ~v1 ~v2 { Exec.left = col l; right = col r } )
  in
  let naive_l, col_l = mk 0 1 in
  let naive_r, col_r = mk 2 3 in
  let m = n / 2 in
  let pl = Array.init m (fun _ -> Xoshiro.int rng n) in
  let pr = Array.init m (fun _ -> Xoshiro.int rng n) in
  let pairs = { Exec.left = col pl; right = col pr } in
  let old_s =
    time_best (fun () ->
        Relation.Naive.fuse naive_l naive_r ~on_left:1 ~on_right:2 ~pl ~pr)
  in
  let new_s =
    time_best (fun () ->
        Relation.fuse ~sanitize:false col_l col_r ~on_left:1 ~on_right:2 pairs)
  in
  let out = Relation.fuse ~sanitize:false col_l col_r ~on_left:1 ~on_right:2 pairs in
  let ref_out =
    Relation.Naive.to_relation
      (Relation.Naive.fuse naive_l naive_r ~on_left:1 ~on_right:2 ~pl ~pr)
  in
  if not (Relation.equal out ref_out) then
    failwith "relation bench: columnar fuse differs from naive reference";
  { kernel = "fuse"; rows = n; old_s; new_s; out_rows = Relation.rows out }

(* distinct: n rows, ~half duplicated, no column sorted — both sides pay
   for real duplicate elimination. *)
let case_distinct n =
  let rng = Xoshiro.create (n + 3) in
  let half = max 1 (n / 2) in
  let left = Array.init n (fun _ -> Xoshiro.int rng half) in
  let right = Array.map (fun v -> (v * 7) + 1) left in
  let naive = Relation.Naive.of_pairs ~v1:0 ~v2:1 ~left ~right in
  let columnar = Relation.of_pairs ~v1:0 ~v2:1 { Exec.left = col left; right = col right } in
  let old_s = time_best (fun () -> Relation.Naive.distinct naive) in
  let new_s = time_best (fun () -> Relation.distinct ~sanitize:false columnar) in
  let out = Relation.distinct ~sanitize:false columnar in
  let ref_out = Relation.Naive.to_relation (Relation.Naive.distinct naive) in
  if not (Relation.equal out ref_out) then
    failwith "relation bench: columnar distinct differs from naive reference";
  { kernel = "distinct"; rows = n; old_s; new_s; out_rows = Relation.rows out }

let run ~full () =
  header "Relation kernels: columnar core vs row-major reference";
  let sizes = if full then [ 10_000; 100_000; 1_000_000 ] else [ 10_000; 100_000 ] in
  (* Kernels run with ~sanitize:false: time the kernels themselves, not
     the RX306 cross-check. *)
  let cases =
    List.concat_map (fun n -> [ case_extend n; case_fuse n; case_distinct n ]) sizes
  in
  subheader "best-of-3 wall clock per kernel call";
  Rox_util.Table_fmt.print
    ~header:[ "kernel"; "rows"; "out rows"; "row-major"; "columnar"; "speedup" ]
    (List.map
       (fun c ->
         [ c.kernel;
           string_of_int c.rows;
           string_of_int c.out_rows;
           Printf.sprintf "%.2f ms" (c.old_s *. 1e3);
           Printf.sprintf "%.2f ms" (c.new_s *. 1e3);
           Printf.sprintf "%.2fx" (speedup c) ])
       cases);
  let at_1e5 = List.filter (fun c -> c.rows = 100_000) cases in
  let min_speedup =
    List.fold_left (fun acc c -> min acc (speedup c)) infinity at_1e5
  in
  Printf.printf "\nall outputs bit-identical to the row-major reference\n";
  Printf.printf "minimum speedup at 10^5 rows: %.2fx\n" min_speedup;
  let oc = open_out json_file in
  Printf.fprintf oc
    "{\n  %s,\n  \"experiment\": \"relation\",\n  \"bit_identical\": true,\n  \"min_speedup_1e5\": %.2f,\n  \"cases\": [\n"
    (machine_json ~domains_used:1) min_speedup;
  List.iteri
    (fun i c ->
      Printf.fprintf oc
        "    { \"kernel\": \"%s\", \"rows\": %d, \"out_rows\": %d, \"old_s\": %.6f, \"new_s\": %.6f, \"speedup\": %.2f }%s\n"
        c.kernel c.rows c.out_rows c.old_s c.new_s (speedup c)
        (if i = List.length cases - 1 then "" else ","))
    cases;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n" json_file;
  if min_speedup < 2.0 then
    Printf.eprintf "WARNING: columnar kernels under 2x at 10^5 rows (%.2fx)\n" min_speedup
