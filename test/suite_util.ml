open Rox_util
open Helpers

(* ---------- Xoshiro ---------- *)

let test_determinism () =
  let a = Xoshiro.create 7 and b = Xoshiro.create 7 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Xoshiro.int64 a = Xoshiro.int64 b)
  done

let test_distinct_seeds () =
  let a = Xoshiro.create 1 and b = Xoshiro.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Xoshiro.int64 a = Xoshiro.int64 b then incr same
  done;
  check_bool "streams differ" true (!same < 4)

let test_split_independent () =
  let a = Xoshiro.create 5 in
  let b = Xoshiro.split a in
  let xs = List.init 32 (fun _ -> Xoshiro.int64 a) in
  let ys = List.init 32 (fun _ -> Xoshiro.int64 b) in
  check_bool "split streams differ" true (xs <> ys)

(* Pinned outputs of every draw function: a change to the state's layout
   or to the step must leave each stream exactly as it is. *)
let test_golden_stream () =
  let first4 seed =
    let t = Xoshiro.create seed in
    List.init 4 (fun _ -> Xoshiro.int64 t)
  in
  let int64s = Alcotest.(list int64) in
  Alcotest.check int64s "seed 0"
    [ -7355399402456485196L; -4652746763540216534L; 1900383378846508768L; 7684712102626143532L ]
    (first4 0);
  Alcotest.check int64s "seed 1"
    [ -5480124913605472059L; -8846382939111011094L; -7856363154187860716L; 7218738570589545383L ]
    (first4 1);
  Alcotest.check int64s "seed 42"
    [ 1546998764402558742L; 6990951692964543102L; -5902157311460992607L; -1389169964527427423L ]
    (first4 42);
  let t = Xoshiro.create 42 in
  Alcotest.(check (list int)) "int" [ 742; 198; 201; 481; 764 ]
    (List.init 5 (fun _ -> Xoshiro.int t 1000));
  Alcotest.(check (list string)) "float"
    [ "0x1.8a1b4a6202f2ap-1"; "0x1.7042a90ab4cbbp-1"; "0x1.b3344e87d7ccp-1" ]
    (List.init 3 (fun _ -> Printf.sprintf "%h" (Xoshiro.float t)));
  Alcotest.(check (list bool)) "bool" [ false; true; true; true; false; false; true; false ]
    (List.init 8 (fun _ -> Xoshiro.bool t));
  let s = Xoshiro.split t in
  Alcotest.check int64s "split" [ -7876195182371076435L; -2741369095840054060L ]
    [ Xoshiro.int64 s; Xoshiro.int64 t ]

(* Reference [sample_without_replacement]: the same draws, positions
   ordered by the polymorphic [Array.sort]. *)
let reference_sample t n k =
  let k = min n k in
  if k <= 0 then [||]
  else if k * 3 >= n then begin
    let all = Array.init n (fun i -> i) in
    Xoshiro.shuffle t all;
    let out = Array.sub all 0 k in
    Array.sort compare out;
    out
  end
  else begin
    let seen = Int_table.create ~capacity:(2 * k) () in
    for j = n - k to n - 1 do
      let r = Xoshiro.int t (j + 1) in
      if Int_table.mem seen r then Int_table.add seen j else Int_table.add seen r
    done;
    let out = Array.make k 0 in
    let i = ref 0 in
    Int_table.iter (fun key _ -> out.(!i) <- key; incr i) seen;
    Array.sort compare out;
    out
  end

(* Pinned draws (seed, n, k), each followed by the generator's next
   [int 1000]: dense (3k >= n) and Floyd cases alike. *)
let sample_goldens =
  [
    ((0, 0, 3), [||], 612);
    ((1, 5, 10), [| 0; 1; 2; 3; 4 |], 563);
    ((2, 1, 1), [| 0 |], 575);
    ((3, 10, 5), [| 3; 5; 7; 8; 9 |], 596);
    ((4, 10, 3), [| 0; 3; 4 |], 330);
    ((5, 12, 4), [| 0; 2; 5; 10 |], 139);
    ((6, 30, 8), [| 2; 9; 11; 13; 14; 27; 28; 29 |], 448);
    ((7, 100, 10), [| 19; 26; 33; 41; 44; 51; 56; 72; 76; 98 |], 495);
    ((42, 1000, 6), [| 17; 42; 555; 583; 746; 872 |], 946);
    ((9, 100000, 5), [| 5060; 43685; 46859; 51411; 95005 |], 440);
  ]

let test_golden_samples () =
  List.iter
    (fun ((seed, n, k), expected, next) ->
      let label = Printf.sprintf "seed %d n %d k %d" seed n k in
      let t = Xoshiro.create seed in
      Alcotest.check int_array label expected (Xoshiro.sample_without_replacement t n k);
      check_int (label ^ " next draw") next (Xoshiro.int t 1000))
    sample_goldens;
  (* A wider grid against the reference: both branches, both sides of
     the 3k = n switch, sizes up to the sampled domains. *)
  List.iter
    (fun seed ->
      List.iter
        (fun (n, k) ->
          let label = Printf.sprintf "seed %d n %d k %d" seed n k in
          let a = Xoshiro.create seed and b = Xoshiro.create seed in
          Alcotest.check int_array label (reference_sample b n k)
            (Xoshiro.sample_without_replacement a n k);
          check_bool (label ^ " same state") true (Xoshiro.int64 a = Xoshiro.int64 b))
        [ (17, 5); (17, 6); (100, 33); (100, 34); (551, 100); (551, 183); (551, 184);
          (3005, 100); (5000, 2000); (100000, 100); (100000, 40000) ])
    [ 0; 1; 42; 301 ]

let test_int_alloc_free () =
  let t = Xoshiro.create 3 in
  Alcotest.(check (float 0.0)) "Xoshiro.int: minor words over 1000 calls" 0.0
    (minor_words_of_calls 1000 (fun () -> Xoshiro.int t 1000))

(* Keys that differ only above bit 31, like the packed (attribute name,
   value) keys of the value index, still spread over the table: the home
   slot comes from the high bits of the Fibonacci product, not its low
   bits, which such keys all share. *)
let test_int_table_high_keys () =
  let n = 5000 in
  let t = Int_table.create () in
  for k = 1 to n do
    Int_table.add t (k lsl 31)
  done;
  let total = ref 0 and longest = ref 0 in
  for k = 1 to n do
    let p = Int_table.probe_length t (k lsl 31) in
    total := !total + p;
    longest := Int.max !longest p
  done;
  check_bool "mean probe length <= 2" true (!total <= 2 * n);
  check_bool "longest probe <= 32" true (!longest <= 32)

let prop_int_range =
  qtest "Xoshiro.int in range" QCheck.(pair small_int (int_range 1 1000)) (fun (seed, n) ->
      let rng = Xoshiro.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Xoshiro.int rng n in
        if v < 0 || v >= n then ok := false
      done;
      !ok)

let prop_float_range =
  qtest "Xoshiro.float in [0,1)" QCheck.small_int (fun seed ->
      let rng = Xoshiro.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Xoshiro.float rng in
        if v < 0.0 || v >= 1.0 then ok := false
      done;
      !ok)

let prop_sample_wor =
  qtest "sample_without_replacement: sorted, distinct, in range"
    QCheck.(triple small_int (int_range 0 200) (int_range 0 250))
    (fun (seed, n, k) ->
      let rng = Xoshiro.create seed in
      let s = Xoshiro.sample_without_replacement rng n k in
      let expected_len = min n k in
      Array.length s = max 0 expected_len
      && Array.for_all (fun x -> x >= 0 && x < n) s
      && (let sorted = Array.copy s in
          Array.sort compare sorted;
          sorted = s)
      && List.length (List.sort_uniq compare (Array.to_list s)) = Array.length s)

let test_shuffle_permutes () =
  let rng = Xoshiro.create 11 in
  let arr = Array.init 50 (fun i -> i) in
  let copy = Array.copy arr in
  Xoshiro.shuffle rng copy;
  check_bool "same multiset" true
    (List.sort compare (Array.to_list copy) = Array.to_list arr);
  check_bool "actually shuffled" true (copy <> arr)

(* ---------- Int_vec ---------- *)

let test_int_vec_basic () =
  let v = Int_vec.create () in
  check_bool "empty" true (Int_vec.is_empty v);
  for i = 0 to 99 do Int_vec.push v (i * 2) done;
  check_int "length" 100 (Int_vec.length v);
  check_int "get" 42 (Int_vec.get v 21);
  Int_vec.set v 21 7;
  check_int "set" 7 (Int_vec.get v 21);
  check_int "last" 198 (Int_vec.last v);
  check_int "pop" 198 (Int_vec.pop v);
  check_int "length after pop" 99 (Int_vec.length v);
  Int_vec.clear v;
  check_bool "cleared" true (Int_vec.is_empty v)

let test_int_vec_bounds () =
  let v = Int_vec.of_array [| 1; 2 |] in
  Alcotest.check_raises "get out of range" (Invalid_argument "Int_vec.get") (fun () ->
      ignore (Int_vec.get v 2));
  Alcotest.check_raises "pop empty" (Invalid_argument "Int_vec.pop") (fun () ->
      ignore (Int_vec.pop (Int_vec.create ())))

let prop_int_vec_roundtrip =
  qtest "of_array/to_array roundtrip" QCheck.(array small_int) (fun arr ->
      Int_vec.to_array (Int_vec.of_array arr) = arr)

let prop_int_vec_sorted_dedup =
  qtest "sorted_dedup = List.sort_uniq" QCheck.(array small_int) (fun arr ->
      Int_vec.sorted_dedup (Int_vec.of_array arr)
      = Array.of_list (List.sort_uniq compare (Array.to_list arr)))

let prop_int_vec_append =
  qtest "append_array" QCheck.(pair (array small_int) (array small_int)) (fun (a, b) ->
      let v = Int_vec.of_array a in
      Int_vec.append_array v b;
      Int_vec.to_array v = Array.append a b)

let prop_int_vec_fold =
  qtest "fold sums" QCheck.(array small_int) (fun arr ->
      Int_vec.fold ( + ) 0 (Int_vec.of_array arr) = Array.fold_left ( + ) 0 arr)

(* ---------- Str_pool ---------- *)

let test_str_pool () =
  let p = Str_pool.create () in
  let a = Str_pool.intern p "alpha" in
  let b = Str_pool.intern p "beta" in
  check_int "dense ids" 0 a;
  check_int "dense ids" 1 b;
  check_int "idempotent" a (Str_pool.intern p "alpha");
  check_string "roundtrip" "beta" (Str_pool.to_string p b);
  check_bool "find hit" true (Str_pool.find p "alpha" = Some a);
  check_bool "find miss" true (Str_pool.find p "gamma" = None);
  check_int "count" 2 (Str_pool.count p)

let test_str_pool_growth () =
  let p = Str_pool.create () in
  for i = 0 to 4999 do
    check_int "sequential ids" i (Str_pool.intern p (string_of_int i))
  done;
  check_string "resolves after growth" "1234" (Str_pool.to_string p 1234)

(* ---------- Int_sort ---------- *)

(* Up to a few hundred elements, so the merge passes run; values from a
   narrow signed range (many duplicates) or the full int range. *)
let int_list_arb =
  QCheck.make
    ~print:QCheck.Print.(list int)
    QCheck.Gen.(list_size (0 -- 300) (oneof [ int_range (-20) 20; int ]))

let prop_int_sort =
  qtest ~count:300 "Int_sort.sort = List.sort" int_list_arb (fun l ->
      let a = Array.of_list l in
      Int_sort.sort a;
      Array.to_list a = List.sort compare l)

let prop_int_sort_by =
  qtest ~count:300 "Int_sort.sort_by = List.stable_sort" int_list_arb (fun l ->
      let key = Array.of_list l in
      let idx = Array.init (Array.length key) (fun i -> i) in
      Int_sort.sort_by ~less:(fun i j -> key.(i) < key.(j)) idx;
      Array.to_list idx
      = List.stable_sort
          (fun i j -> compare key.(i) key.(j))
          (List.init (Array.length key) (fun i -> i)))

let test_int_sort_shapes () =
  List.iter
    (fun n ->
      let expect = Array.init n (fun i -> i) in
      let check label a =
        Int_sort.sort a;
        Alcotest.check int_array (Printf.sprintf "%s n=%d" label n) expect a
      in
      check "sorted" (Array.init n (fun i -> i));
      check "reversed" (Array.init n (fun i -> n - 1 - i));
      check "organ pipe" (Array.init n (fun i -> if i mod 2 = 0 then i else n - i - (n mod 2)));
      let same = Array.make n 7 in
      Int_sort.sort same;
      Alcotest.check int_array (Printf.sprintf "constant n=%d" n) (Array.make n 7) same)
    [ 0; 1; 2; 15; 16; 17; 31; 32; 33; 100; 1000 ]

(* ---------- Bin_search ---------- *)

let naive_lower_bound a x =
  let rec go i = if i >= Array.length a || a.(i) >= x then i else go (i + 1) in
  go 0

let naive_upper_bound a x =
  let rec go i = if i >= Array.length a || a.(i) > x then i else go (i + 1) in
  go 0

(* Signed values from a narrow range: negatives, duplicates and probes
   outside the array on either side. *)
let sorted_arr =
  QCheck.map (fun l -> Array.of_list (List.sort compare l)) QCheck.(list (int_range (-30) 30))

let probe = QCheck.int_range (-35) 35

let prop_lower_bound =
  qtest "lower_bound = naive" (QCheck.pair sorted_arr probe) (fun (a, x) ->
      Bin_search.lower_bound a x = naive_lower_bound a x)

let prop_upper_bound =
  qtest "upper_bound = naive" (QCheck.pair sorted_arr probe) (fun (a, x) ->
      Bin_search.upper_bound a x = naive_upper_bound a x)

let prop_lower_bound_from =
  qtest "lower_bound_from consistent" (QCheck.pair sorted_arr probe) (fun (a, x) ->
      let full = Bin_search.lower_bound a x in
      (* Starting at or before the answer gives the same boundary. *)
      List.for_all
        (fun lo -> Bin_search.lower_bound_from a lo x = max lo full)
        (List.init (min 5 (Array.length a + 1)) (fun i -> i)))

let prop_mem =
  qtest "mem = Array.mem" (QCheck.pair sorted_arr probe) (fun (a, x) ->
      Bin_search.mem a x = Array.exists (( = ) x) a)

let prop_count_range =
  qtest "count_range = filter length" (QCheck.triple sorted_arr probe probe)
    (fun (a, lo, hi) ->
      Bin_search.count_range a ~lo ~hi
      = Array.length (Array.of_seq (Seq.filter (fun x -> lo <= x && x <= hi) (Array.to_seq a))))

(* ---------- Stats ---------- *)

let test_stats_known () =
  check_bool "mean" true (Stats.mean [| 1.0; 2.0; 3.0 |] = 2.0);
  check_bool "mean empty" true (Stats.mean [||] = 0.0);
  check_bool "variance" true (Stats.variance [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] = 4.0);
  check_bool "stddev" true (Stats.stddev [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] = 2.0);
  check_bool "geomean" true (abs_float (Stats.geometric_mean [| 1.0; 4.0 |] -. 2.0) < 1e-9);
  check_bool "min" true (Stats.minimum [| 3.0; 1.0; 2.0 |] = 1.0);
  check_bool "max" true (Stats.maximum [| 3.0; 1.0; 2.0 |] = 3.0)

let test_percentile () =
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check_bool "p50" true (Stats.percentile a 50.0 = 50.0);
  check_bool "p100" true (Stats.percentile a 100.0 = 100.0);
  check_bool "p1" true (Stats.percentile a 1.0 = 1.0);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty array") (fun () ->
      ignore (Stats.percentile [||] 50.0))

let prop_variance_nonneg =
  qtest "variance >= 0" QCheck.(list (float_range (-100.) 100.)) (fun l ->
      Stats.variance (Array.of_list l) >= -1e-9)

(* ---------- Table_fmt ---------- *)

let test_table_render () =
  let s = Table_fmt.render ~header:[ "name"; "n" ] [ [ "alpha"; "1" ]; [ "b"; "22" ] ] in
  check_bool "contains header" true
    (String.length s > 0
    && String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 0));
  (* All non-empty lines have the same width. *)
  let widths =
    String.split_on_char '\n' s
    |> List.filter (fun l -> l <> "")
    |> List.map String.length
    |> List.sort_uniq compare
  in
  check_int "uniform width" 1 (List.length widths)

let test_human () =
  check_string "plain" "999" (Table_fmt.human_int 999);
  check_string "K" "43.5K" (Table_fmt.human_int 43500);
  check_string "M" "1.1M" (Table_fmt.human_int 1100000);
  check_string "float small" "0.50" (Table_fmt.human_float 0.5);
  check_string "float int" "12" (Table_fmt.human_float 12.0)

(* ---------- Ascii_plot ---------- *)

let test_plot_render () =
  let s =
    Ascii_plot.render ~width:40 ~height:8
      [
        { Ascii_plot.label = "a"; marker = '*'; values = [| 1.0; 10.0; 100.0 |] };
        { Ascii_plot.label = "b"; marker = 'x'; values = [| 100.0; 10.0; 1.0 |] };
      ]
  in
  check_bool "mentions legend" true
    (String.length s > 0
    && (let lines = String.split_on_char '\n' s in
        List.exists (fun l -> String.length l > 6 &&
          (let found = ref false in
           String.iteri (fun i c -> if c = 'l' && i + 5 < String.length l
             && String.sub l i 6 = "legend" then found := true) l;
           !found)) lines));
  (* The earliest series wins overlaps; both markers must appear. *)
  check_bool "marker a present" true (String.contains s '*');
  check_bool "marker b present" true (String.contains s 'x')

let test_plot_empty () =
  check_string "empty" "(empty plot)\n" (Ascii_plot.render []);
  check_string "no data" "(no data)\n"
    (Ascii_plot.render [ { Ascii_plot.label = "a"; marker = '*'; values = [| nan |] } ])

let test_plot_constant () =
  (* A constant series must not crash the scaling. *)
  let s =
    Ascii_plot.render ~width:20 ~height:5
      [ { Ascii_plot.label = "c"; marker = 'o'; values = Array.make 10 5.0 } ]
  in
  check_bool "renders" true (String.contains s 'o')

(* ---------- Minijson writer ---------- *)

let test_json_write_escapes () =
  let s = Minijson.to_string (Minijson.Str "a\"b\\c\nd\te\x01f") in
  check_string "escaped" {|"a\"b\\c\nd\te\u0001f"|} s;
  (match Minijson.parse s with
   | Ok (Minijson.Str back) -> check_string "round-trip" "a\"b\\c\nd\te\x01f" back
   | _ -> Alcotest.fail "escape round-trip failed")

let test_json_write_numbers () =
  check_string "integral" "42" (Minijson.to_string (Minijson.Num 42.0));
  check_string "negative" "-7" (Minijson.to_string (Minijson.Num (-7.0)));
  check_string "fraction" "1.5" (Minijson.to_string (Minijson.Num 1.5));
  check_string "nan is null" "null" (Minijson.to_string (Minijson.Num Float.nan));
  check_string "inf is null" "null"
    (Minijson.to_string (Minijson.Num Float.infinity));
  (* Huge integral floats keep full precision via %.17g. *)
  (match Minijson.parse (Minijson.to_string (Minijson.Num 1e300)) with
   | Ok (Minijson.Num f) -> check_bool "1e300 survives" true (f = 1e300)
   | _ -> Alcotest.fail "huge float round-trip failed")

let test_json_deep_nesting () =
  let deep = ref (Minijson.Num 1.0) in
  for _ = 1 to 200 do
    deep := Minijson.Arr [ !deep ]
  done;
  let obj = Minijson.Obj [ ("deep", !deep); ("empty", Minijson.Arr []) ] in
  match Minijson.parse (Minijson.to_string obj) with
  | Ok back -> check_bool "200 levels round-trip" true (back = obj)
  | Error e -> Alcotest.fail e

let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Minijson.Null;
        map (fun b -> Minijson.Bool b) bool;
        map (fun n -> Minijson.Num (float_of_int n)) small_signed_int;
        map (fun s -> Minijson.Str s) (string_size (int_bound 12));
      ]
  in
  let value =
    fix (fun self depth ->
        if depth <= 0 then scalar
        else
          frequency
            [
              (3, scalar);
              (1, map (fun l -> Minijson.Arr l)
                   (list_size (int_bound 4) (self (depth - 1))));
              (1, map (fun l -> Minijson.Obj l)
                   (list_size (int_bound 4)
                      (pair (string_size ~gen:(char_range 'a' 'z') (int_bound 6))
                         (self (depth - 1)))));
            ])
  in
  value 4

let prop_json_roundtrip =
  qtest ~count:300 "Minijson parse(to_string v) = v"
    (QCheck.make ~print:(fun v -> Minijson.to_string v) json_gen)
    (fun v -> Minijson.parse (Minijson.to_string v) = Ok v)

(* ---------- Guarded ---------- *)

let await_flag flag =
  while not (Atomic.get flag) do
    Domain.cpu_relax ()
  done

let test_guarded_raise_releases () =
  let g = Guarded.create (ref 0) in
  (match
     Guarded.with_lock g (fun r ->
         incr r;
         failwith "body")
   with
   | () -> Alcotest.fail "the body raised"
   | exception Failure _ -> ());
  (match Guarded.try_with_lock g (fun r -> !r) with
   | Some n -> check_int "the write before the raise stands" 1 n
   | None -> Alcotest.fail "the lock is still held");
  check_int "with_lock does not block" 2
    (Guarded.with_lock g (fun r ->
         incr r;
         !r))

(* The consumer waits holding the lock; the producer can take the lock
   only because the wait released it, and the woken consumer holds it
   again (a try from inside its own section finds it busy). *)
let test_guarded_wait () =
  let g = Guarded.create (Queue.create ()) in
  let nonempty = Condition.create () in
  let waiting = Atomic.make false in
  let consumer =
    Domain.spawn (fun () ->
        Guarded.with_lock g (fun q ->
            while Queue.is_empty q do
              Atomic.set waiting true;
              Guarded.wait g nonempty
            done;
            (Queue.pop q, Guarded.try_with_lock g ignore = None)))
  in
  await_flag waiting;
  Guarded.with_lock g (fun q ->
      Queue.push 42 q;
      Condition.signal nonempty);
  let item, held = Domain.join consumer in
  check_int "the consumer got the item" 42 item;
  check_bool "the woken consumer holds the lock" true held

module Int_lru = Rox_cache.Lru.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* One domain parks inside the cache's critical section; a lookup from
   another finds the lock busy and counts it before blocking. The
   holder cannot see the lookup arrive, so it lets go after a growing
   pause until one lookup has been counted. *)
let lru_lock_wait cache ~pause =
  let holding = Atomic.make false and release = Atomic.make false in
  let holder =
    Domain.spawn (fun () ->
        Int_lru.iter_coldest_first cache (fun _ _ ->
            Atomic.set holding true;
            await_flag release))
  in
  await_flag holding;
  let looker =
    Domain.spawn (fun () -> ignore (Int_lru.find cache 1 : int option))
  in
  Unix.sleepf pause;
  Atomic.set release true;
  Domain.join holder;
  Domain.join looker

let test_guarded_try_busy () =
  let g = Guarded.create () in
  let holding = Atomic.make false and release = Atomic.make false in
  let holder =
    Domain.spawn (fun () ->
        Guarded.with_lock g (fun () ->
            Atomic.set holding true;
            await_flag release))
  in
  await_flag holding;
  check_bool "busy: None" true (Guarded.try_with_lock g Fun.id = None);
  Atomic.set release true;
  Domain.join holder;
  check_bool "free: Some" true (Guarded.try_with_lock g Fun.id = Some ());
  let cache = Int_lru.create ~budget:64 () in
  Int_lru.add cache 1 ~weight:8 1;
  let rec attempt n =
    lru_lock_wait cache ~pause:(0.002 *. float_of_int n);
    let st = Int_lru.stats cache in
    if st.Rox_cache.Lru.lock_waits = 0 && n < 20 then attempt (n + 1)
    else st
  in
  check_bool "lock_waits counts the busy lookup" true
    ((attempt 1).Rox_cache.Lru.lock_waits >= 1)

let test_guarded_counter_hammer () =
  let g = Guarded.create (ref 0) in
  let n = 10_000 in
  let workers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to n do
              Guarded.with_lock g incr
            done))
  in
  List.iter Domain.join workers;
  check_int "exact total" (2 * n) (Guarded.with_lock g ( ! ))

let suite =
  [
    Alcotest.test_case "xoshiro determinism" `Quick test_determinism;
    Alcotest.test_case "xoshiro distinct seeds" `Quick test_distinct_seeds;
    Alcotest.test_case "xoshiro split" `Quick test_split_independent;
    Alcotest.test_case "xoshiro golden stream" `Quick test_golden_stream;
    Alcotest.test_case "sample_without_replacement golden" `Quick test_golden_samples;
    Alcotest.test_case "xoshiro int allocates nothing" `Quick test_int_alloc_free;
    Alcotest.test_case "int table spreads high-bit keys" `Quick test_int_table_high_keys;
    prop_int_range;
    prop_float_range;
    prop_sample_wor;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
    Alcotest.test_case "int_vec basic" `Quick test_int_vec_basic;
    Alcotest.test_case "int_vec bounds" `Quick test_int_vec_bounds;
    prop_int_vec_roundtrip;
    prop_int_vec_sorted_dedup;
    prop_int_vec_append;
    prop_int_vec_fold;
    Alcotest.test_case "str_pool basic" `Quick test_str_pool;
    Alcotest.test_case "str_pool growth" `Quick test_str_pool_growth;
    prop_int_sort;
    prop_int_sort_by;
    Alcotest.test_case "int_sort shapes" `Quick test_int_sort_shapes;
    prop_lower_bound;
    prop_upper_bound;
    prop_lower_bound_from;
    prop_mem;
    prop_count_range;
    Alcotest.test_case "stats known values" `Quick test_stats_known;
    Alcotest.test_case "percentile" `Quick test_percentile;
    prop_variance_nonneg;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "human formats" `Quick test_human;
    Alcotest.test_case "plot render" `Quick test_plot_render;
    Alcotest.test_case "plot empty" `Quick test_plot_empty;
    Alcotest.test_case "plot constant" `Quick test_plot_constant;
    Alcotest.test_case "json write escapes" `Quick test_json_write_escapes;
    Alcotest.test_case "json write numbers" `Quick test_json_write_numbers;
    Alcotest.test_case "json deep nesting" `Quick test_json_deep_nesting;
    prop_json_roundtrip;
    Alcotest.test_case "guarded: raising body releases lock" `Quick
      test_guarded_raise_releases;
    Alcotest.test_case "guarded: wait releases, re-acquires" `Quick
      test_guarded_wait;
    Alcotest.test_case "guarded: try_with_lock on busy lock" `Quick
      test_guarded_try_busy;
    Alcotest.test_case "guarded: two-domain counter exact" `Quick
      test_guarded_counter_hammer;
  ]
