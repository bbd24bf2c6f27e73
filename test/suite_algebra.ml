open Rox_storage
open Rox_shred
open Rox_algebra
open Helpers

(* ---------- Axis ---------- *)

let test_axis_reverse_involutive () =
  Array.iter
    (fun axis ->
      if axis <> Axis.Attribute then
        check_bool
          ("reverse involutive " ^ Axis.to_string axis)
          true
          (Axis.reverse (Axis.reverse axis) = axis))
    Axis.all;
  check_bool "attribute reverses to parent" true (Axis.reverse Axis.Attribute = Axis.Parent)

let test_axis_strings () =
  Array.iter
    (fun axis ->
      if axis <> Axis.Attribute then
        check_bool "of_string . to_string = id" true (Axis.of_string (Axis.to_string axis) = axis))
    Axis.all;
  check_string "short //" "//" (Axis.short_label Axis.Descendant);
  check_string "short /" "/" (Axis.short_label Axis.Child);
  (match Axis.of_string "sideways" with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "unknown axis must fail")

(* ---------- Staircase vs naive reference ---------- *)

let kinds_of engine doc_id =
  let r = Engine.get engine doc_id in
  r.Engine.kinds

(* Check all axes against the navigation-based reference on random docs,
   with candidates = all nodes of the doc. *)
let staircase_matches_naive seed axis =
  let engine, _ = engine_of_trees [ random_tree seed ] in
  let r = Engine.get engine 0 in
  let doc = r.Engine.doc in
  let n = Doc.node_count doc in
  let rng = Rox_util.Xoshiro.create (seed + 1) in
  (* A random sorted duplicate-free context. *)
  let k = 1 + Rox_util.Xoshiro.int rng (max 1 (n - 1)) in
  let context = col (Rox_util.Xoshiro.sample_without_replacement rng n k) in
  let candidates = Kind_index.all (kinds_of engine 0) in
  let result = Staircase.join ~sanitize ~doc ~axis ~context candidates in
  let expected =
    Array.to_list (arr context)
    |> List.concat_map (fun c -> naive_axis engine ~doc_id:0 ~pre:c axis)
    |> List.filter (fun p -> p <> 0) (* candidates exclude the virtual root *)
    |> List.sort_uniq compare
  in
  Array.to_list (arr result) = expected

let axis_props =
  Array.to_list Axis.all
  |> List.map (fun axis ->
         qtest ~count:60
           (Printf.sprintf "staircase %s = naive" (Axis.to_string axis))
           QCheck.small_int
           (fun seed -> staircase_matches_naive seed axis))

let test_staircase_desc_restricted () =
  let engine, r = engine_of_xml "<a><b><c/><c/></b><c/><d><c/></d></a>" in
  ignore engine;
  let doc = r.Engine.doc in
  let cs = Element_index.lookup_name r.Engine.elements "c" in
  (* descendants of <b> restricted to c: the two nested c's. *)
  let bs = Element_index.lookup_name r.Engine.elements "b" in
  let result = Staircase.join ~sanitize ~doc ~axis:Axis.Descendant ~context:bs cs in
  check_int "two c under b" 2 (clen result)

let test_staircase_pairs_grouped () =
  (* iter_pairs must emit in ascending context-index order (cut-off contract). *)
  let _, r = engine_of_xml "<a><b><x/><x/></b><b><x/></b></a>" in
  let doc = r.Engine.doc in
  let bs = Element_index.lookup_name r.Engine.elements "b" in
  let xs = Element_index.lookup_name r.Engine.elements "x" in
  let seen = ref [] in
  Staircase.iter_pairs ~doc ~axis:Axis.Descendant ~context:bs ~candidates:xs (fun cidx _ s ->
      seen := (cidx, s) :: !seen);
  let seen = List.rev !seen in
  check_int "three pairs" 3 (List.length seen);
  check_bool "grouped by context" true
    (List.map fst seen = List.sort compare (List.map fst seen))

let test_staircase_count_vs_pairs () =
  let _, r = engine_of_xml site_xml in
  let doc = r.Engine.doc in
  let persons = Element_index.lookup_name r.Engine.elements "person" in
  let all = Kind_index.all r.Engine.kinds in
  let n = ref 0 in
  Staircase.iter_pairs ~doc ~axis:Axis.Descendant ~context:persons ~candidates:all
    (fun _ _ _ -> incr n);
  check_int "count = pairs" !n
    (Staircase.count ~doc ~axis:Axis.Descendant ~context:persons all)

let test_staircase_cost_charged () =
  let _, r = engine_of_xml site_xml in
  let doc = r.Engine.doc in
  let counter = Cost.new_counter () in
  let meter = Cost.execution_meter counter in
  let persons = Element_index.lookup_name r.Engine.elements "person" in
  ignore
    (Staircase.join ~sanitize ~meter ~doc ~axis:Axis.Descendant ~context:persons
       (Kind_index.all r.Engine.kinds));
  check_bool "execution work recorded" true (Cost.read counter Cost.Execution > 0);
  check_int "sampling untouched" 0 (Cost.read counter Cost.Sampling)

(* ---------- Value joins ---------- *)

let join_doc =
  {|<a>
     <l><t>x</t><t>y</t><t>x</t><t>z</t></l>
     <r><t>x</t><t>z</t><t>z</t><t>w</t></r>
   </a>|}

let pairs_of_iter iter =
  let out = ref [] in
  iter (fun _ o i -> out := (o, i) :: !out);
  List.sort compare !out

let test_value_join_algorithms_agree () =
  let _, r = engine_of_xml join_doc in
  let doc = r.Engine.doc in
  (* left = texts under <l>, right = texts under <r>. *)
  let l = Element_index.lookup_name r.Engine.elements "l" in
  let rr = Element_index.lookup_name r.Engine.elements "r" in
  let texts = Kind_index.lookup r.Engine.kinds Nodekind.Text in
  let left = Staircase.join ~sanitize ~doc ~axis:Axis.Descendant ~context:l texts in
  let right = Staircase.join ~sanitize ~doc ~axis:Axis.Descendant ~context:rr texts in
  let hash =
    pairs_of_iter (fun f ->
        Value_join.iter_hash ~outer_doc:doc ~outer:left ~inner_doc:doc ~inner:right f)
  in
  let index_nl =
    pairs_of_iter (fun f ->
        Value_join.iter_index_nl ~outer_doc:doc ~outer:left
          ~inner:{ Value_join.docref = r; side = Value_join.Inner_text; restrict = Some right }
          f)
  in
  (* x matches x (2 left x's times 1 right x) + z matches z (1x2) = 4 pairs. *)
  check_int "hash pair count" 4 (List.length hash);
  check_bool "index_nl = hash" true (index_nl = hash)

let test_index_nl_unrestricted () =
  let _, r = engine_of_xml join_doc in
  let doc = r.Engine.doc in
  let l = Element_index.lookup_name r.Engine.elements "l" in
  let texts = Kind_index.lookup r.Engine.kinds Nodekind.Text in
  let left = Staircase.join ~sanitize ~doc ~axis:Axis.Descendant ~context:l texts in
  (* Unrestricted inner: matches all text nodes with equal values, including
     the left ones themselves. *)
  let out = ref 0 in
  Value_join.iter_index_nl ~outer_doc:doc ~outer:left
    ~inner:{ Value_join.docref = r; side = Value_join.Inner_text; restrict = None }
    (fun _ _ _ -> incr out);
  (* x:2 left -> 3 total each = 6; y:1 -> 1; z:1 -> 3; total 10. *)
  check_int "unrestricted matches" 10 !out

let test_attr_value_join () =
  let _, r = engine_of_xml {|<a><p id="1"/><p id="2"/><q ref="2"/><q ref="3"/></a>|} in
  let doc = r.Engine.doc in
  let refs = Element_index.lookup_attr_name r.Engine.elements "ref" in
  let id_name = Option.get (Rox_util.Str_pool.find (Doc.qname_pool doc) "id") in
  let out = ref [] in
  Value_join.iter_index_nl ~outer_doc:doc ~outer:refs
    ~inner:{ Value_join.docref = r; side = Value_join.Inner_attr id_name; restrict = None }
    (fun _ o i -> out := (o, i) :: !out);
  check_int "one match" 1 (List.length !out)

(* ---------- Selection ---------- *)

let test_selection () =
  let _, r = engine_of_xml "<a><n>5</n><n>15</n><n>x</n><n>10</n></a>" in
  let doc = r.Engine.doc in
  let texts = Kind_index.lookup r.Engine.kinds Nodekind.Text in
  let count pred = clen (Selection.filter ~doc ~pred texts) in
  check_int "lt" 2 (count (Selection.Lt 15.0));
  check_int "le" 3 (count (Selection.Le 15.0));
  check_int "gt" 1 (count (Selection.Gt 10.0));
  check_int "ge" 2 (count (Selection.Ge 10.0));
  check_int "between" 2 (count (Selection.Between (5.0, 10.0)));
  check_int "eq string" 1 (count (Selection.Eq "x"));
  check_int "eq number-as-string" 1 (count (Selection.Eq "15"));
  check_int "non-numeric excluded" 0 (count (Selection.Lt 4.0))

(* ---------- Cutoff ---------- *)

(* Synthetic operator: every outer tuple produces [hits] results. *)
let uniform_op ~outer_len ~hits emit =
  for oi = 0 to outer_len - 1 do
    for h = 0 to hits - 1 do
      emit oi ((oi * hits) + h)
    done
  done

let test_cutoff_completes () =
  let c = Cutoff.run ~limit:1000 ~outer_len:10 ~iter:(uniform_op ~outer_len:10 ~hits:3) in
  check_bool "completed" true c.Cutoff.completed;
  check_int "produced" 30 c.Cutoff.produced;
  check_bool "fraction 1" true (c.Cutoff.fraction = 1.0);
  check_bool "est exact" true (c.Cutoff.est = 30.0)

let test_cutoff_limits () =
  let c = Cutoff.run ~limit:10 ~outer_len:100 ~iter:(uniform_op ~outer_len:100 ~hits:5) in
  check_bool "not completed" true (not c.Cutoff.completed);
  check_int "produced exactly limit" 10 c.Cutoff.produced;
  (* 10 results = 2 outer tuples consumed; f = 2/100; est = 10 / 0.02 = 500. *)
  check_int "consumed" 2 c.Cutoff.consumed_outer;
  check_bool "extrapolation exact on uniform data" true (abs_float (c.Cutoff.est -. 500.0) < 1e-9)

(* A limit far above the produced count must not preallocate its output
   on the major heap. *)
let test_cutoff_large_limit_minor () =
  Gc.minor ();
  let _, _, major_before = Gc.counters () in
  let c = Cutoff.run ~limit:1200 ~outer_len:100 ~iter:(uniform_op ~outer_len:100 ~hits:1) in
  let _, _, major_after = Gc.counters () in
  check_int "produced" 100 c.Cutoff.produced;
  Alcotest.(check (float 0.0)) "major words" 0.0 (major_after -. major_before)

let test_cutoff_empty_outer () =
  let c = Cutoff.run ~limit:10 ~outer_len:0 ~iter:(fun _ -> ()) in
  check_bool "completed" true c.Cutoff.completed;
  check_bool "est 0" true (c.Cutoff.est = 0.0)

let test_cutoff_distinct () =
  let c = Cutoff.run ~limit:100 ~outer_len:3 ~iter:(fun emit ->
      emit 0 5; emit 1 5; emit 2 4) in
  check_bool "raw keeps order" true (c.Cutoff.out = [| 5; 5; 4 |])

(* ---------- Nodeset ---------- *)

let sorted_set = QCheck.map (fun l -> Array.of_list (List.sort_uniq compare l)) QCheck.(list small_int)

let prop_intersect =
  qtest "intersect = filter mem" QCheck.(pair sorted_set sorted_set) (fun (a, b) ->
      Nodeset.intersect ~sanitize a b
      = Array.of_list
          (List.filter (fun x -> Array.exists (( = ) x) b) (Array.to_list a)))

let prop_union =
  qtest "union = sort_uniq append" QCheck.(pair sorted_set sorted_set) (fun (a, b) ->
      Nodeset.union ~sanitize a b
      = Array.of_list (List.sort_uniq compare (Array.to_list a @ Array.to_list b)))

let prop_difference =
  qtest "difference = filter not-mem" QCheck.(pair sorted_set sorted_set) (fun (a, b) ->
      Nodeset.difference ~sanitize a b
      = Array.of_list
          (List.filter (fun x -> not (Array.exists (( = ) x) b)) (Array.to_list a)))

let prop_of_unsorted =
  qtest "of_unsorted sorts and dedups" QCheck.(array small_int) (fun a ->
      Nodeset.of_unsorted ~sanitize a = Array.of_list (List.sort_uniq compare (Array.to_list a)))

(* ---------- Cost ---------- *)

let test_cost_buckets () =
  let c = Cost.new_counter () in
  Cost.charge (Some (Cost.sampling_meter c)) 5;
  Cost.charge (Some (Cost.execution_meter c)) 7;
  Cost.charge None 1000;
  check_int "sampling" 5 (Cost.read c Cost.Sampling);
  check_int "execution" 7 (Cost.read c Cost.Execution);
  check_int "total" 12 (Cost.total c);
  Cost.reset c;
  check_int "reset" 0 (Cost.total c)

let suite =
  [
    Alcotest.test_case "axis reverse" `Quick test_axis_reverse_involutive;
    Alcotest.test_case "axis strings" `Quick test_axis_strings;
  ]
  @ axis_props
  @ [
      Alcotest.test_case "staircase desc restricted" `Quick test_staircase_desc_restricted;
      Alcotest.test_case "staircase pairs grouped" `Quick test_staircase_pairs_grouped;
      Alcotest.test_case "staircase count" `Quick test_staircase_count_vs_pairs;
      Alcotest.test_case "staircase cost" `Quick test_staircase_cost_charged;
      Alcotest.test_case "value join algorithms agree" `Quick test_value_join_algorithms_agree;
      Alcotest.test_case "index nl unrestricted" `Quick test_index_nl_unrestricted;
      Alcotest.test_case "attr value join" `Quick test_attr_value_join;
      Alcotest.test_case "selection" `Quick test_selection;
      Alcotest.test_case "cutoff completes" `Quick test_cutoff_completes;
      Alcotest.test_case "cutoff limits" `Quick test_cutoff_limits;
      Alcotest.test_case "cutoff large limit stays minor" `Quick test_cutoff_large_limit_minor;
      Alcotest.test_case "cutoff empty outer" `Quick test_cutoff_empty_outer;
      Alcotest.test_case "cutoff distinct" `Quick test_cutoff_distinct;
      prop_intersect;
      prop_union;
      prop_difference;
      prop_of_unsorted;
      Alcotest.test_case "cost buckets" `Quick test_cost_buckets;
    ]
