open Rox_storage
open Rox_shred
open Helpers

let engine_and_doc xml =
  let engine, docref = engine_of_xml xml in
  (engine, docref)

(* ---------- Element index ---------- *)

let test_element_index () =
  let _, r = engine_and_doc "<a><b/><c><b x=\"1\"/></c><b/></a>" in
  let bs = Element_index.lookup_name r.Engine.elements "b" in
  check_int "three b" 3 (clen bs);
  check_bool "sorted" true (Rox_algebra.Nodeset.is_sorted_dedup (arr bs));
  check_int "one a" 1 (clen (Element_index.lookup_name r.Engine.elements "a"));
  check_int "missing" 0 (clen (Element_index.lookup_name r.Engine.elements "zz"));
  Rox_util.Column.iter
    (fun pre -> check_bool "kind elem" true (Doc.kind r.Engine.doc pre = Nodekind.Elem))
    bs

let test_attr_index () =
  let _, r = engine_and_doc {|<a x="1"><b x="2" y="3"/><c y="4"/></a>|} in
  let xs = Element_index.lookup_attr_name r.Engine.elements "x" in
  check_int "two @x" 2 (clen xs);
  Rox_util.Column.iter
    (fun pre -> check_bool "kind attr" true (Doc.kind r.Engine.doc pre = Nodekind.Attr))
    xs;
  check_int "two @y" 2 (clen (Element_index.lookup_attr_name r.Engine.elements "y"))

let prop_element_index_complete =
  qtest ~count:100 "element index = scan" QCheck.small_int (fun seed ->
      let engine = Engine.create () in
      let r = Engine.add_tree engine (random_tree seed) in
      let doc = r.Engine.doc in
      let ok = ref true in
      for pre = 1 to Doc.node_count doc - 1 do
        if Doc.kind doc pre = Nodekind.Elem then begin
          let indexed = Element_index.lookup r.Engine.elements (Doc.name_id doc pre) in
          if not (Rox_util.Column.mem indexed pre) then ok := false
        end
      done;
      !ok)

(* ---------- Kind index ---------- *)

let test_kind_index () =
  let _, r = engine_and_doc {|<a x="1">t1<b>t2</b><!--c--><?p i?></a>|} in
  check_int "elems" 2 (Kind_index.count r.Engine.kinds Nodekind.Elem);
  check_int "texts" 2 (Kind_index.count r.Engine.kinds Nodekind.Text);
  check_int "attrs" 1 (Kind_index.count r.Engine.kinds Nodekind.Attr);
  check_int "comments" 1 (Kind_index.count r.Engine.kinds Nodekind.Comment);
  check_int "pis" 1 (Kind_index.count r.Engine.kinds Nodekind.Pi);
  check_int "all" 7 (clen (Kind_index.all r.Engine.kinds))

(* ---------- Value index ---------- *)

let test_value_index_eq () =
  let engine, r = engine_and_doc {|<a><t>x</t><t>y</t><t>x</t><b v="x"/><b v="y"/></a>|} in
  let vid s = Option.get (Engine.value_id engine s) in
  check_int "text x" 2 (Value_index.text_eq_count r.Engine.values (vid "x"));
  check_int "text y" 1 (Value_index.text_eq_count r.Engine.values (vid "y"));
  let name_v = Option.get (Engine.qname_id engine "v") in
  check_int "attr v=x" 1 (Value_index.attr_eq_count r.Engine.values ~name_id:name_v ~value_id:(vid "x"));
  check_int "any-name attr x" 1 (clen (Value_index.attr_eq_any_name r.Engine.values ~value_id:(vid "x")))

(* Every equality path against a filter over the document: each value
   id that occurs (and one that does not) with each attribute name that
   occurs (and one that does not). *)
let prop_value_index_eq =
  qtest ~count:100 "value index eq = document filter" QCheck.small_int (fun seed ->
      let engine = Engine.create () in
      let r = Engine.add_tree engine (random_tree seed) in
      let doc = r.Engine.doc and vi = r.Engine.values in
      let pres = List.init (Doc.node_count doc - 1) (fun i -> i + 1) in
      let of_kind k = List.filter (fun pre -> Doc.kind doc pre = k) pres in
      let texts = of_kind Nodekind.Text and attrs = of_kind Nodekind.Attr in
      let with_unused ids = List.sort_uniq compare (List.fold_left max 0 ids + 1 :: ids) in
      let values = with_unused (List.map (Doc.value_id doc) (texts @ attrs)) in
      let names = with_unused (List.map (Doc.name_id doc) attrs) in
      let filter nodes p = Array.of_list (List.filter p nodes) in
      List.for_all
        (fun v ->
          arr (Value_index.text_eq vi v) = filter texts (fun pre -> Doc.value_id doc pre = v)
          && arr (Value_index.attr_eq_any_name vi ~value_id:v)
             = filter attrs (fun pre -> Doc.value_id doc pre = v)
          && List.for_all
               (fun n ->
                 let expect =
                   filter attrs (fun pre -> Doc.name_id doc pre = n && Doc.value_id doc pre = v)
                 in
                 arr (Value_index.attr_eq vi ~name_id:n ~value_id:v) = expect
                 && Value_index.attr_eq_count vi ~name_id:n ~value_id:v = Array.length expect)
               names)
        values)

(* Equality probes run per sampled tuple in index-NL joins: a hit and a
   miss both allocate nothing. *)
let test_value_index_alloc_free () =
  let engine, r = engine_and_doc {|<a><t>x</t><t>y</t><b v="x"/><b w="y"/></a>|} in
  let vi = r.Engine.values in
  let x = Option.get (Engine.value_id engine "x") in
  let y = Option.get (Engine.value_id engine "y") in
  let name_v = Option.get (Engine.qname_id engine "v") in
  let zero label f = Alcotest.(check (float 0.0)) label 0.0 (minor_words_of_calls 1000 f) in
  zero "text_eq hit" (fun () -> Value_index.text_eq vi x);
  zero "text_eq miss" (fun () -> Value_index.text_eq vi 1_000_000);
  zero "attr_eq hit" (fun () -> Value_index.attr_eq vi ~name_id:name_v ~value_id:x);
  zero "attr_eq miss" (fun () -> Value_index.attr_eq vi ~name_id:name_v ~value_id:y)

let test_value_index_range () =
  let _, r =
    engine_and_doc "<a><n>10</n><n>20</n><n>30</n><n>notnum</n><n>25.5</n></a>"
  in
  let vi = r.Engine.values in
  check_int "numeric count" 4 (Value_index.numeric_text_count vi);
  check_int "range [10,30]" 4 (Value_index.text_range_count vi ~lo:10.0 ~hi:30.0 ());
  check_int "range [15,26]" 2 (Value_index.text_range_count vi ~lo:15.0 ~hi:26.0 ());
  check_int "range (,19]" 1 (Value_index.text_range_count vi ~hi:19.0 ());
  check_int "range [21,)" 2 (Value_index.text_range_count vi ~lo:21.0 ());
  check_int "open range" 4 (Value_index.text_range_count vi ());
  let nodes = Value_index.text_range vi ~lo:15.0 ~hi:26.0 () in
  check_bool "sorted on pre" true (Rox_algebra.Nodeset.is_sorted_dedup (arr nodes));
  check_int "count = length" 2 (clen nodes)

let test_range_boundaries () =
  let _, r = engine_and_doc "<a><n>5</n><n>5</n><n>6</n></a>" in
  let vi = r.Engine.values in
  check_int "inclusive both" 3 (Value_index.text_range_count vi ~lo:5.0 ~hi:6.0 ());
  check_int "exactly 5" 2 (Value_index.text_range_count vi ~lo:5.0 ~hi:5.0 ());
  check_int "empty below" 0 (Value_index.text_range_count vi ~hi:4.9 ());
  check_int "empty above" 0 (Value_index.text_range_count vi ~lo:6.1 ())

(* "nan" parses as a float, but NaN is never numeric: it used to sort into
   the value array and be counted into every [hi]-bounded range. *)
let nan_xml = "<r><p>nan</p><p>3</p><p>NaN</p><p>7</p><p>-nan</p><p>1</p><p>9</p></r>"

let test_range_skips_nan () =
  let _, r = engine_and_doc nan_xml in
  let vi = r.Engine.values in
  check_int "numeric count" 4 (Value_index.numeric_text_count vi);
  Alcotest.check int_array "below 5" [| 5; 13 |]
    (arr (Value_index.text_range vi ~hi:(Float.pred 5.) ()));
  check_int "below 5 count" 2 (Value_index.text_range_count vi ~hi:(Float.pred 5.) ());
  Alcotest.check int_array "above 5" [| 9; 15 |]
    (arr (Value_index.text_range vi ~lo:(Float.succ 5.) ()));
  Alcotest.check int_array "open range" [| 5; 9; 13; 15 |] (arr (Value_index.text_range vi ()));
  check_int "NaN bound selects nothing" 0 (clen (Value_index.text_range vi ~lo:Float.nan ()));
  check_int "NaN bound counts nothing" 0 (Value_index.text_range_count vi ~hi:Float.nan ())

(* ---------- Sampling ---------- *)

let prop_sampling =
  qtest ~count:100 "sample: size, sorted, subset" QCheck.(pair small_int (int_range 0 50))
    (fun (seed, tau) ->
      let rng = Rox_util.Xoshiro.create seed in
      let table = col (Array.init 200 (fun i -> i * 3)) in
      let s = Sampling.sample rng table tau in
      clen s = min tau 200
      && Rox_algebra.Nodeset.is_sorted_dedup (arr s)
      && Array.for_all (fun x -> Rox_util.Column.mem table x) (arr s))

let test_sample_all () =
  let rng = Rox_util.Xoshiro.create 3 in
  let table = col [| 1; 5; 9 |] in
  check_bool "tau >= n copies" true (Rox_util.Column.equal (Sampling.sample rng table 10) table)

let test_sample_fraction () =
  let rng = Rox_util.Xoshiro.create 3 in
  let table = col (Array.init 100 (fun i -> i)) in
  check_int "half" 50 (clen (Sampling.sample_fraction rng table 0.5));
  check_int "at least one" 1 (clen (Sampling.sample_fraction rng table 0.0001));
  check_int "empty table" 0 (clen (Sampling.sample_fraction rng Rox_util.Column.empty 0.5))

(* Boundary and validation behavior of the sampling entry points. *)
let test_sampling_boundaries () =
  let rng = Rox_util.Xoshiro.create 5 in
  let table = col (Array.init 10 (fun i -> i)) in
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check_bool "negative tau rejected" true
    (raises (fun () -> Sampling.sample rng table (-1)));
  check_bool "fraction < 0 rejected" true
    (raises (fun () -> Sampling.sample_fraction rng table (-0.1)));
  check_bool "fraction > 1 rejected" true
    (raises (fun () -> Sampling.sample_fraction rng table 1.5));
  check_bool "fraction NaN rejected" true
    (raises (fun () -> Sampling.sample_fraction rng table Float.nan));
  check_int "tau 0 is empty" 0 (clen (Sampling.sample rng table 0));
  check_int "tau 0 of empty" 0 (clen (Sampling.sample rng Rox_util.Column.empty 0));
  check_int "fraction 0.0 is empty" 0
    (clen (Sampling.sample_fraction rng table 0.0));
  check_bool "fraction 1.0 is the whole table" true
    (Rox_util.Column.equal (Sampling.sample_fraction rng table 1.0) table);
  check_int "fraction 1.0 of empty" 0
    (clen (Sampling.sample_fraction rng Rox_util.Column.empty 1.0))

(* ---------- Engine ---------- *)

let test_engine_registry () =
  let engine = Engine.create () in
  let r0 = Engine.add_tree engine ~uri:"one.xml" (Rox_xmldom.Xml_parser.parse_string "<a/>") in
  let r1 = Engine.add_tree engine ~uri:"two.xml" (Rox_xmldom.Xml_parser.parse_string "<b/>") in
  check_int "ids in order" 0 (Doc.id r0.Engine.doc);
  check_int "ids in order" 1 (Doc.id r1.Engine.doc);
  check_int "count" 2 (Engine.doc_count engine);
  check_bool "find by uri" true (Engine.find_uri engine "two.xml" <> None);
  check_bool "find missing" true (Engine.find_uri engine "zzz.xml" = None);
  (match Engine.get engine 5 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "unknown id must fail")

let test_engine_shared_values () =
  let engine = Engine.create () in
  let r0 = Engine.add_tree engine ~uri:"a.xml" (Rox_xmldom.Xml_parser.parse_string "<a>shared</a>") in
  let r1 = Engine.add_tree engine ~uri:"b.xml" (Rox_xmldom.Xml_parser.parse_string "<b>shared</b>") in
  check_int "cross-doc value ids equal" (Doc.value_id r0.Engine.doc 2) (Doc.value_id r1.Engine.doc 2)

let suite =
  [
    Alcotest.test_case "element index" `Quick test_element_index;
    Alcotest.test_case "attr index" `Quick test_attr_index;
    prop_element_index_complete;
    Alcotest.test_case "kind index" `Quick test_kind_index;
    Alcotest.test_case "value index eq" `Quick test_value_index_eq;
    prop_value_index_eq;
    Alcotest.test_case "value index probes allocate nothing" `Quick test_value_index_alloc_free;
    Alcotest.test_case "value index range" `Quick test_value_index_range;
    Alcotest.test_case "range boundaries" `Quick test_range_boundaries;
    Alcotest.test_case "range skips NaN" `Quick test_range_skips_nan;
    prop_sampling;
    Alcotest.test_case "sample all" `Quick test_sample_all;
    Alcotest.test_case "sample fraction" `Quick test_sample_fraction;
    Alcotest.test_case "sampling boundaries" `Quick test_sampling_boundaries;
    Alcotest.test_case "engine registry" `Quick test_engine_registry;
    Alcotest.test_case "engine shared values" `Quick test_engine_shared_values;
  ]
