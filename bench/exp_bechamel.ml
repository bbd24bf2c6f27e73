(* E10 — Table 1 validation: bechamel micro-benchmarks of the physical
   operator kernels each experiment leans on. One Test.make per paper
   artifact: the staircase joins (Table 1 / Figs 1-3), the value-index
   lookups (Table 1), the index-NL equi-join (Figs 4-7 joins), cut-off
   sampled execution (Table 2 / Fig 8) — also with its inner side an
   untouched index domain — and relation maintenance (Fig 5
   intermediates). *)

open Bechamel
open Bechamel.Toolkit
open Rox_storage
open Rox_algebra
open Bench_common

let make_tests () =
  let engine = xmark_engine ~factor:0.5 () in
  let r = Engine.get engine 0 in
  let doc = r.Engine.doc in
  let auctions = Element_index.lookup_name r.Engine.elements "open_auction" in
  let bidders = Element_index.lookup_name r.Engine.elements "bidder" in
  let persons = Element_index.lookup_name r.Engine.elements "person" in
  let person_attrs = Element_index.lookup_attr_name r.Engine.elements "person" in
  let rng = Rox_util.Xoshiro.create 5 in
  let sample100 = Sampling.sample rng auctions 100 in
  let id_name = Option.get (Engine.qname_id engine "id") in
  let staircase_desc =
    Test.make ~name:"staircase descendant (Fig1-3 steps)"
      (Staged.stage (fun () ->
           Staircase.join ~sanitize:false ~doc ~axis:Axis.Descendant ~context:sample100
             bidders))
  in
  let staircase_child =
    Test.make ~name:"staircase child (Table 1)"
      (Staged.stage (fun () ->
           Staircase.join ~sanitize:false ~doc ~axis:Axis.Child ~context:sample100 bidders))
  in
  let staircase_anc =
    Test.make ~name:"staircase ancestor (Table 1)"
      (Staged.stage (fun () ->
           Staircase.join ~sanitize:false ~doc ~axis:Axis.Ancestor ~context:bidders
             auctions))
  in
  let index_lookup =
    Test.make ~name:"element index lookup (Table 1 Delt)"
      (Staged.stage (fun () -> Element_index.lookup_name r.Engine.elements "person"))
  in
  let value_join =
    Test.make ~name:"index-NL value join (Fig 4-7 equi-joins)"
      (Staged.stage (fun () ->
           let inner =
             { Value_join.docref = r; side = Value_join.Inner_attr id_name; restrict = None }
           in
           let n = ref 0 in
           Value_join.iter_index_nl ~outer_doc:doc
             ~outer:
               (Rox_util.Column.slice person_attrs ~pos:0
                  ~len:(min 100 (Rox_util.Column.length person_attrs)))
             ~inner
             (fun _ _ _ -> incr n);
           !n))
  in
  let cutoff_sample =
    Test.make ~name:"cut-off sampled step (Table 2 / Fig 8)"
      (Staged.stage (fun () ->
           Cutoff.run ~limit:100 ~outer_len:(Rox_util.Column.length sample100) ~iter:(fun emit ->
               Staircase.iter_pairs ~doc ~axis:Axis.Descendant ~context:sample100
                 ~candidates:bidders (fun cidx _ s -> emit cidx s))))
  in
  (* Sampled steps whose inner side is an untouched index domain, the
     shape of the DBLP author/text steps: a 100-name sample to its text
     children (one each: a 1-node walk against a search over every text
     node), and those texts back to their name parents (a descriptor test
     against a search over every name). Each runs on the candidate column,
     the path before index-domain descriptors, and with the descriptor. *)
  let index_domain annot =
    Rox_joingraph.Exec.index_domain engine { Rox_joingraph.Vertex.id = 0; doc_id = 0; annot }
  in
  let names, name_domain = index_domain (Rox_joingraph.Vertex.Element "name") in
  let texts, text_domain = index_domain (Rox_joingraph.Vertex.Text None) in
  let name_sample = Sampling.sample rng names 100 in
  let name_texts =
    Staircase.join ~sanitize:false ~doc ~axis:Axis.Child ~context:name_sample texts
  in
  let sampled_step label ~axis ~context ~candidates domain =
    Test.make ~name:label
      (Staged.stage (fun () ->
           Cutoff.run ~limit:100 ~outer_len:(Rox_util.Column.length context) ~iter:(fun emit ->
               Staircase.iter_pairs ?domain ~doc ~axis ~context ~candidates (fun cidx _ s ->
                   emit cidx s))))
  in
  let domain_steps =
    [
      sampled_step "sampled child step name/text(), column search" ~axis:Axis.Child
        ~context:name_sample ~candidates:texts None;
      sampled_step "sampled child step name/text(), index-domain walk" ~axis:Axis.Child
        ~context:name_sample ~candidates:texts text_domain;
      sampled_step "sampled parent step text()/name, column search" ~axis:Axis.Parent
        ~context:name_texts ~candidates:names None;
      sampled_step "sampled parent step text()/name, index-domain test" ~axis:Axis.Parent
        ~context:name_texts ~candidates:names name_domain;
    ]
  in
  let relation_extend =
    let base = Rox_joingraph.Relation.singleton ~vertex:0 auctions in
    let pairs =
      let lefts = Rox_util.Int_vec.create () and rights = Rox_util.Int_vec.create () in
      Staircase.iter_pairs ~doc ~axis:Axis.Descendant ~context:auctions ~candidates:bidders
        (fun _ c s ->
          Rox_util.Int_vec.push lefts c;
          Rox_util.Int_vec.push rights s);
      { Rox_joingraph.Exec.left =
          Rox_util.Column.unsafe_of_array_detect (Rox_util.Int_vec.to_array lefts);
        right =
          Rox_util.Column.unsafe_of_array_detect (Rox_util.Int_vec.to_array rights) }
    in
    Test.make ~name:"relation extend (Fig 5 intermediates)"
      (Staged.stage (fun () ->
           Rox_joingraph.Relation.extend ~sanitize:false base ~on:0 ~new_vertex:1 pairs))
  in
  let sampling_draw =
    Test.make ~name:"index sampling tau=100 (Sec 2.3)"
      (Staged.stage (fun () -> Sampling.sample rng persons 100))
  in
  (* The per-probe primitives under sampling: a staircase range lookup's
     binary search, a tau=100 position draw, an index-NL equality probe. *)
  let lower_bound_100 =
    let candidates = Rox_util.Column.read bidders in
    let probes = Rox_util.Column.read sample100 in
    Test.make ~name:"Bin_search.lower_bound x100 (staircase probe)"
      (Staged.stage (fun () ->
           let acc = ref 0 in
           Array.iter (fun x -> acc := !acc + Rox_util.Bin_search.lower_bound candidates x) probes;
           !acc))
  in
  let sample_positions =
    Test.make ~name:"Xoshiro.sample_without_replacement n=551 k=100"
      (Staged.stage (fun () -> Rox_util.Xoshiro.sample_without_replacement rng 551 100))
  in
  let attr_probe =
    let value_ids =
      Array.init (min 100 (Rox_util.Column.length person_attrs)) (fun i ->
          Rox_shred.Doc.value_id doc (Rox_util.Column.get person_attrs i))
    in
    Test.make ~name:"Value_index.attr_eq x100 (index-NL probes)"
      (Staged.stage (fun () ->
           let acc = ref 0 in
           Array.iter
             (fun value_id ->
               acc :=
                 !acc
                 + Rox_util.Column.length
                     (Value_index.attr_eq r.Engine.values ~name_id:id_name ~value_id))
             value_ids;
           !acc))
  in
  Test.make_grouped ~name:"kernels"
    ([ staircase_desc; staircase_child; staircase_anc; index_lookup; value_join;
       cutoff_sample; relation_extend; sampling_draw; lower_bound_100; sample_positions;
       attr_probe ]
    @ domain_steps)

let run () =
  header "Bechamel micro-benchmarks of the physical operator kernels";
  let tests = make_tests () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let time_ns =
        match Analyze.OLS.estimates ols_result with
        | Some (t :: _) -> t
        | _ -> nan
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with Some r -> r | None -> nan
      in
      rows :=
        [ name;
          (if time_ns > 1e6 then Printf.sprintf "%.2f ms" (time_ns /. 1e6)
           else if time_ns > 1e3 then Printf.sprintf "%.2f us" (time_ns /. 1e3)
           else Printf.sprintf "%.0f ns" time_ns);
          Printf.sprintf "%.4f" r2 ]
        :: !rows)
    results;
  Rox_util.Table_fmt.print ~header:[ "kernel"; "time/run"; "r^2" ]
    (List.sort compare !rows)
