(* Cross-cutting property tests on random documents: operator equivalences
   and sampling invariants that the targeted suites don't cover. *)

open Rox_storage
open Rox_shred
open Rox_algebra
open Rox_joingraph
open Helpers

let random_engine seed =
  let engine, _ = engine_of_trees [ random_tree seed ] in
  (engine, Engine.get engine 0)

let random_context rng doc =
  let n = Doc.node_count doc in
  let k = 1 + Rox_util.Xoshiro.int rng (max 1 (n - 1)) in
  Rox_util.Xoshiro.sample_without_replacement rng n k

(* Step pairs are direction-independent: executing the reverse axis from
   the other side yields the same pair set. The engine only ever reverses
   an edge with the *target vertex's domain* as the new context, which is
   kind-restricted (attribute vertices hold attribute nodes, element/text
   vertices never do) — the test models that contract. *)
let prop_step_direction_symmetry =
  qtest ~count:80 "step pairs: forward = reverse" QCheck.(pair small_int small_int)
    (fun (seed, axis_pick) ->
      let _, r = random_engine seed in
      let doc = r.Engine.doc in
      let rng = Rox_util.Xoshiro.create (seed + 7) in
      let axis = Axis.all.(axis_pick mod Array.length Axis.all) in
      let is_attr p = Doc.kind doc p = Nodekind.Attr in
      let context =
        random_context rng doc |> Array.to_list
        |> List.filter (fun p -> not (is_attr p))
        |> Array.of_list |> col
      in
      let all = Kind_index.all r.Engine.kinds in
      let candidates =
        match axis with
        | Axis.Attribute -> Kind_index.lookup r.Engine.kinds Nodekind.Attr
        | _ -> col (Array.of_list (List.filter (fun p -> not (is_attr p)) (Array.to_list (arr all))))
      in
      let fwd = ref [] in
      Staircase.iter_pairs ~doc ~axis ~context ~candidates (fun _ c s ->
          fwd := (c, s) :: !fwd);
      let rev = ref [] in
      Staircase.iter_pairs ~doc ~axis:(Axis.reverse axis) ~context:candidates
        ~candidates:context (fun _ s c -> rev := (c, s) :: !rev);
      List.sort_uniq compare !fwd = List.sort_uniq compare !rev)

(* The cut-off estimate never underestimates the produced prefix, and the
   consumed fraction is sane. *)
let prop_cutoff_sanity =
  qtest ~count:100 "cutoff: est >= produced, 0 < fraction <= 1"
    QCheck.(triple small_int (int_range 1 50) (int_range 1 20))
    (fun (seed, limit, hits) ->
      let rng = Rox_util.Xoshiro.create seed in
      let outer_len = 1 + Rox_util.Xoshiro.int rng 30 in
      let cut =
        Cutoff.run ~limit ~outer_len ~iter:(fun emit ->
            for oi = 0 to outer_len - 1 do
              for h = 0 to hits - 1 do
                emit oi h
              done
            done)
      in
      cut.Cutoff.est >= float_of_int cut.Cutoff.produced -. 1e-9
      && cut.Cutoff.fraction > 0.0
      && cut.Cutoff.fraction <= 1.0
      && cut.Cutoff.produced <= limit + 0 (* the cut stops exactly at limit *)
      && (cut.Cutoff.completed || cut.Cutoff.produced = limit))

(* Value joins: all three algorithms produce the same pair set on random
   documents. *)
let prop_value_join_equivalence =
  qtest ~count:80 "value joins: hash = merge = index-NL" QCheck.small_int (fun seed ->
      let _, r = random_engine seed in
      let doc = r.Engine.doc in
      let texts = Kind_index.lookup r.Engine.kinds Nodekind.Text in
      if clen texts < 2 then true
      else begin
        let mid = clen texts / 2 in
        let left = Rox_util.Column.slice texts ~pos:0 ~len:mid in
        let right = Rox_util.Column.slice texts ~pos:mid ~len:(clen texts - mid) in
        let collect iter =
          let out = ref [] in
          iter (fun _ o i -> out := (o, i) :: !out);
          List.sort_uniq compare !out
        in
        let hash =
          collect (fun f ->
              Value_join.iter_hash ~outer_doc:doc ~outer:left ~inner_doc:doc ~inner:right f)
        in
        let merge =
          collect (fun f ->
              Value_join.iter_merge ~outer_doc:doc ~outer:left ~inner_doc:doc ~inner:right f)
        in
        let nl =
          collect (fun f ->
              Value_join.iter_index_nl ~outer_doc:doc ~outer:left
                ~inner:{ Value_join.docref = r; side = Value_join.Inner_text;
                         restrict = Some right }
                f)
        in
        hash = merge && merge = nl
      end)

(* Staircase with restricted candidates = staircase with all candidates
   intersected with the restriction. *)
let prop_staircase_restriction =
  qtest ~count:80 "staircase: restricted = intersect(full)" QCheck.(pair small_int small_int)
    (fun (seed, axis_pick) ->
      let _, r = random_engine seed in
      let doc = r.Engine.doc in
      let rng = Rox_util.Xoshiro.create (seed + 3) in
      let axis = Axis.all.(axis_pick mod Array.length Axis.all) in
      let context = col (random_context rng doc) in
      let all = Kind_index.all r.Engine.kinds in
      let restricted = Sampling.sample rng all (clen all / 2) in
      let direct = Staircase.join ~doc ~axis ~context restricted in
      let via_full =
        Nodeset.intersect (arr (Staircase.join ~doc ~axis ~context all)) (arr restricted)
      in
      arr direct = via_full)

(* Runtime semijoin consistency: after all edges execute, every vertex
   table equals the distinct column of the final relation. *)
let prop_tables_match_relation =
  qtest ~count:50 "T(v) = distinct final column" QCheck.small_int (fun seed ->
      let engine, _ = random_engine seed in
      let src = {|for $a in doc("doc0.xml")//a[./b] return $a|} in
      match Rox_xquery.Compile.compile_string engine src with
      | exception Rox_xquery.Compile.Unsupported _ -> true
      | compiled ->
        let result = Rox_core.Optimizer.run_default compiled in
        let rel = result.Rox_core.Optimizer.relation in
        let runtime = Rox_core.State.runtime result.Rox_core.Optimizer.state in
        Array.for_all
          (fun v ->
            match Runtime.table runtime v with
            | Some table -> Rox_util.Column.equal table (Relation.column_distinct rel v)
            | None -> true)
          (Relation.vertices rel))

(* Sampling from a table is a subset and deterministic per seed. *)
let prop_sampling_deterministic =
  qtest ~count:100 "index sampling deterministic per seed"
    QCheck.(pair small_int (int_range 1 200))
    (fun (seed, tau) ->
      let table = col (Array.init 500 (fun i -> 2 * i)) in
      let s1 = Sampling.sample (Rox_util.Xoshiro.create seed) table tau in
      let s2 = Sampling.sample (Rox_util.Xoshiro.create seed) table tau in
      Rox_util.Column.equal s1 s2)

(* of_unsorted normalizes any scratch array — including already-sorted
   inputs with duplicates, which take the linear no-sort path. *)
let prop_of_unsorted_normalizes =
  qtest ~count:200 "of_unsorted: sorted, deduped, same element set"
    QCheck.(pair small_int bool)
    (fun (seed, presorted) ->
      let rng = Rox_util.Xoshiro.create (seed + 11) in
      let n = Rox_util.Xoshiro.int rng 40 in
      (* Dense value range: duplicates are common. *)
      let a = Array.init n (fun _ -> Rox_util.Xoshiro.int rng 25) in
      if presorted then Array.sort compare a;
      let out = Nodeset.of_unsorted a in
      Nodeset.is_sorted_dedup out
      && List.sort_uniq compare (Array.to_list a) = Array.to_list out)

(* ---- columnar kernels vs the retained row-major reference -----------

   Every [Relation] kernel runs against [Relation.Naive], the seed's
   row-major implementation, on fuzzed relations. Widths 1..3 and row
   counts 0..24 over dense value ranges make zero-row, one-column and
   duplicate-heavy shapes all common; a dedicated variant forces the
   sorted on-column + grouped-pairs combination so [extend]'s merge path
   is exercised alongside its hash path. *)

module Naive = Relation.Naive

let xi = Rox_util.Xoshiro.int

let fuzz_naive rng ~base_vertex ~span =
  let w = 1 + xi rng 3 in
  let n = xi rng 25 in
  {
    Naive.verts = Array.init w (fun i -> base_vertex + i);
    data = Array.init (n * w) (fun _ -> xi rng span);
    nrows = n;
  }

let fuzz_pairs rng ~m ~lspan ~rspan =
  (Array.init m (fun _ -> xi rng lspan), Array.init m (fun _ -> xi rng rspan))

let cpairs (l, r) = { Exec.left = col l; right = col r }

let pick_vertex rng (r : Naive.r) =
  r.Naive.verts.(xi rng (Array.length r.Naive.verts))

let agree naive_out col_out = Relation.equal col_out (Naive.to_relation naive_out)

let prop_kernel_extend =
  qtest ~count:300 "columnar extend = naive extend (hash path)" QCheck.small_int
    (fun seed ->
      let rng = Rox_util.Xoshiro.create (seed + 201) in
      let span = 1 + xi rng 9 in
      let r = fuzz_naive rng ~base_vertex:0 ~span in
      let p = fuzz_pairs rng ~m:(xi rng 20) ~lspan:span ~rspan:50 in
      let on = pick_vertex rng r in
      agree
        (Naive.extend r ~on ~new_vertex:9 ~left:(fst p) ~right:(snd p))
        (Relation.extend (Naive.to_relation r) ~on ~new_vertex:9 (cpairs p)))

let prop_kernel_extend_merge =
  qtest ~count:300 "columnar extend = naive extend (merge path)" QCheck.small_int
    (fun seed ->
      let rng = Rox_util.Xoshiro.create (seed + 202) in
      let n = xi rng 25 in
      (* Strictly increasing on-column: detect sets the sorted flag, and
         the grouped pairs below steer [extend] onto its merge path. *)
      let r =
        {
          Naive.verts = [| 0; 1 |];
          data = Array.init (n * 2) (fun k -> if k mod 2 = 0 then k / 2 else xi rng 6);
          nrows = n;
        }
      in
      let m = xi rng 20 in
      let pl = Array.init m (fun _ -> xi rng (max n 1)) in
      Array.sort compare pl;
      let pr = Array.init m (fun i -> 100 + i) in
      agree
        (Naive.extend r ~on:0 ~new_vertex:9 ~left:pl ~right:pr)
        (Relation.extend (Naive.to_relation r) ~on:0 ~new_vertex:9 (cpairs (pl, pr))))

let prop_kernel_extend_too_large =
  qtest ~count:200 "extend Too_large parity with naive" QCheck.small_int
    (fun seed ->
      let rng = Rox_util.Xoshiro.create (seed + 203) in
      let span = 1 + xi rng 4 in
      let r = fuzz_naive rng ~base_vertex:0 ~span in
      let p = fuzz_pairs rng ~m:(10 + xi rng 10) ~lspan:span ~rspan:50 in
      let on = pick_vertex rng r in
      let max_rows = xi rng 12 in
      let run f = try `Ok (f ()) with Relation.Too_large n -> `Too_large n in
      let a =
        run (fun () ->
            Naive.extend r ~max_rows ~on ~new_vertex:9 ~left:(fst p) ~right:(snd p))
      in
      let b =
        run (fun () ->
            Relation.extend ~max_rows (Naive.to_relation r) ~on ~new_vertex:9 (cpairs p))
      in
      match (a, b) with
      | `Too_large x, `Too_large y -> x = y
      | `Ok x, `Ok y -> agree x y
      | _ -> false)

let prop_kernel_fuse =
  qtest ~count:300 "columnar fuse = naive fuse" QCheck.small_int
    (fun seed ->
      let rng = Rox_util.Xoshiro.create (seed + 204) in
      let span = 1 + xi rng 9 in
      let a = fuzz_naive rng ~base_vertex:0 ~span in
      let b = fuzz_naive rng ~base_vertex:10 ~span in
      let p = fuzz_pairs rng ~m:(xi rng 20) ~lspan:span ~rspan:span in
      let on_left = pick_vertex rng a and on_right = pick_vertex rng b in
      agree
        (Naive.fuse a b ~on_left ~on_right ~pl:(fst p) ~pr:(snd p))
        (Relation.fuse (Naive.to_relation a) (Naive.to_relation b) ~on_left ~on_right
           (cpairs p)))

let prop_kernel_filter_pairs =
  qtest ~count:300 "columnar filter_pairs = naive filter_pairs" QCheck.small_int
    (fun seed ->
      let rng = Rox_util.Xoshiro.create (seed + 205) in
      let span = 1 + xi rng 9 in
      let r = fuzz_naive rng ~base_vertex:0 ~span in
      let c1 = pick_vertex rng r and c2 = pick_vertex rng r in
      let p = fuzz_pairs rng ~m:(xi rng 25) ~lspan:span ~rspan:span in
      agree
        (Naive.filter_pairs r ~c1 ~c2 ~left:(fst p) ~right:(snd p))
        (Relation.filter_pairs (Naive.to_relation r) ~c1 ~c2 (cpairs p)))

let prop_kernel_unary =
  qtest ~count:300 "columnar distinct/sort_rows/project = naive" QCheck.small_int
    (fun seed ->
      let rng = Rox_util.Xoshiro.create (seed + 206) in
      (* Dense values: whole-row duplicates are common, so [distinct]
         really eliminates and [sort_rows] really reorders. *)
      let r = fuzz_naive rng ~base_vertex:0 ~span:(1 + xi rng 6) in
      let keep =
        let vs = Array.copy r.Naive.verts in
        for i = Array.length vs - 1 downto 1 do
          let j = xi rng (i + 1) in
          let t = vs.(i) in
          vs.(i) <- vs.(j);
          vs.(j) <- t
        done;
        Array.sub vs 0 (1 + xi rng (Array.length vs))
      in
      agree (Naive.distinct r) (Relation.distinct (Naive.to_relation r))
      && agree (Naive.sort_rows r) (Relation.sort_rows (Naive.to_relation r))
      && agree (Naive.project r keep) (Relation.project (Naive.to_relation r) keep))

let prop_kernel_cross =
  qtest ~count:200 "columnar cross = naive cross" QCheck.small_int
    (fun seed ->
      let rng = Rox_util.Xoshiro.create (seed + 207) in
      let a = fuzz_naive rng ~base_vertex:0 ~span:5 in
      let b = fuzz_naive rng ~base_vertex:10 ~span:5 in
      agree (Naive.cross a b) (Relation.cross (Naive.to_relation a) (Naive.to_relation b)))

let suite =
  [
    prop_step_direction_symmetry;
    prop_of_unsorted_normalizes;
    prop_cutoff_sanity;
    prop_value_join_equivalence;
    prop_staircase_restriction;
    prop_tables_match_relation;
    prop_sampling_deterministic;
    prop_kernel_extend;
    prop_kernel_extend_merge;
    prop_kernel_extend_too_large;
    prop_kernel_fuse;
    prop_kernel_filter_pairs;
    prop_kernel_unary;
    prop_kernel_cross;
  ]
