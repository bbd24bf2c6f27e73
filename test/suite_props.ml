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

(* Value joins: both algorithms produce the same pair set on random
   documents. *)
let prop_value_join_equivalence =
  qtest ~count:80 "value joins: hash = index-NL" QCheck.small_int (fun seed ->
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
        let nl =
          collect (fun f ->
              Value_join.iter_index_nl ~outer_doc:doc ~outer:left
                ~inner:{ Value_join.docref = r; side = Value_join.Inner_text;
                         restrict = Some right }
                f)
        in
        hash = nl
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
      let direct = Staircase.join ~sanitize ~doc ~axis ~context restricted in
      let via_full =
        Nodeset.intersect ~sanitize
          (arr (Staircase.join ~sanitize ~doc ~axis ~context all))
          (arr restricted)
      in
      arr direct = via_full)

(* ---- index-domain descriptors vs their candidate columns ----------- *)

(* A vertex with a described index domain, drawn from a random node so the
   domain is not empty: the node's element name, all texts or the texts of
   its value, its attribute name with or without its value, or the root
   for the remaining kinds. *)
let described_vertex rng doc =
  let open Rox_util in
  let p = 1 + Xoshiro.int rng (Doc.node_count doc - 1) in
  let eq () = if Xoshiro.int rng 2 = 0 then Some (Selection.Eq (Doc.value doc p)) else None in
  let annot =
    match Doc.kind doc p with
    | Nodekind.Elem -> Vertex.Element (Doc.name doc p)
    | Nodekind.Text -> Vertex.Text (eq ())
    | Nodekind.Attr -> Vertex.Attr (Doc.name doc p, eq ())
    | Nodekind.Doc | Nodekind.Comment | Nodekind.Pi -> Vertex.Root
  in
  { Vertex.id = 0; doc_id = 0; annot }

(* Membership tested on the document's columns is the column path exactly:
   the same pair sequence and work units on every axis, the same Cutoff.t
   at any limit, and the same results through Exec's sampled and full
   step evaluation (which, under ROX_SANITIZE=1, cross-check the two
   paths themselves as RX306). Self and Ancestor steps from every node
   also put each node through the membership test. *)
let prop_index_domain_walk =
  qtest ~count:400 "staircase: index-domain descriptor = candidate column"
    QCheck.(quad small_int small_int small_int (int_range 1 40))
    (fun (seed, axis_pick, vertex_pick, limit) ->
      let engine, r = random_engine seed in
      let doc = r.Engine.doc in
      let rng = Rox_util.Xoshiro.create ((seed * 7919) + vertex_pick) in
      let axis = Axis.all.(axis_pick mod Array.length Axis.all) in
      let v = described_vertex rng doc in
      let candidates, domain = Exec.index_domain engine v in
      let context = col (random_context rng doc) in
      let metered f =
        let counter = Cost.new_counter () in
        let result = f (Some (Cost.execution_meter counter)) in
        (result, Cost.total counter)
      in
      let pairs ?domain (axis, context) =
        metered (fun meter ->
            let out = ref [] in
            Staircase.iter_pairs ?meter ?domain ~doc ~axis ~context ~candidates
              (fun cidx c s -> out := (cidx, c, s) :: !out);
            !out)
      in
      let every_node = col (Array.init (Doc.node_count doc) Fun.id) in
      let steps = [ (axis, context); (Axis.Self, every_node); (Axis.Ancestor, every_node) ] in
      let cut ?domain () =
        metered (fun meter ->
            Cutoff.run ~limit ~outer_len:(clen context) ~iter:(fun emit ->
                Staircase.iter_pairs ?meter ?domain ~doc ~axis ~context ~candidates
                  (fun cidx _ s -> emit cidx s)))
      in
      let g = Graph.create () in
      let outer = Graph.add_vertex g ~doc_id:0 Vertex.Root in
      let inner = Graph.add_vertex g ~doc_id:0 v.Vertex.annot in
      let e = Graph.add_edge g ~v1:outer.Vertex.id ~v2:inner.Vertex.id (Edge.Step axis) in
      let sampled inner_table =
        metered (fun meter ->
            Exec.sampled ~sanitize ?meter engine g e ~outer:Exec.From_v1 ~sample:context ~inner_table
              ~limit)
      in
      let full ?t2_domain () =
        metered (fun meter ->
            Exec.full_pairs ~sanitize ?meter ~variant:(Exec.Step_from Exec.From_v1) ?t2_domain
              engine g e ~t1:context ~t2:candidates)
      in
      let cut_d, units_d = cut ?domain () and cut_c, units_c = cut () in
      let sampled_d, sunits_d = sampled None
      and sampled_c, sunits_c = sampled (Some candidates) in
      let full_d, funits_d = full ?t2_domain:domain () and full_c, funits_c = full () in
      Option.is_some domain
      && List.for_all (fun step -> pairs ?domain step = pairs step) steps
      && Cutoff.equal cut_d cut_c && units_d = units_c
      && Cutoff.equal sampled_d sampled_c && sunits_d = sunits_c
      && Rox_util.Column.equal full_d.Exec.left full_c.Exec.left
      && Rox_util.Column.equal full_d.Exec.right full_c.Exec.right
      && funits_d = funits_c)

(* Runtime semijoin consistency: after all edges execute, every vertex
   table equals the distinct column of the final relation (the XMark and
   DBLP shapes of this property are in the fuzz suite). *)
let prop_tables_match_relation =
  qtest ~count:50 "T(v) = distinct final column" QCheck.small_int (fun seed ->
      let engine, _ = random_engine seed in
      let src = {|for $a in doc("doc0.xml")//a[./b] return $a|} in
      match Rox_xquery.Compile.compile_string engine src with
      | exception Rox_xquery.Compile.Unsupported _ -> true
      | compiled -> tables_match_relation (Rox_core.Optimizer.run_default compiled))

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
      let out = Nodeset.of_unsorted ~sanitize a in
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

let by_left (l, r) =
  let sorted =
    List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.combine (Array.to_list l) (Array.to_list r))
  in
  (Array.of_list (List.map fst sorted), Array.of_list (List.map snd sorted))

(* The kernels' [?keep]: none half the time, else a seeded subset of the
   output vertices (often empty). The reference keeps the accepted
   vertices, or the first output column when it accepts none. *)
let fuzz_keep rng =
  if Rox_util.Xoshiro.bool rng then None
  else
    let salt = xi rng 3 in
    Some (fun v -> (v + salt) mod 3 = 0)

let naive_keep keep (n : Naive.r) =
  match keep with
  | None -> n
  | Some f ->
    let vs = List.filter f (Array.to_list n.Naive.verts) in
    Naive.project n (Array.of_list (if vs = [] then [ n.Naive.verts.(0) ] else vs))

let prop_kernel_extend =
  qtest ~count:300 "columnar extend = naive extend (hash path)" QCheck.small_int
    (fun seed ->
      let rng = Rox_util.Xoshiro.create (seed + 201) in
      let span = 1 + xi rng 9 in
      let r = fuzz_naive rng ~base_vertex:0 ~span in
      let p = fuzz_pairs rng ~m:(xi rng 20) ~lspan:span ~rspan:50 in
      let on = pick_vertex rng r in
      (* Pairs sorted by left key, pair order kept within a key: each key's
         pairs are one contiguous run, the CSR's grouped shape. *)
      let p = if Rox_util.Xoshiro.bool rng then by_left p else p in
      let keep = fuzz_keep rng in
      agree
        (naive_keep keep (Naive.extend r ~on ~new_vertex:9 ~left:(fst p) ~right:(snd p)))
        (Relation.extend ~sanitize ?keep (Naive.to_relation r) ~on ~new_vertex:9 (cpairs p)))

let prop_kernel_extend_merge =
  qtest ~count:300 "columnar extend = naive extend (merge path)" QCheck.small_int
    (fun seed ->
      let rng = Rox_util.Xoshiro.create (seed + 202) in
      let n = xi rng 25 in
      (* Non-decreasing on-column — strictly increasing or with repeated
         keys — and the grouped pairs below steer [extend] onto its merge
         path. *)
      let step = if Rox_util.Xoshiro.bool rng then 2 else 1 in
      let r =
        {
          Naive.verts = [| 0; 1 |];
          data = Array.init (n * 2) (fun k -> if k mod 2 = 0 then k / step else xi rng 6);
          nrows = n;
        }
      in
      let m = xi rng 20 in
      let pl = Array.init m (fun _ -> xi rng (max n 1)) in
      Array.sort compare pl;
      let pr = Array.init m (fun i -> 100 + i) in
      agree
        (Naive.extend r ~on:0 ~new_vertex:9 ~left:pl ~right:pr)
        (Relation.extend ~sanitize (Naive.to_relation r) ~on:0 ~new_vertex:9 (cpairs (pl, pr))))

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
            Relation.extend ~sanitize ~max_rows (Naive.to_relation r) ~on ~new_vertex:9 (cpairs p))
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
      (* Sorted rows: equal keys of the first column sit together. *)
      let a = if Rox_util.Xoshiro.bool rng then Naive.sort_rows a else a in
      let keep = fuzz_keep rng in
      agree
        (naive_keep keep (Naive.fuse a b ~on_left ~on_right ~pl:(fst p) ~pr:(snd p)))
        (Relation.fuse ~sanitize ?keep (Naive.to_relation a) (Naive.to_relation b) ~on_left
           ~on_right (cpairs p)))

let prop_kernel_filter_pairs =
  qtest ~count:300 "columnar filter_pairs = naive filter_pairs" QCheck.small_int
    (fun seed ->
      let rng = Rox_util.Xoshiro.create (seed + 205) in
      let span = 1 + xi rng 9 in
      let r = fuzz_naive rng ~base_vertex:0 ~span in
      let c1 = pick_vertex rng r and c2 = pick_vertex rng r in
      let p = fuzz_pairs rng ~m:(xi rng 25) ~lspan:span ~rspan:span in
      let keep = fuzz_keep rng in
      agree
        (naive_keep keep (Naive.filter_pairs r ~c1 ~c2 ~left:(fst p) ~right:(snd p)))
        (Relation.filter_pairs ~sanitize ?keep (Naive.to_relation r) ~c1 ~c2 (cpairs p)))

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
      agree (Naive.distinct r) (Relation.distinct ~sanitize (Naive.to_relation r))
      && agree (Naive.sort_rows r) (Relation.sort_rows ~sanitize (Naive.to_relation r))
      && agree (Naive.project r keep) (Relation.project ~sanitize (Naive.to_relation r) keep))

let prop_kernel_cross =
  qtest ~count:200 "columnar cross = naive cross" QCheck.small_int
    (fun seed ->
      let rng = Rox_util.Xoshiro.create (seed + 207) in
      let a = fuzz_naive rng ~base_vertex:0 ~span:5 in
      let b = fuzz_naive rng ~base_vertex:10 ~span:5 in
      agree (Naive.cross a b)
        (Relation.cross ~sanitize (Naive.to_relation a) (Naive.to_relation b)))

(* ---- identity and unique-key shapes ---------------------------------

   When a kernel's output rows are exactly its input's rows in order, the
   input's columns are carried by pointer (sorted flags included); the
   runtime's T(v) refresh relies on that physical identity. Every on-key
   below has exactly one pair (the unique-key grouping path), so every row
   matches once; dropping the pair of one present key loses a row, and
   then every column must be rebuilt. *)

let carried ~from out =
  Array.for_all
    (fun v ->
      let a = Relation.column from v and b = Relation.column out v in
      a == b && Rox_util.Column.sorted a = Rox_util.Column.sorted b)
    (Relation.vertices from)

let copied ~from out =
  Array.for_all
    (fun v -> Relation.column from v != Relation.column out v)
    (Relation.vertices from)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = xi rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Distinct keys of column [c] of [r], in first-occurrence order. *)
let keys_of (r : Naive.r) c =
  let w = Array.length r.Naive.verts in
  let seen = Hashtbl.create 16 in
  List.rev
    (List.fold_left
       (fun acc i ->
         let k = r.Naive.data.((i * w) + c) in
         if Hashtbl.mem seen k then acc else (Hashtbl.replace seen k (); k :: acc))
       [] (List.init r.Naive.nrows Fun.id))
  |> Array.of_list

let prop_kernel_extend_carry =
  qtest ~count:300 "extend carries unchanged columns (hash + merge paths)" QCheck.small_int
    (fun seed ->
      let rng = Rox_util.Xoshiro.create (seed + 208) in
      let merge = Rox_util.Xoshiro.bool rng in
      let r =
        if merge then begin
          (* Strictly increasing on-column 0 and sorted pairs: merge path. *)
          let n = xi rng 25 in
          {
            Naive.verts = [| 0; 1 |];
            data = Array.init (n * 2) (fun k -> if k mod 2 = 0 then 3 * (k / 2) else xi rng 6);
            nrows = n;
          }
        end
        else fuzz_naive rng ~base_vertex:0 ~span:(1 + xi rng 9)
      in
      let c = if merge then 0 else xi rng (Array.length r.Naive.verts) in
      let on = r.Naive.verts.(c) in
      (* One pair per present key, plus unique keys no row holds. *)
      let keys = Array.append (keys_of r c) (Array.init (xi rng 4) (fun i -> 1000 + i)) in
      if merge then Array.sort compare keys else shuffle rng keys;
      let run keys =
        let pr = Array.mapi (fun i _ -> 500 + i) keys in
        let rel = Naive.to_relation r in
        let out = Relation.extend ~sanitize rel ~on ~new_vertex:9 (cpairs (keys, pr)) in
        (rel, out, agree (Naive.extend r ~on ~new_vertex:9 ~left:keys ~right:pr) out)
      in
      let rel, out, ok = run keys in
      ok && carried ~from:rel out
      &&
      if r.Naive.nrows = 0 then true
      else begin
        let w = Array.length r.Naive.verts in
        let gone = r.Naive.data.((xi rng r.Naive.nrows * w) + c) in
        let rel, out, ok = run (Array.of_list (List.filter (( <> ) gone) (Array.to_list keys))) in
        ok && copied ~from:rel out
      end)

let prop_kernel_fuse_carry =
  qtest ~count:300 "fuse carries an unchanged side" QCheck.small_int (fun seed ->
      let rng = Rox_util.Xoshiro.create (seed + 209) in
      let n = xi rng 20 in
      (* Column 0 of each side holds distinct keys in shuffled order. *)
      let side base =
        let keys = Array.init n (fun i -> 2 * i) in
        shuffle rng keys;
        let w = 1 + xi rng 3 in
        {
          Naive.verts = Array.init w (fun i -> base + i);
          data = Array.init (n * w) (fun k -> if k mod w = 0 then keys.(k / w) else xi rng 5);
          nrows = n;
        }
      in
      let a = side 0 and b = side 10 in
      (* Pair k joins left row k with right row perm.(k): left rows come out
         in order, right rows in [perm] order. *)
      let perm = Array.init n Fun.id in
      if Rox_util.Xoshiro.bool rng then shuffle rng perm;
      let pl = Array.init n (fun k -> a.Naive.data.(k * Array.length a.Naive.verts)) in
      let pr = Array.init n (fun k -> b.Naive.data.(perm.(k) * Array.length b.Naive.verts)) in
      let run pl pr =
        let ra = Naive.to_relation a and rb = Naive.to_relation b in
        let out = Relation.fuse ~sanitize ra rb ~on_left:0 ~on_right:10 (cpairs (pl, pr)) in
        (ra, rb, out, agree (Naive.fuse a b ~on_left:0 ~on_right:10 ~pl ~pr) out)
      in
      let ra, rb, out, ok = run pl pr in
      let in_order = Array.for_all2 ( = ) perm (Array.init n Fun.id) in
      ok && carried ~from:ra out
      && (if in_order then carried ~from:rb out else copied ~from:rb out)
      &&
      if n = 0 then true
      else begin
        let k = xi rng n in
        let drop a = Array.of_list (List.filteri (fun i _ -> i <> k) (Array.to_list a)) in
        let ra, rb, out, ok = run (drop pl) (drop pr) in
        ok && copied ~from:ra out && copied ~from:rb out
      end)

let suite =
  [
    prop_step_direction_symmetry;
    prop_of_unsorted_normalizes;
    prop_cutoff_sanity;
    prop_value_join_equivalence;
    prop_staircase_restriction;
    prop_index_domain_walk;
    prop_tables_match_relation;
    prop_sampling_deterministic;
    prop_kernel_extend;
    prop_kernel_extend_merge;
    prop_kernel_extend_too_large;
    prop_kernel_fuse;
    prop_kernel_filter_pairs;
    prop_kernel_unary;
    prop_kernel_cross;
    prop_kernel_extend_carry;
    prop_kernel_fuse_carry;
  ]
