(* Inputs of the three benchmark workloads and the correctness oracle.

   Everything here is a pure function of the workload seed: the documents
   the engine loads and the query texts the benchmark sends. The program
   under test sees only those. *)

open Rox_workload
module Engine = Rox_storage.Engine
module Xoshiro = Rox_util.Xoshiro

(* XMark Q1 (op "<") and its mirror Qm1 (op ">"): Section 3.2's correlated
   example, where the best plan flips with the price threshold. *)
let q1_text ~op ~theta =
  Printf.sprintf
    {|let $d := doc("xmark.xml")
for $o in $d//open_auction[.//current/text() %s %d],
    $p in $d//person[.//province],
    $i in $d//item[./quantity = 1]
where $o//bidder//personref/@person = $p/@id and
      $o//itemref/@item = $i/@id
return $o|}
    op theta

let max_theta = 300

(* Document seeds are derived from the workload seed, so a seed names the
   whole input: documents and queries. *)
let doc_seed seed = 7 + (seed land 0xffff)

let xmark_engine ~seed ~scale =
  let engine = Engine.create () in
  ignore
    (Xmark.generate ~seed:(doc_seed seed) ~params:(Xmark.scaled scale) engine
       ~uri:"xmark.xml"
      : Engine.docref);
  engine

(* θ drawn uniformly within each of [strata] equal slices of [0, 300), once
   for Q1 and once for Qm1. Stratifying keeps the mix of cheap and
   expensive plans the same from seed to seed, which keeps the run-to-run
   spread of latency and throughput small; the seed still moves every θ. *)
let xmark_queries ~seed ~strata =
  let rng = Xoshiro.create (seed lxor 0x51) in
  let width = max_theta / strata in
  List.concat_map
    (fun i ->
      let theta op = (i * width) + Xoshiro.int rng width |> fun t -> (op, t) in
      [ theta "<"; theta ">" ])
    (List.init strata Fun.id)
  |> List.map (fun (op, theta) -> q1_text ~op ~theta)
  |> Array.of_list

(* The Table-3 venues at x1 from the generator's own master seed: the
   paper's one fixed dataset. *)
let dblp_engine () =
  let engine = Engine.create () in
  let loaded = Dblp.load engine (Array.to_list Dblp.venues) in
  (engine, loaded)

(* Author-join queries over every 2:2, 3:1 and 4:0 combination whose
   joint author set is non-empty (an empty join teaches nothing about
   ordering). All of them run in every run: per-seed subsets of them moved
   throughput by a fifth between seeds. The seed orders the run. *)
let dblp_queries loaded =
  let docref v =
    (List.find (fun l -> l.Dblp.venue.Dblp.name = v.Dblp.name) loaded).Dblp.docref
  in
  Combos.all_combinations Dblp.venues
  |> List.filter (fun (_, vs) -> Correlation.nonempty_joint (List.map docref vs))
  |> List.map (fun (_, vs) -> Dblp.query_for (List.map Dblp.uri_of vs))
  |> Array.of_list

(* The served mix: [rounds] x [strata] distinct (op, θ) pairs, the same
   for every seed, requested with Zipf(1) popularity by rank, so a small
   hot head takes most requests and a long tail keeps the cache evicting.
   Rank r takes stratum (r mod strata) of [0, 300), a θ offset that grows
   with its round, and alternating ops, so the hot head mixes cheap and
   expensive plans. Which queries are hot decides the cache hit ratio, so
   it is fixed; the seed draws the request sequence. *)
let served_texts ~strata ~rounds =
  let width = max_theta / strata in
  Array.init (strata * rounds) (fun rank ->
      let stratum = rank mod strata and round = rank / strata in
      let op = if (stratum + round) mod 2 = 0 then "<" else ">" in
      q1_text ~op ~theta:((stratum * width) + (round * width / rounds)))

let zipf_sampler ~seed n =
  let cdf = Array.make n 0.0 in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. (1.0 /. float_of_int (i + 1));
    cdf.(i) <- !total
  done;
  let rng = Xoshiro.create (seed lxor 0x21f) in
  fun () ->
    let u = Xoshiro.float rng *. !total in
    (* least i with cdf.(i) >= u *)
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) >= u then search lo mid else search (mid + 1) hi
    in
    search 0 (n - 1)

(* The oracle: a fixed plan — every edge in id order — through the
   classical executor, in a fresh default session with no cache and no
   sampling. It shares operators with ROX but none of its run-time
   decisions, and the benchmark's tests check it against the naive
   evaluator. *)
let reference engine text =
  let compiled = Rox_xquery.Compile.compile_string engine text in
  let edges = Array.to_list (Rox_joingraph.Graph.edges compiled.Rox_xquery.Compile.graph) in
  fst (Rox_classical.Executor.answer (Rox_core.Session.create ()) compiled edges)
