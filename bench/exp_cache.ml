(* E-cache — cross-query cache effectiveness. The same XMark query family
   is evaluated twice against one shared [Rox_cache.Store]: the first pass
   populates the relation and estimate caches, the second pass should
   answer mostly from them. We measure how many physical joins each pass
   actually ran (executed edges minus relation-cache hits), prove the
   answers bit-identical to cache-off runs, and — with the sanitizer
   armed for the cached passes — have every single hit cross-checked
   against a fresh execution. Results land in BENCH_cache.json for
   `make bench-smoke`. *)

open Rox_xquery
open Rox_core
open Bench_common
module Sink = Rox_telemetry.Sink
module Store = Rox_cache.Store

let queries ~full =
  let thresholds = if full then [ 100; 145; 200; 300 ] else [ 145; 300 ] in
  List.concat_map (fun t -> [ q1_query "<" t; q1_query ">" t ]) thresholds

type qrun = {
  answer : int array;
  work : int;
  executed : int;       (* edges in the execution order *)
  physical : int;       (* joins actually run (executed - relation hits) *)
  rel_lookups : int;
  rel_hits : int;
  est_lookups : int;
  est_hits : int;
}

let run_query ?sanitize ?cache engine source =
  let compiled = Compile.compile_string engine source in
  let config =
    match sanitize with
    | None -> Session.default_config ()
    | Some s -> { (Session.default_config ()) with Session.sanitize = s }
  in
  let sink = Sink.create ~enabled:true () in
  let session = Session.create ~config ?cache ~telemetry:sink () in
  let answer, result = Optimizer.answer session compiled in
  let rel_hits = Sink.cache_hits ~store:`Relation sink in
  let executed = List.length (Sink.execution_order sink) in
  {
    answer;
    work = Rox_algebra.Cost.total result.Optimizer.counter;
    executed;
    physical = executed - rel_hits;
    rel_lookups = Sink.cache_lookups ~store:`Relation sink;
    rel_hits;
    est_lookups = Sink.cache_lookups ~store:`Estimate sink;
    est_hits = Sink.cache_hits ~store:`Estimate sink;
  }

let sum f runs = List.fold_left (fun a r -> a + f r) 0 runs

let pass_line name runs =
  Printf.printf
    "%-10s physical joins %3d / %3d executed; relation hits %3d/%3d; estimate hits %4d/%4d; work %s\n"
    name (sum (fun r -> r.physical) runs)
    (sum (fun r -> r.executed) runs)
    (sum (fun r -> r.rel_hits) runs)
    (sum (fun r -> r.rel_lookups) runs)
    (sum (fun r -> r.est_hits) runs)
    (sum (fun r -> r.est_lookups) runs)
    (Rox_util.Table_fmt.human_int (sum (fun r -> r.work) runs))

let json_file = "BENCH_cache.json"

let run ~full () =
  header "Cache: cross-query reuse of materialized joins and sample estimates";
  let factor = if full then 0.1 else 0.05 in
  let engine = xmark_engine ~factor () in
  let qs = queries ~full in
  Printf.printf "workload: %d XMark q1-family queries, factor %g, shared 32 MiB store\n"
    (List.length qs) factor;
  (* Cache-off baseline: the ground truth the cached passes must match. *)
  let base = List.map (fun q -> run_query engine q) qs in
  (* Cached passes run with the sanitizer armed: every cache hit is
     re-executed fresh and compared bit-for-bit (Cache_consistent / RX304),
     exactly what ROX_SANITIZE=1 arms from the environment. *)
  let store = Store.of_megabytes engine 32 in
  let pass1 = List.map (fun q -> run_query ~sanitize:true ~cache:store engine q) qs in
  let pass2 = List.map (fun q -> run_query ~sanitize:true ~cache:store engine q) qs in
  let identical =
    List.for_all2 (fun a b -> a.answer = b.answer) base pass1
    && List.for_all2 (fun a b -> a.answer = b.answer) base pass2
  in
  subheader "per-pass totals";
  pass_line "cache-off" base;
  pass_line "pass 1" pass1;
  pass_line "pass 2" pass2;
  let p1 = sum (fun r -> r.physical) pass1 in
  let p2 = sum (fun r -> r.physical) pass2 in
  let reduction = float_of_int p1 /. float_of_int (max 1 p2) in
  let base_work = sum (fun r -> r.work) base in
  let pass2_work = sum (fun r -> r.work) pass2 in
  let speedup = float_of_int base_work /. float_of_int (max 1 pass2_work) in
  let stats = Store.stats store in
  subheader "verdict";
  Printf.printf "answers bit-identical to cache-off: %b (every hit sanitizer-checked)\n"
    identical;
  Printf.printf "physical joins: pass 1 ran %d, pass 2 ran %d (%.1fx fewer)\n" p1 p2
    reduction;
  Printf.printf "work (charged operations): %s off-cache vs %s warm (%.2fx)\n"
    (Rox_util.Table_fmt.human_int base_work)
    (Rox_util.Table_fmt.human_int pass2_work)
    speedup;
  print_string (Store.stats_to_string stats);
  let oc = open_out json_file in
  Printf.fprintf oc "{\n  %s,\n" (machine_json ~domains_used:1);
  Printf.fprintf oc
    {|  "experiment": "cache",
  "workload": "xmark q1 family",
  "queries": %d,
  "xmark_factor": %g,
  "bit_identical": %b,
  "sanitizer_checked_hits": true,
  "pass1": { "physical_joins": %d, "executed_edges": %d,
             "relation_hits": %d, "relation_lookups": %d,
             "estimate_hits": %d, "estimate_lookups": %d, "work": %d },
  "pass2": { "physical_joins": %d, "executed_edges": %d,
             "relation_hits": %d, "relation_lookups": %d,
             "estimate_hits": %d, "estimate_lookups": %d, "work": %d },
  "join_reduction": %.2f,
  "work_speedup": %.2f,
  "relation_store": { "entries": %d, "bytes": %d, "evictions": %d },
  "estimate_store": { "entries": %d, "bytes": %d, "evictions": %d }
}
|}
    (List.length qs) factor identical p1
    (sum (fun r -> r.executed) pass1)
    (sum (fun r -> r.rel_hits) pass1)
    (sum (fun r -> r.rel_lookups) pass1)
    (sum (fun r -> r.est_hits) pass1)
    (sum (fun r -> r.est_lookups) pass1)
    (sum (fun r -> r.work) pass1)
    p2
    (sum (fun r -> r.executed) pass2)
    (sum (fun r -> r.rel_hits) pass2)
    (sum (fun r -> r.rel_lookups) pass2)
    (sum (fun r -> r.est_hits) pass2)
    (sum (fun r -> r.est_lookups) pass2)
    pass2_work reduction speedup stats.Store.relations.Rox_cache.Lru.entries
    stats.Store.relations.Rox_cache.Lru.bytes
    stats.Store.relations.Rox_cache.Lru.evictions
    stats.Store.estimates.Rox_cache.Lru.entries
    stats.Store.estimates.Rox_cache.Lru.bytes
    stats.Store.estimates.Rox_cache.Lru.evictions;
  close_out oc;
  Printf.printf "\nwrote %s\n" json_file;
  if not identical then failwith "cache-on answers differ from cache-off";
  if p2 * 2 > p1 then
    Printf.eprintf "WARNING: warm pass ran more than half the joins of the cold pass\n"
