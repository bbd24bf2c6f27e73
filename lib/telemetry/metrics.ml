type counter = {
  c_name : string;
  c_help : string;
  mutable c_value : int;
}

type gauge = {
  g_name : string;
  g_help : string;
  mutable g_value : float;
}

let n_buckets = 62

type histogram = {
  h_name : string;
  h_help : string;
  mutable h_count : int;
  mutable h_sum : int;
  h_buckets : int array;
}

type t = {
  compile_ns : histogram;
  query_ns : histogram;
  edge_execution_ns : histogram;
  chain_round_ns : histogram;
  sampled_run_ns : histogram;
  sampling_time_ns : counter;
  execution_time_ns : counter;
  relation_cache_hits : counter;
  relation_cache_misses : counter;
  estimate_cache_hits : counter;
  estimate_cache_misses : counter;
  rows_materialized : counter;
  pairs_emitted : counter;
  edges_executed : counter;
  chain_rounds : counter;
  queries_served : counter;
  budget_aborts : counter;
  spans_dropped : counter;
  aggregate_merges : counter;
  requests_received : counter;
  responses_sent : counter;
  admission_rejects : counter;
  queue_wait_ns : histogram;
  serve_ns : histogram;
  cache_resident_bytes : gauge;
  cache_lock_waits : gauge;
  queue_depth : gauge;
}

let counter name help = { c_name = name; c_help = help; c_value = 0 }
let gauge name help = { g_name = name; g_help = help; g_value = 0.0 }

let histogram name help =
  { h_name = name; h_help = help; h_count = 0; h_sum = 0;
    h_buckets = Array.make n_buckets 0 }

let create () =
  {
    compile_ns =
      histogram "rox_compile_duration_ns" "XQuery to Join Graph compile latency";
    query_ns = histogram "rox_query_duration_ns" "whole optimized run latency";
    edge_execution_ns =
      histogram "rox_edge_execution_duration_ns" "per-edge full execution latency";
    chain_round_ns =
      histogram "rox_chain_round_duration_ns" "per chain-sampling round latency";
    sampled_run_ns =
      histogram "rox_sampled_run_duration_ns" "per cut-off sampled execution latency";
    sampling_time_ns =
      counter "rox_sampling_time_ns_total" "total wall-clock nanoseconds in sampled runs";
    execution_time_ns =
      counter "rox_execution_time_ns_total"
        "total wall-clock nanoseconds in full edge executions";
    relation_cache_hits =
      counter "rox_relation_cache_hits_total" "relation cache lookups answered from cache";
    relation_cache_misses =
      counter "rox_relation_cache_misses_total" "relation cache lookups that ran the join";
    estimate_cache_hits =
      counter "rox_estimate_cache_hits_total" "estimate cache lookups answered from cache";
    estimate_cache_misses =
      counter "rox_estimate_cache_misses_total"
        "estimate cache lookups that ran the sampled operator";
    rows_materialized =
      counter "rox_rows_materialized_total" "component rows produced by edge executions";
    pairs_emitted = counter "rox_pairs_emitted_total" "join pairs produced by edge executions";
    edges_executed = counter "rox_edges_executed_total" "full edge executions";
    chain_rounds = counter "rox_chain_rounds_total" "chain-sampling rounds run";
    queries_served = counter "rox_queries_served_total" "optimized query runs completed";
    budget_aborts =
      counter "rox_budget_aborts_total" "runs aborted by a deadline or sampling budget";
    spans_dropped = counter "rox_spans_dropped_total" "spans lost to the sink buffer cap";
    aggregate_merges =
      counter "rox_aggregate_merges_total"
        "per-session registries merged into the process aggregate";
    requests_received =
      counter "rox_serve_requests_total" "protocol frames parsed by the server";
    responses_sent =
      counter "rox_serve_responses_total" "protocol replies written by the server";
    admission_rejects =
      counter "rox_serve_admission_rejects_total"
        "requests rejected because the admission queue was full";
    queue_wait_ns =
      histogram "rox_serve_queue_wait_duration_ns"
        "admission-queue residence per served request";
    serve_ns =
      histogram "rox_serve_request_duration_ns"
        "whole served-request latency (queue wait + execution)";
    cache_resident_bytes =
      gauge "rox_cache_resident_bytes" "bytes resident in the cross-query cache";
    cache_lock_waits =
      gauge "rox_cache_lock_waits"
        "cache lookups that found the cache lock busy (cumulative, last observed)";
    queue_depth = gauge "rox_serve_queue_depth" "requests waiting in the admission queue";
  }

let incr ?(by = 1) c = c.c_value <- c.c_value + by
let set g v = g.g_value <- v

(* Index of the highest set bit: values in [2^i, 2^(i+1)) land in bucket i;
   everything <= 1 lands in bucket 0. *)
let bucket_of v =
  if v <= 1 then 0
  else begin
    let b = ref 0 and v = ref v in
    while !v > 1 do
      b := !b + 1;
      v := !v lsr 1
    done;
    min !b (n_buckets - 1)
  end

let bucket_upper i = if i >= n_buckets - 1 then max_int else (1 lsl (i + 1)) - 1

let observe h v =
  h.h_count <- h.h_count + 1;
  if v > 0 then h.h_sum <- h.h_sum + v;
  let b = bucket_of v in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1

(* Log-interpolated within the holding bucket: the old upper-edge answer
   biased every reported quantile high by up to 2x (a histogram full of
   600ns observations reported p50 = 1023ns). Bucket [i >= 1] covers
   [2^i, 2^(i+1)); assuming observations log-uniform within it, the
   q-quantile sits at 2^(i + frac) where [frac] is how far into the
   bucket's population the target rank lands. Bucket 0 is degenerate
   (absorbs everything <= 1) and stays pinned at 1. *)
let quantile h q =
  if h.h_count = 0 then 0.0
  else begin
    let target = q *. float_of_int h.h_count in
    let rec find i below =
      if i >= n_buckets - 1 then (n_buckets - 1, below)
      else
        let c = below + h.h_buckets.(i) in
        if float_of_int c >= target && h.h_buckets.(i) > 0 then (i, below)
        else find (i + 1) c
    in
    let i, below = find 0 0 in
    if i = 0 then 1.0
    else begin
      let in_bucket = float_of_int h.h_buckets.(i) in
      let frac =
        if in_bucket <= 0.0 then 1.0
        else (target -. float_of_int below) /. in_bucket
      in
      let frac = Float.min 1.0 (Float.max 0.0 frac) in
      float_of_int (1 lsl i) *. (2.0 ** frac)
    end
  end

let counters t =
  [
    t.sampling_time_ns; t.execution_time_ns; t.relation_cache_hits;
    t.relation_cache_misses; t.estimate_cache_hits; t.estimate_cache_misses;
    t.rows_materialized; t.pairs_emitted; t.edges_executed; t.chain_rounds;
    t.queries_served; t.budget_aborts; t.spans_dropped; t.aggregate_merges;
    t.requests_received; t.responses_sent; t.admission_rejects;
  ]

let gauges t = [ t.cache_resident_bytes; t.cache_lock_waits; t.queue_depth ]

let histograms t =
  [ t.compile_ns; t.query_ns; t.edge_execution_ns; t.chain_round_ns;
    t.sampled_run_ns; t.queue_wait_ns; t.serve_ns ]

let add_into ~into t =
  List.iter2
    (fun (a : counter) b -> a.c_value <- a.c_value + b.c_value)
    (counters into) (counters t);
  List.iter2
    (fun (a : gauge) b -> a.g_value <- Float.max a.g_value b.g_value)
    (gauges into) (gauges t);
  List.iter2
    (fun (a : histogram) b ->
      a.h_count <- a.h_count + b.h_count;
      a.h_sum <- a.h_sum + b.h_sum;
      Array.iteri (fun i n -> a.h_buckets.(i) <- a.h_buckets.(i) + n) b.h_buckets)
    (histograms into) (histograms t)
