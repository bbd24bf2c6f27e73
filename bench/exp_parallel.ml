(* Concurrent query serving on OCaml 5 domains — the payoff of the
   session refactor.

   One shared read-only Engine (and, in the cache check, one shared
   mutex-guarded Rox_cache.Store) serves N domains; each domain runs its
   own stream of queries, one fresh Session per query run. Because every
   piece of run-time mutable state — RNG, counters, trace, deadline —
   lives in the session, equal seeds must give bit-identical answers on
   every domain, and throughput should scale with physical cores.

   Writes BENCH_parallel.json next to the working directory: queries/sec
   at 1, 2 and 4 domains, the machine's core count, and whether all
   domains produced bit-identical answers. *)

open Rox_xquery
open Bench_common

let queries = [ q1_query "<" 145; q1_query ">" 145; q1_query "<" 60 ]

(* With [?merged] (a registry owned by the calling domain), each query
   runs under a fresh per-session telemetry sink whose registry is merged
   into it after the run. Sinks and registries are single-domain; they
   cross domains only as the values [Domain.join] returns. *)
let run_one ?cache ?merged compiled =
  let telemetry =
    match merged with
    | None -> Rox_telemetry.Sink.null ()
    | Some _ -> Rox_telemetry.Sink.create ~enabled:true ()
  in
  let session = Rox_core.Session.create ?cache ~telemetry () in
  let answer = fst (Rox_core.Optimizer.answer session compiled) in
  Option.iter
    (fun into ->
      Rox_telemetry.Metrics.add_into ~into (Rox_telemetry.Sink.metrics telemetry))
    merged;
  answer

(* Each domain executes [iters] passes over the whole query list and
   returns the answers of its last pass (for the bit-identity check) and,
   with [~telemetry], its sessions' registries merged into one. *)
let domain_work ?cache ~telemetry compiled_list iters () =
  let merged = if telemetry then Some (Rox_telemetry.Metrics.create ()) else None in
  let answers = ref [] in
  for _ = 1 to iters do
    answers := List.map (fun c -> run_one ?cache ?merged c) compiled_list
  done;
  (!answers, merged)

(* The per-domain registries come back through [Domain.join] and are
   merged here, on the parent. *)
let measure ~domains ~iters ?cache ?(telemetry = false) compiled_list =
  let t0 = Unix.gettimeofday () in
  let spawned =
    List.init (domains - 1) (fun _ ->
        Domain.spawn (domain_work ?cache ~telemetry compiled_list iters))
  in
  let mine = domain_work ?cache ~telemetry compiled_list iters () in
  let others = List.map Domain.join spawned in
  let dt = Unix.gettimeofday () -. t0 in
  let total_runs = domains * iters * List.length compiled_list in
  let qps = float_of_int total_runs /. dt in
  let merged = Rox_telemetry.Metrics.create () in
  List.iter
    (fun (_, m) -> Option.iter (Rox_telemetry.Metrics.add_into ~into:merged) m)
    (mine :: others);
  (qps, dt, List.map fst (mine :: others), merged)

let answers_equal lists =
  match lists with
  | [] -> true
  | first :: rest -> List.for_all (fun l -> l = first) rest

(* ---- cache-hit-throughput leg -------------------------------------- *)

(* One domain's share of the hammer: re-run the (already warmed, hence
   all-hits) query list [iters] times against the shared store, timing
   itself so the leg can report per-domain qps spread. *)
let hammer_work ~cache compiled_list iters () =
  let t0 = Unix.gettimeofday () in
  let answers = ref [] in
  for _ = 1 to iters do
    answers := List.map (fun c -> run_one ~cache c) compiled_list
  done;
  let dt = Unix.gettimeofday () -. t0 in
  (!answers, dt)

type hammer_result = {
  hr_qps : float;
  hr_per_domain_qps : float list;
  hr_spread_pct : float;     (* (max-min)/max across domains, percent *)
  hr_lock_waits : int;
  hr_hits : int;
  hr_identical : bool;
}

(* Warm one store, then hammer the same hot fingerprints from [domains]
   domains. *)
let hammer ~domains ~iters engine compiled_list reference =
  let store = Rox_cache.Store.of_megabytes engine 32 in
  (* Warm pass: after this every edge/estimate fingerprint is resident,
     so the measured phase is (almost) pure cache-hit traffic. *)
  ignore (List.map (fun c -> run_one ~cache:store c) compiled_list);
  let spawned =
    List.init (domains - 1) (fun _ ->
        Domain.spawn (hammer_work ~cache:store compiled_list iters))
  in
  let mine = hammer_work ~cache:store compiled_list iters () in
  let per = mine :: List.map Domain.join spawned in
  let answers = List.map fst per in
  let runs_each = iters * List.length compiled_list in
  let per_qps =
    List.map
      (fun (_, dt) -> if dt > 0.0 then float_of_int runs_each /. dt else 0.0)
      per
  in
  let total_dt = List.fold_left (fun a (_, dt) -> Float.max a dt) 0.0 per in
  let qps =
    if total_dt > 0.0 then float_of_int (domains * runs_each) /. total_dt
    else 0.0
  in
  let mx = List.fold_left Float.max 0.0 per_qps in
  let mn = List.fold_left Float.min infinity per_qps in
  let spread = if mx > 0.0 then 100.0 *. (mx -. mn) /. mx else 0.0 in
  let s = Rox_cache.Store.stats store in
  let open Rox_cache in
  {
    hr_qps = qps;
    hr_per_domain_qps = per_qps;
    hr_spread_pct = spread;
    hr_lock_waits = s.Store.relations.Lru.lock_waits + s.Store.estimates.Lru.lock_waits;
    hr_hits = s.Store.relations.Lru.hits + s.Store.estimates.Lru.hits;
    hr_identical =
      answers_equal answers && List.for_all (fun l -> l = reference) answers;
  }

let json_escape_float f = Printf.sprintf "%.2f" f

let run ?(factor = 0.25) ?(iters = 3) () =
  header "Parallel sessions: N domains, one shared engine";
  let engine = xmark_engine ~factor () in
  let compiled_list = List.map (Compile.compile_string engine) queries in
  (* Sequential reference answers: the ground truth every domain must
     reproduce bit-for-bit. *)
  let reference = List.map (fun c -> run_one c) compiled_list in
  let n_cores = cores () in
  Printf.printf "machine: %d recommended domain(s)\n%!" n_cores;
  let runs =
    List.map
      (fun domains ->
        let qps, dt, per_domain, _ = measure ~domains ~iters compiled_list in
        let identical =
          answers_equal per_domain
          && List.for_all (fun l -> l = reference) per_domain
        in
        Printf.printf "%d domain(s): %6.2f q/s (%.2fs)%s\n%!" domains qps dt
          (if identical then "" else "  ANSWERS DIVERGED");
        (domains, qps, identical))
      [ 1; 2; 4 ]
  in
  (* Shared-cache sanity: two domains hammer one mutex-guarded store;
     answers must still match the cache-off reference. *)
  let store = Rox_cache.Store.of_megabytes engine 32 in
  let _, _, cached, _ = measure ~domains:2 ~iters ~cache:store compiled_list in
  let cache_ok =
    answers_equal cached && List.for_all (fun l -> l = reference) cached
  in
  Printf.printf "shared cache, 2 domains: answers %s\n%!"
    (if cache_ok then "identical" else "DIVERGED");
  (* Telemetry sanity: per-session registries merged per domain, then
     across domains, must account for exactly one queries_served per run. *)
  let telemetry_domains = 2 in
  let _, _, with_telemetry, merged =
    measure ~domains:telemetry_domains ~iters ~telemetry:true compiled_list
  in
  let telemetry_answers_ok =
    answers_equal with_telemetry
    && List.for_all (fun l -> l = reference) with_telemetry
  in
  let served =
    merged.Rox_telemetry.Metrics.queries_served.Rox_telemetry.Metrics.c_value
  in
  let expected_served = telemetry_domains * iters * List.length queries in
  let telemetry_ok = served = expected_served && telemetry_answers_ok in
  Printf.printf "telemetry merge, %d domains: %d/%d queries served%s\n%!"
    telemetry_domains served expected_served
    (if telemetry_ok then "" else "  INCONSISTENT");
  (* Cache-hit throughput: the same hot fingerprints hammered from N
     domains against one store. Records qps and lock waits; not gated. *)
  let hammer_domains = 2 in
  let hr = hammer ~domains:hammer_domains ~iters engine compiled_list reference in
  let hammer_ok = hr.hr_identical in
  Printf.printf
    "cache-hit hammer, %d domains: %6.2f q/s (%d lock waits, spread %.1f%%)%s\n%!"
    hammer_domains hr.hr_qps hr.hr_lock_waits hr.hr_spread_pct
    (if hammer_ok then "" else "  ANSWERS DIVERGED");
  let qps_of d = List.find_opt (fun (d', _, _) -> d' = d) runs in
  let speedup =
    match (qps_of 1, qps_of 4) with
    | Some (_, q1, _), Some (_, q4, _) when q1 > 0.0 -> q4 /. q1
    | _ -> 0.0
  in
  Printf.printf "4-domain speedup over 1: %.2fx\n" speedup;
  if speedup < 2.5 then
    Printf.printf
      "note: below the 2.5x target%s\n"
      (if n_cores < 4 then
         Printf.sprintf " — only %d core(s) available; scaling needs >= 4"
           n_cores
       else " on a >= 4-core machine: investigate");
  let all_identical =
    cache_ok && telemetry_ok && hammer_ok
    && List.for_all (fun (_, _, ok) -> ok) runs
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  %s,\n" (machine_json ~domains_used:4));
  Buffer.add_string buf (Printf.sprintf "  \"cores\": %d,\n" n_cores);
  Buffer.add_string buf
    (Printf.sprintf "  \"iters_per_domain\": %d,\n" (iters * List.length queries));
  Buffer.add_string buf "  \"runs\": [\n";
  List.iteri
    (fun i (domains, qps, identical) ->
      Buffer.add_string buf
        (Printf.sprintf "    {\"domains\": %d, \"qps\": %s, \"identical\": %b}%s\n"
           domains (json_escape_float qps) identical
           (if i = List.length runs - 1 then "" else ",")))
    runs;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"speedup_4_over_1\": %s,\n" (json_escape_float speedup));
  Buffer.add_string buf
    (Printf.sprintf "  \"shared_cache_identical\": %b,\n" cache_ok);
  Buffer.add_string buf
    (Printf.sprintf "  \"telemetry_queries_served\": %d,\n" served);
  Buffer.add_string buf
    (Printf.sprintf "  \"telemetry_consistent\": %b,\n" telemetry_ok);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"cache_hit_leg\": {\"domains\": %d, \"qps\": %s, \"per_domain_qps\": [%s], \"qps_spread_pct\": %s, \"lock_waits\": %d, \"hits\": %d, \"identical\": %b},\n"
       hammer_domains (json_escape_float hr.hr_qps)
       (String.concat ", " (List.map json_escape_float hr.hr_per_domain_qps))
       (json_escape_float hr.hr_spread_pct)
       hr.hr_lock_waits hr.hr_hits hr.hr_identical);
  Buffer.add_string buf
    (Printf.sprintf "  \"all_identical\": %b\n" all_identical);
  Buffer.add_string buf "}\n";
  let path = "BENCH_parallel.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n" path;
  if not all_identical then failwith "parallel sessions produced divergent answers"
