(* The per-query Session: determinism under equal seeds, isolation between
   concurrent sessions, typed resource budgets, and a sanitizing run. *)

open Rox_storage
open Rox_xquery
open Rox_core
open Helpers

let xmark_engine () =
  let engine = Engine.create () in
  ignore
    (Rox_workload.Xmark.generate ~params:(Rox_workload.Xmark.scaled 0.02) engine
       ~uri:"xmark.xml"
      : Engine.docref);
  engine

let q1 =
  {|let $d := doc("xmark.xml")
for $o in $d//open_auction[.//current/text() < 145],
    $p in $d//person[.//province]
where $o//bidder//personref/@person = $p/@id
return $o|}

let seeded seed =
  Session.create ~config:{ (Session.default_config ()) with Session.seed } ()

(* ---------- Determinism ---------- *)

let test_same_seed_same_run () =
  let engine = xmark_engine () in
  let compiled = Compile.compile_string engine q1 in
  let t1 = Rox_telemetry.Sink.create ~enabled:true () in
  let t2 = Rox_telemetry.Sink.create ~enabled:true () in
  let s1 =
    Session.create ~config:{ (Session.default_config ()) with Session.seed = 9 } ~telemetry:t1 ()
  in
  let s2 =
    Session.create ~config:{ (Session.default_config ()) with Session.seed = 9 } ~telemetry:t2 ()
  in
  let a1, r1 = Optimizer.answer s1 compiled in
  let a2, r2 = Optimizer.answer s2 compiled in
  check_bool "identical answers" true (a1 = a2);
  check_bool "identical edge order" true
    (r1.Optimizer.edge_order = r2.Optimizer.edge_order);
  check_bool "identical event streams" true
    (Rox_telemetry.Sink.events t1 = Rox_telemetry.Sink.events t2)

let test_session_is_single_use_rng () =
  (* Two runs on ONE session advance its RNG; two fresh sessions don't.
     Answers must agree either way — only the explored order may differ. *)
  let engine = xmark_engine () in
  let compiled = Compile.compile_string engine q1 in
  let shared = seeded 5 in
  let a1, _ = Optimizer.answer shared compiled in
  let a2, _ = Optimizer.answer shared compiled in
  let fresh, _ = Optimizer.answer (seeded 5) compiled in
  check_bool "same answer across reuse" true (a1 = a2);
  check_bool "same answer from a fresh session" true (a1 = fresh)

(* ---------- Isolation ---------- *)

let test_counters_isolated () =
  let engine = xmark_engine () in
  let compiled = Compile.compile_string engine q1 in
  let s1 = seeded 1 in
  let s2 = seeded 2 in
  ignore (Optimizer.answer s1 compiled);
  let c1 = Rox_algebra.Cost.total (Session.counter s1) in
  let c2 = Rox_algebra.Cost.total (Session.counter s2) in
  check_bool "worked session charged" true (c1 > 0);
  check_int "idle session untouched" 0 c2

let test_budget_failure_isolated () =
  (* One session blowing its budget must not poison another. *)
  let engine = xmark_engine () in
  let compiled = Compile.compile_string engine q1 in
  let starved =
    Session.create
      ~config:
        { (Session.default_config ()) with
          Session.budgets =
            { Session.default_budgets with Session.max_sampled_rows = Some 1 } }
      ()
  in
  (match Optimizer.answer starved compiled with
   | exception Rox_algebra.Cost.Budget_exceeded { reason; _ } ->
     check_bool "sampled-rows reason" true (reason = Rox_algebra.Cost.Sampled_rows)
   | _ -> Alcotest.fail "1-sampled-row budget must abort");
  let healthy, _ = Optimizer.answer (seeded 3) compiled in
  let reference, _ = Optimizer.answer_default compiled in
  check_bool "later session unaffected" true (healthy = reference)

(* ---------- Budgets ---------- *)

let test_deadline_budget () =
  let engine = xmark_engine () in
  let compiled = Compile.compile_string engine q1 in
  let session =
    Session.create
      ~config:
        { (Session.default_config ()) with
          Session.budgets =
            { Session.default_budgets with Session.deadline_ms = Some 0 } }
      ()
  in
  match Optimizer.answer session compiled with
  | exception Rox_algebra.Cost.Budget_exceeded { reason; _ } ->
    check_bool "deadline reason" true (reason = Rox_algebra.Cost.Deadline)
  | _ -> Alcotest.fail "a 0 ms deadline must abort"

let test_budget_message () =
  let exn =
    Rox_algebra.Cost.Budget_exceeded
      { reason = Rox_algebra.Cost.Deadline; spent = 7; budget = 5 }
  in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  match Rox_algebra.Cost.budget_message exn with
  | Some m -> check_bool "mentions deadline" true (contains m "deadline")
  | None -> Alcotest.fail "budget_message must render Budget_exceeded"

(* ---------- Sanitizer ---------- *)

let test_sanitized_full_run () =
  (* A whole optimizer run with every operator contract checked answers
     like the default run. *)
  let engine = xmark_engine () in
  let compiled = Compile.compile_string engine q1 in
  let session =
    Session.create
      ~config:{ (Session.default_config ()) with Session.sanitize = true } ()
  in
  let answer, _ = Optimizer.answer session compiled in
  let reference, _ = Optimizer.answer_default compiled in
  check_bool "sanitized run = default run" true (answer = reference)

(* ---------- Domains ---------- *)

let test_two_domains_bit_identical () =
  let engine = xmark_engine () in
  let compiled = Compile.compile_string engine q1 in
  let work () = fst (Optimizer.answer (seeded 11) compiled) in
  let other = Domain.spawn work in
  let mine = work () in
  let theirs = Domain.join other in
  check_bool "domains agree bit-for-bit" true (mine = theirs)

let suite =
  [
    Alcotest.test_case "same seed, same run" `Quick test_same_seed_same_run;
    Alcotest.test_case "session reuse keeps the answer" `Quick
      test_session_is_single_use_rng;
    Alcotest.test_case "counters isolated" `Quick test_counters_isolated;
    Alcotest.test_case "budget failure isolated" `Quick
      test_budget_failure_isolated;
    Alcotest.test_case "deadline budget aborts" `Quick test_deadline_budget;
    Alcotest.test_case "budget message renders" `Quick test_budget_message;
    Alcotest.test_case "sanitized full run" `Quick test_sanitized_full_run;
    Alcotest.test_case "two domains, identical answers" `Quick
      test_two_domains_bit_identical;
  ]
