(* RX5xx concurrency soundness: the race detector over synthetic
   interleavings and real multi-domain fixtures, and the mutable-global
   lint scanner. *)

open Helpers
module Al = Rox_util.Accesslog
module A = Rox_analysis

let codes diags =
  List.sort_uniq compare (List.map (fun d -> d.A.Diagnostic.code) diags)

(* ---------- synthetic interleavings ---------------------------------- *)

(* Hand-built event streams: the checker is a pure function of
   (sites, events), so known-racy and known-safe schedules can be stated
   exactly without spawning domains. *)

let mk_sites kinds =
  Array.of_list
    (List.mapi
       (fun i k -> { Al.s_name = Printf.sprintf "site%d" i; s_kind = k })
       kinds)

let ev ?(locks = 0) seq domain site op = { Al.seq; domain; site; op; locks }

let test_unlocked_write_races () =
  let sites = mk_sites [ Al.Shared ] in
  let events =
    [| ev 0 0 0 Al.Write; ev 1 1 0 Al.Write |]
  in
  Alcotest.(check (list string)) "RX501" [ "RX501" ]
    (codes (A.Race_check.check ~sites events))

let test_common_lock_clean () =
  let sites = mk_sites [ Al.Shared ] in
  (* Acquire/Release events carry the lock id in [site]; access events
     carry the held-lock bitmask. Both domains guard site 0 with lock 0. *)
  let l = 1 in
  let events =
    [|
      ev 0 0 0 Al.Acquire;
      ev ~locks:l 1 0 0 Al.Write;
      ev ~locks:l 2 0 0 Al.Release;
      ev 3 1 0 Al.Acquire;
      ev ~locks:l 4 1 0 Al.Write;
      ev ~locks:l 5 1 0 Al.Release;
    |]
  in
  Alcotest.(check (list string)) "clean" []
    (codes (A.Race_check.check ~sites events))

let test_hb_ordering_clean () =
  let sites = mk_sites [ Al.Shared ] in
  (* Domain 0 writes, releases token 0; domain 1 acquires it, writes.
     No locks held at either access — only the happens-before edge. *)
  let events =
    [|
      ev 0 0 0 Al.Write;
      ev 1 0 0 Al.Release;
      ev 2 1 0 Al.Acquire;
      ev 3 1 0 Al.Write;
    |]
  in
  Alcotest.(check (list string)) "hb clean" []
    (codes (A.Race_check.check ~sites events))

let test_hb_wrong_direction_races () =
  let sites = mk_sites [ Al.Shared ] in
  (* Acquire before the other side's Release establishes nothing. *)
  let events =
    [|
      ev 0 1 0 Al.Acquire;
      ev 1 1 0 Al.Write;
      ev 2 0 0 Al.Write;
      ev 3 0 0 Al.Release;
    |]
  in
  Alcotest.(check (list string)) "RX501" [ "RX501" ]
    (codes (A.Race_check.check ~sites events))

let test_confined_leak_code () =
  let sites = mk_sites [ Al.Confined ] in
  let events = [| ev 0 0 0 Al.Write; ev 1 1 0 Al.Write |] in
  let got = codes (A.Race_check.check ~sites events) in
  check_bool "contains RX504" true (List.mem "RX504" got)

let test_single_domain_clean () =
  let sites = mk_sites [ Al.Shared; Al.Shared; Al.Confined ] in
  let events =
    Array.init 30 (fun i ->
        ev i 0 (i mod 3) (if i mod 2 = 0 then Al.Write else Al.Read))
  in
  Alcotest.(check (list string)) "one domain never races" []
    (codes (A.Race_check.check ~sites events))

let test_split_lock_discipline () =
  let sites = mk_sites [ Al.Shared ] in
  (* Two sequential phases ordered by an hb token (lock 2), each
     guarding the site with a different mutex (locks 0 and 1): every
     access locked, empty candidate set, no manifest race -> RX502. *)
  let events =
    [|
      ev 0 0 0 Al.Acquire;
      ev ~locks:1 1 0 0 Al.Write;
      ev ~locks:1 2 0 0 Al.Release;
      ev 3 0 2 Al.Release (* hb publish *);
      ev 4 1 2 Al.Acquire (* hb acquire *);
      ev 5 1 1 Al.Acquire;
      ev ~locks:2 6 1 0 Al.Write;
      ev ~locks:2 7 1 1 Al.Release;
    |]
  in
  Alcotest.(check (list string)) "RX502" [ "RX502" ]
    (codes (A.Race_check.check ~sites events))

(* Generated interleavings: a schedule where every access holds one
   common lock is clean (no false positives); a lock-free schedule with
   a write on each of two domains always races (no false negatives). *)

let prop_guarded_schedules_clean =
  qtest ~count:150 "guarded interleavings never flagged"
    QCheck.(pair small_int (int_range 2 20))
    (fun (seed, n) ->
      let rng = Rox_util.Xoshiro.create (seed lxor 0x5a5a) in
      let sites = mk_sites [ Al.Shared ] in
      let events = ref [] in
      let seq = ref 0 in
      let push e = events := e :: !events; incr seq in
      for _ = 1 to n do
        let d = Rox_util.Xoshiro.int rng 3 in
        let op = if Rox_util.Xoshiro.int rng 2 = 0 then Al.Write else Al.Read in
        push (ev !seq d 0 Al.Acquire);
        push (ev ~locks:1 !seq d 0 op);
        push (ev ~locks:1 !seq d 0 Al.Release)
      done;
      codes (A.Race_check.check ~sites (Array.of_list (List.rev !events))) = [])

let prop_unguarded_schedules_flagged =
  qtest ~count:150 "unguarded cross-domain writes always flagged"
    QCheck.(pair small_int (int_range 1 10))
    (fun (seed, n) ->
      let rng = Rox_util.Xoshiro.create (seed lxor 0xbeef) in
      let sites = mk_sites [ Al.Shared ] in
      (* Each domain performs n accesses including at least one write;
         random interleave, no locks, no hb edges. *)
      let mk d =
        List.init n (fun i ->
            let op =
              if i = 0 || Rox_util.Xoshiro.int rng 2 = 0 then Al.Write
              else Al.Read
            in
            (d, op))
      in
      let rec interleave a b =
        match (a, b) with
        | [], r | r, [] -> r
        | x :: xs, y :: ys ->
          if Rox_util.Xoshiro.int rng 2 = 0 then x :: interleave xs (y :: ys)
          else y :: interleave (x :: xs) ys
      in
      let schedule = interleave (mk 0) (mk 1) in
      let events =
        Array.of_list (List.mapi (fun i (d, op) -> ev i d 0 op) schedule)
      in
      codes (A.Race_check.check ~sites events) = [ "RX501" ])

(* ---------- real multi-domain fixtures -------------------------------- *)

let test_fixtures_behave_as_seeded () =
  List.iter
    (fun (name, run, _descr, expected) ->
      Alcotest.(check (list string)) name
        (List.sort_uniq compare expected)
        (codes (run ())))
    A.Race_fixtures.all

(* A mutex-guarded LRU hammered from two domains must not be flagged:
   the no-false-positive gate for the real instrumentation. *)
let test_shared_lru_clean () =
  let module L = Rox_cache.Lru.Make (struct
    type t = int

    let equal = Int.equal
    let hash = Hashtbl.hash
  end) in
  let diags =
    A.Race_fixtures.with_recording (fun () ->
        let cache = L.create ~name:"test.shared_lru" ~budget:4096 () in
        A.Race_fixtures.fork_join 2 (fun d ->
            for i = 1 to 100 do
              L.add cache (i land 15) ~weight:8 (d * 1000 + i);
              ignore (L.find cache ((i + d) land 15) : int option)
            done))
  in
  Alcotest.(check (list string)) "shared LRU clean" [] (codes diags)

(* A session confined on two domains must trip RX504 through the real
   Session instrumentation. *)
let test_session_cross_domain_leak () =
  let diags =
    A.Race_fixtures.with_recording (fun () ->
        let session = Rox_core.Session.create () in
        Rox_core.Session.confine session (fun () -> ());
        A.Race_fixtures.fork_join 1 (fun _ ->
            Rox_core.Session.confine session (fun () -> ())))
  in
  check_bool "RX504 reported" true
    (List.mem "RX504" (codes diags))

(* ---------- access log mechanics -------------------------------------- *)

let test_accesslog_disarmed_noop () =
  let was = Al.armed () in
  Al.set_armed false;
  let before = Al.recorded () in
  Al.record ~site:0 Al.Write;
  check_int "no event recorded" before (Al.recorded ());
  Al.set_armed was

let test_accesslog_capacity () =
  let was = Al.armed () in
  Al.set_armed true;
  Al.reset ();
  let site = Al.site ~name:"test.capacity" Al.Shared in
  for _ = 1 to 100 do
    Al.record ~site Al.Write
  done;
  check_int "100 events" 100 (Al.recorded ());
  check_int "none dropped" 0 (Al.dropped ());
  let events = Al.events () in
  check_int "snapshot length" 100 (Array.length events);
  check_bool "sequential seqs" true
    (Array.for_all (fun e -> e.Al.op = Al.Write) events);
  Al.reset ();
  check_int "reset clears" 0 (Al.recorded ());
  Al.set_armed was

let test_accesslog_lockset () =
  let was = Al.armed () in
  Al.set_armed true;
  Al.reset ();
  let site = Al.site ~name:"test.lockset" Al.Shared in
  let l = Al.lock ~name:"test.lockset_mutex" in
  check_bool "lock registered" true (l >= 0);
  Al.with_lock l (fun () -> Al.record ~site Al.Write);
  Al.record ~site Al.Write;
  let events = Al.events () in
  let locked_write =
    Array.to_list events
    |> List.filter (fun e -> e.Al.op = Al.Write)
  in
  (match locked_write with
   | [ w1; w2 ] ->
     check_bool "first write holds the lock" true (w1.Al.locks land (1 lsl l) <> 0);
     check_int "second write holds nothing" 0 w2.Al.locks
   | _ -> Alcotest.fail "expected exactly two writes");
  check_int "lockset restored" 0 (Al.locks_held ());
  Al.set_armed was

(* ---------- lint scanner ---------------------------------------------- *)

let scan src = A.Global_lint.scan_source ~file:"x.ml" src

let names bs = List.map (fun b -> b.A.Global_lint.gb_name) bs

let test_lint_finds_globals () =
  let found =
    names
      (scan
         "let counter = ref 0\n\
          let table = Hashtbl.create 16\n\
          let m = Mutex.create ()\n\
          let a = Atomic.make 0\n\
          let k : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)\n\
          let arr = [| 1; 2 |]\n")
  in
  Alcotest.(check (list string)) "all six"
    [ "counter"; "table"; "m"; "a"; "k"; "arr" ]
    found

let test_lint_skips_functions_and_locals () =
  let found =
    names
      (scan
         "let make () = ref 0\n\
          let with_tbl f =\n\
          \  let t = Hashtbl.create 4 in\n\
          \  f t\n\
          let pure = 1 + 2\n\
          let refs_in_name = prefix\n")
  in
  Alcotest.(check (list string)) "nothing global" [] found

let test_lint_multiline_and_annotated () =
  let found =
    names
      (scan
         "let flag =\n\
          \  ref\n\
          \    (match x with Some _ -> true | None -> false)\n\
          let sites : string array ref = ref [||]\n")
  in
  Alcotest.(check (list string)) "multiline + annotation"
    [ "flag"; "sites" ] found

let test_lint_ignores_comments_and_strings () =
  let found =
    names
      (scan
         "(* let bad = ref 0 *)\n\
          let s = \"let x = ref 0 mutable y\"\n\
          (* nested (* let m = Mutex.create () *) still comment *)\n\
          let ok = 42\n")
  in
  Alcotest.(check (list string)) "no findings" [] found

let test_lint_mutable_fields () =
  let found =
    names
      (scan
         "type t = {\n\
          \  mutable count : int;\n\
          \  name : string;\n\
          \  mutable last : float;\n\
          }\n\
          and other = { mutable x : int }\n\
          type immutable_doc = { body : string }\n")
  in
  Alcotest.(check (list string)) "fields with type names"
    [ "t.count"; "t.last"; "other.x" ]
    found

let test_lint_nested_module_fields () =
  let found =
    names
      (scan
         "module Make (K : S) = struct\n\
          \  type 'v node = {\n\
          \    mutable prev : 'v node option;\n\
          \  }\n\
          end\n")
  in
  Alcotest.(check (list string)) "nested type" [ "node.prev" ] found

let test_capability_wildcards () =
  check_bool "exact" true (A.Capability.name_matches ~pattern:"t.first" "t.first");
  check_bool "wild star" true (A.Capability.name_matches ~pattern:"*" "anything");
  check_bool "prefix wild" true (A.Capability.name_matches ~pattern:"t.*" "t.bytes");
  check_bool "prefix respects dot" false
    (A.Capability.name_matches ~pattern:"t.*" "telemetry.x");
  check_bool "no partial" false (A.Capability.name_matches ~pattern:"t.first" "t.firstly")

let test_lint_check_rx510 () =
  let bindings =
    [
      {
        A.Global_lint.gb_file = "lib/nowhere/fake.ml";
        gb_line = 3;
        gb_kind = A.Capability.Global;
        gb_name = "rogue";
        gb_what = "ref";
      };
    ]
  in
  let rx510 =
    List.filter (fun d -> d.A.Diagnostic.code = "RX510")
      (A.Global_lint.check bindings)
  in
  check_int "one RX510" 1 (List.length rx510);
  check_bool "it is an error" true
    (List.for_all A.Diagnostic.is_error rx510)

let test_lint_check_rx511_stale () =
  (* With no bindings at all, every allowlist entry is stale. *)
  let diags = A.Global_lint.check [] in
  let rx511 = List.filter (fun d -> d.A.Diagnostic.code = "RX511") diags in
  check_int "every entry stale" (List.length A.Capability.allowlist)
    (List.length rx511)

let test_lint_repo_tree_clean () =
  (* The committed tree must lint clean; run from the repo root if the
     test sandbox exposes it, otherwise skip (make lint covers it). *)
  let root =
    List.find_opt
      (fun d -> Sys.file_exists (Filename.concat d "util/accesslog.ml"))
      [ "lib"; "../lib"; "../../lib"; "../../../lib"; "../../../../lib";
        "../../../../../lib" ]
  in
  match root with
  | None -> ()
  | Some root ->
    let report = A.Global_lint.run ~root in
    check_int "repo lints clean" 0
      (List.length report.A.Report.diagnostics)

(* ---------- registry -------------------------------------------------- *)

let test_registry_unique_and_complete () =
  let cs = List.map (fun i -> i.A.Diagnostic.ci_code) A.Diagnostic.registry in
  check_int "codes unique" (List.length cs)
    (List.length (List.sort_uniq compare cs));
  List.iter
    (fun c -> check_bool c true (List.mem c cs))
    [ "RX501"; "RX502"; "RX504"; "RX510"; "RX511" ]

let test_registry_explain () =
  (match A.Diagnostic.explain "RX501" with
   | Some text ->
     check_bool "mentions race" true
       (String.length text > 40)
   | None -> Alcotest.fail "RX501 must explain");
  check_bool "unknown code" true (A.Diagnostic.explain "RX999" = None)

let test_registry_markdown () =
  let md = A.Diagnostic.registry_markdown () in
  List.iter
    (fun i ->
      check_bool i.A.Diagnostic.ci_code true
        (let code = i.A.Diagnostic.ci_code in
         let n = String.length md and cn = String.length code in
         let rec go j =
           j + cn <= n && (String.sub md j cn = code || go (j + 1))
         in
         go 0))
    A.Diagnostic.registry

(* DESIGN.md's "Diagnostic code registry" table claims to be the output of
   `rox analyze --codes-md`; hold it to that, so a code added or removed
   in Diagnostic.registry cannot leave the document stale. *)
let test_registry_design_doc_current () =
  (* [dune runtest] runs from _build/default/test; [dune exec] from the root. *)
  let path =
    List.find Sys.file_exists [ "../DESIGN.md"; "DESIGN.md" ]
  in
  let ic = open_in_bin path in
  let design =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let table = A.Diagnostic.registry_markdown () in
  let n = String.length design and tn = String.length table in
  let rec go j = j + tn <= n && (String.sub design j tn = table || go (j + 1)) in
  check_bool "DESIGN.md embeds `rox analyze --codes-md` verbatim" true (go 0)

let suite =
  [
    Alcotest.test_case "unlocked cross-domain write -> RX501" `Quick
      test_unlocked_write_races;
    Alcotest.test_case "common lock -> clean" `Quick test_common_lock_clean;
    Alcotest.test_case "hb edge -> clean" `Quick test_hb_ordering_clean;
    Alcotest.test_case "hb wrong direction -> RX501" `Quick
      test_hb_wrong_direction_races;
    Alcotest.test_case "confined leak -> RX504" `Quick test_confined_leak_code;
    Alcotest.test_case "single domain -> clean" `Quick test_single_domain_clean;
    Alcotest.test_case "split locks -> RX502" `Quick test_split_lock_discipline;
    prop_guarded_schedules_clean;
    prop_unguarded_schedules_flagged;
    Alcotest.test_case "fixtures behave as seeded" `Slow
      test_fixtures_behave_as_seeded;
    Alcotest.test_case "shared LRU across domains clean" `Slow
      test_shared_lru_clean;
    Alcotest.test_case "session leak across domains -> RX504" `Slow
      test_session_cross_domain_leak;
    Alcotest.test_case "accesslog disarmed is a no-op" `Quick
      test_accesslog_disarmed_noop;
    Alcotest.test_case "accesslog capacity and reset" `Quick
      test_accesslog_capacity;
    Alcotest.test_case "accesslog lockset tracking" `Quick
      test_accesslog_lockset;
    Alcotest.test_case "lint finds mutable globals" `Quick
      test_lint_finds_globals;
    Alcotest.test_case "lint skips functions and locals" `Quick
      test_lint_skips_functions_and_locals;
    Alcotest.test_case "lint multiline and annotated" `Quick
      test_lint_multiline_and_annotated;
    Alcotest.test_case "lint ignores comments and strings" `Quick
      test_lint_ignores_comments_and_strings;
    Alcotest.test_case "lint mutable fields" `Quick test_lint_mutable_fields;
    Alcotest.test_case "lint nested module fields" `Quick
      test_lint_nested_module_fields;
    Alcotest.test_case "capability wildcards" `Quick test_capability_wildcards;
    Alcotest.test_case "lint check RX510" `Quick test_lint_check_rx510;
    Alcotest.test_case "lint check RX511 stale" `Quick
      test_lint_check_rx511_stale;
    Alcotest.test_case "repo tree lints clean" `Quick
      test_lint_repo_tree_clean;
    Alcotest.test_case "registry unique and complete" `Quick
      test_registry_unique_and_complete;
    Alcotest.test_case "registry explain" `Quick test_registry_explain;
    Alcotest.test_case "registry markdown covers all codes" `Quick
      test_registry_markdown;
    Alcotest.test_case "registry table in DESIGN.md is current" `Quick
      test_registry_design_doc_current;
  ]
