(* RX5xx concurrency soundness: the session owner-domain check (RX504),
   one record under a common Guarded lock, the shared LRU across
   domains, the mutable-global lint scanner and the diagnostic registry. *)

open Helpers
module A = Rox_analysis

let codes diags =
  List.sort_uniq compare (List.map (fun d -> d.A.Diagnostic.code) diags)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ---------- session owner domain (RX504) ------------------------------ *)

let sanitized_session () =
  let config =
    { (Rox_core.Session.default_config ()) with Rox_core.Session.sanitize = true }
  in
  Rox_core.Session.create ~config ()

let confine_on_new_domain session =
  Domain.join
    (Domain.spawn (fun () ->
         match Rox_core.Session.confine session (fun () -> ()) with
         | () -> None
         | exception Rox_algebra.Sanitize.Violation v -> Some v))

(* Repeated entries from the claiming domain never trip the check. *)
let test_single_domain_clean () =
  let session = sanitized_session () in
  for _ = 1 to 10 do
    Rox_core.Session.confine session (fun () -> ())
  done

(* A session claimed by this domain and then entered from another: the
   sanitize mode raises, and the violation reports as RX504. *)
let test_session_cross_domain_leak () =
  let session = sanitized_session () in
  Rox_core.Session.confine session (fun () -> ());
  match confine_on_new_domain session with
  | None -> Alcotest.fail "second domain entered a claimed session"
  | Some v ->
    let d = A.Contract.diagnostic_of_violation v in
    Alcotest.(check string) "code" "RX504" d.A.Diagnostic.code;
    check_bool "an error" true (A.Diagnostic.is_error d)

(* Built on one domain, first entered on another — what a server worker
   does with each request's session: the first entry claims it. *)
let test_session_claimed_by_first_confine () =
  let session = sanitized_session () in
  Domain.join
    (Domain.spawn (fun () ->
         Rox_core.Session.confine session (fun () -> ());
         Rox_core.Session.confine session (fun () -> ())));
  check_bool "the creating domain is now a second domain" true
    (match Rox_core.Session.confine session (fun () -> ()) with
     | () -> false
     | exception Rox_algebra.Sanitize.Violation _ -> true)

(* A session claimed by one worker domain and then entered by another
   worker domain — neither of them the creator: still RX504. *)
let test_confined_leak_code () =
  let session = sanitized_session () in
  Domain.join
    (Domain.spawn (fun () -> Rox_core.Session.confine session (fun () -> ())));
  match confine_on_new_domain session with
  | None -> Alcotest.fail "second worker domain entered a claimed session"
  | Some v ->
    let got = codes [ A.Contract.diagnostic_of_violation v ] in
    check_bool "contains RX504" true (List.mem "RX504" got)

(* Two domains each update both fields of one record under its common
   Guarded lock, and check them equal on every entry: no entry ever sees
   a half-done update, and no update is lost. *)
let test_common_lock_clean () =
  let pair = Rox_util.Guarded.create (ref 0, ref 0) in
  let torn = Atomic.make 0 in
  let workers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 2_000 do
              Rox_util.Guarded.with_lock pair (fun (a, b) ->
                  if !a <> !b then Atomic.incr torn;
                  incr a;
                  Domain.cpu_relax ();
                  incr b)
            done))
  in
  List.iter Domain.join workers;
  check_int "no torn entry" 0 (Atomic.get torn);
  Rox_util.Guarded.with_lock pair (fun (a, b) ->
      check_int "first field exact" 4_000 !a;
      check_int "second field exact" 4_000 !b)

(* A single-lock LRU hammered from two domains keeps exact books: every
   lookup is a hit or a miss, and the resident weight fits the budget. *)
let test_shared_lru_clean () =
  let module L = Rox_cache.Lru.Make (struct
    type t = int

    let equal = Int.equal
    let hash = Hashtbl.hash
  end) in
  let cache = L.create ~budget:4096 () in
  let workers =
    List.init 2 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to 100 do
              L.add cache (i land 15) ~weight:8 (d * 1000 + i);
              ignore (L.find cache ((i + d) land 15) : int option)
            done))
  in
  List.iter Domain.join workers;
  let st = L.stats cache in
  check_int "every lookup counted" 200 (st.Rox_cache.Lru.hits + st.misses);
  check_int "every add admitted" 200 st.insertions;
  check_int "16 keys resident" 16 st.entries;
  check_int "resident weight" (16 * 8) st.bytes

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
  let rx510 bindings ~guarded =
    List.filter (fun d -> d.A.Diagnostic.code = "RX510")
      (A.Global_lint.check ~guarded bindings)
  in
  let rogue = rx510 bindings ~guarded:[] in
  check_int "one RX510" 1 (List.length rogue);
  check_bool "it is an error" true (List.for_all A.Diagnostic.is_error rogue);
  (* A "mutex:" entry is backed only by a Guarded.t built in its file. *)
  let lru_state =
    [
      {
        A.Global_lint.gb_file = "lib/cache/lru.ml";
        gb_line = 1;
        gb_kind = A.Capability.Field;
        gb_name = "state.bytes";
        gb_what = "mutable field";
      };
    ]
  in
  check_int "guarded file: clean" 0
    (List.length (rx510 lru_state ~guarded:[ "lib/cache/lru.ml" ]));
  match rx510 lru_state ~guarded:[] with
  | [ d ] ->
    check_bool "names the entry" true
      (contains d.A.Diagnostic.message "Guarded.create")
  | ds -> Alcotest.failf "want one RX510, got %d" (List.length ds)

let test_lint_check_rx511_stale () =
  (* With no bindings at all, every allowlist entry is stale. *)
  let diags = A.Global_lint.check ~guarded:[] [] in
  let rx511 = List.filter (fun d -> d.A.Diagnostic.code = "RX511") diags in
  check_int "every entry stale" (List.length A.Capability.allowlist)
    (List.length rx511)

let test_lint_repo_tree_clean () =
  (* The committed tree must lint clean; run from the repo root if the
     test sandbox exposes it, otherwise skip (make lint covers it). *)
  let root =
    List.find_opt
      (fun d -> Sys.file_exists (Filename.concat d "util/guarded.ml"))
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
    [ "RX504"; "RX510"; "RX511" ]

let test_registry_explain () =
  (match A.Diagnostic.explain "RX504" with
   | Some text -> check_bool "explains" true (String.length text > 40)
   | None -> Alcotest.fail "RX504 must explain");
  check_bool "unknown code" true (A.Diagnostic.explain "RX999" = None)

let test_registry_markdown () =
  let md = A.Diagnostic.registry_markdown () in
  List.iter
    (fun i ->
      check_bool i.A.Diagnostic.ci_code true (contains md i.A.Diagnostic.ci_code))
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
  check_bool "DESIGN.md embeds `rox analyze --codes-md` verbatim" true
    (contains design (A.Diagnostic.registry_markdown ()))

let suite =
  [
    Alcotest.test_case "single domain -> clean" `Quick test_single_domain_clean;
    Alcotest.test_case "shared LRU across domains clean" `Slow
      test_shared_lru_clean;
    Alcotest.test_case "session leak across domains -> RX504" `Slow
      test_session_cross_domain_leak;
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
    Alcotest.test_case "session claimed by first confine" `Quick
      test_session_claimed_by_first_confine;
    Alcotest.test_case "confined leak -> RX504" `Quick test_confined_leak_code;
    Alcotest.test_case "common lock -> clean" `Quick test_common_lock_clean;
  ]
