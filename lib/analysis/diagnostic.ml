type severity = Error | Warning | Info

type location =
  | Graph_loc
  | Vertex of int
  | Edge of int
  | Event of int
  | Plan_pos of int
  | Span of int
  | Site of int
  | Source of string * int

type t = {
  severity : severity;
  code : string;
  location : location;
  message : string;
  hint : string option;
}

let make severity code location ?hint message =
  { severity; code; location; message; hint }

let error code location ?hint message = make Error code location ?hint message
let warning code location ?hint message = make Warning code location ?hint message
let info code location ?hint message = make Info code location ?hint message

let is_error d = d.severity = Error

let severity_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

(* Errors sort before warnings before infos. *)
let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let location_string = function
  | Graph_loc -> "graph"
  | Vertex v -> Printf.sprintf "vertex v%d" v
  | Edge e -> Printf.sprintf "edge e%d" e
  | Event i -> Printf.sprintf "trace event #%d" i
  | Plan_pos i -> Printf.sprintf "plan position %d" i
  | Span i -> Printf.sprintf "telemetry span #%d" i
  | Site i -> Printf.sprintf "shared site #%d" i
  | Source (file, line) -> Printf.sprintf "%s:%d" file line

let to_string d =
  let base =
    Printf.sprintf "[%s] %s at %s: %s" d.code (severity_string d.severity)
      (location_string d.location) d.message
  in
  match d.hint with
  | None -> base
  | Some h -> base ^ "\n  hint: " ^ h

let compare_severity a b = compare (severity_rank a.severity) (severity_rank b.severity)

(* --- the code registry --------------------------------------------------

   The single table every RX code lives in: default severity, the
   one-line summary shown by [rox analyze --codes], and the longer
   explanation behind [rox analyze --explain CODE]. Check modules may
   locally soften a code (e.g. RX005 downgrades to a warning on the
   untyped side of a join), but the code's meaning and its documentation
   come from here alone. *)

type code_info = {
  ci_code : string;
  ci_severity : severity;
  ci_summary : string;
  ci_detail : string;
}

let registry =
  [
    { ci_code = "RX000"; ci_severity = Error;
      ci_summary = "query could not be compiled to a join graph";
      ci_detail =
        "The XQuery front-end rejected the input before any graph \
         existed: a parse error, or a construct outside the supported \
         FLWOR/path fragment. Nothing downstream ran." };
    { ci_code = "RX001"; ci_severity = Error;
      ci_summary = "join graph is not connected";
      ci_detail =
        "Every vertex must be reachable from every other through step or \
         equi-join edges; a disconnected graph would make the answer a \
         cartesian product across components. Compile rejects these, so \
         seeing RX001 on a built graph means a construction bug." };
    { ci_code = "RX002"; ci_severity = Error;
      ci_summary = "vertex/edge table corruption (id or endpoint out of range)";
      ci_detail =
        "Internal invariant of the graph arena: ids are dense and every \
         edge endpoint indexes a live vertex. Only a constructor bug can \
         produce this." };
    { ci_code = "RX003"; ci_severity = Error;
      ci_summary = "self-loop edge";
      ci_detail =
        "An edge with both endpoints on one vertex has no join semantics \
         in the ROX algebra." };
    { ci_code = "RX004"; ci_severity = Warning;
      ci_summary = "duplicate parallel edge (same endpoints and operator)";
      ci_detail =
        "Two edges with identical endpoints and operator are redundant \
         work for the optimizer: one of them will execute, the other is \
         implied. Usually a compilation artifact worth deduplicating." };
    { ci_code = "RX005"; ci_severity = Error;
      ci_summary = "equi-join endpoint is not a value (text/attribute) vertex";
      ci_detail =
        "Value joins compare text or attribute content; an endpoint that \
         can never carry a value (a root, an untyped element) makes the \
         predicate vacuous. Softened to a warning when the vertex could \
         still carry mixed content." };
    { ci_code = "RX006"; ci_severity = Error;
      ci_summary = "step edge crosses document boundaries";
      ci_detail =
        "Structural axes (child, descendant, ...) are defined within one \
         document; only equi-joins may bridge documents." };
    { ci_code = "RX007"; ci_severity = Error;
      ci_summary = "attribute-axis step targets a non-attribute vertex";
      ci_detail =
        "An attribute step must land on an attribute vertex; landing \
         elsewhere means the compiler lost the axis/vertex pairing." };
    { ci_code = "RX008"; ci_severity = Error;
      ci_summary = "equi-closure inconsistency (derived edge not implied, or closure incomplete)";
      ci_detail =
        "Derived equi-join edges must be exactly the transitive closure \
         of the base value joins (paper Section 2.2): a derived edge \
         with no base chain implying it, or a missing implied edge, \
         breaks the optimizer's freedom to pick any join order." };
    { ci_code = "RX009"; ci_severity = Warning;
      ci_summary = "multiple root vertices for one document";
      ci_detail =
        "Each document contributes one root; duplicates are harmless for \
         correctness but inflate the graph and usually indicate a \
         compilation quirk." };
    { ci_code = "RX101"; ci_severity = Error;
      ci_summary = "trace executes an unknown edge id";
      ci_detail =
        "The replayed trace references an edge the graph does not have — \
         the trace and graph are out of sync." };
    { ci_code = "RX102"; ci_severity = Error;
      ci_summary = "trace executes an edge twice";
      ci_detail =
        "Each edge joins once; re-execution would double-count work and \
         signals a bookkeeping bug in the optimizer loop." };
    { ci_code = "RX103"; ci_severity = Error;
      ci_summary = "execution order is not contiguous ascending";
      ci_detail =
        "Edge_executed events must carry positions 0,1,2,... in order; \
         gaps or reordering mean events were lost or fabricated." };
    { ci_code = "RX104"; ci_severity = Error;
      ci_summary = "edge executed without being weighted or chain-chosen first";
      ci_detail =
        "ROX executes an edge only after sampling gave it a weight or a \
         chain round chose it (Algorithm 1/2); an unweighted execution \
         bypassed the run-time evidence the paper is built on." };
    { ci_code = "RX105"; ci_severity = Error;
      ci_summary = "chain rounds not consecutive or cutoff not monotone";
      ci_detail =
        "Chain sampling proceeds in rounds with a non-decreasing cutoff; \
         violations mean the Algorithm 2 loop went off-script." };
    { ci_code = "RX106"; ci_severity = Error;
      ci_summary = "chain-chosen edges do not form a connected path from the chain source";
      ci_detail =
        "Each chain round extends a connected path anchored at the chain \
         source vertex; a disconnected choice cannot be a chain." };
    { ci_code = "RX107"; ci_severity = Error;
      ci_summary = "trivial (root-descendant) edge appears in the execution order";
      ci_detail =
        "Root-descendant edges are implied by document structure and are \
         never physically executed; executing one wastes work and skews \
         the cost accounting." };
    { ci_code = "RX108"; ci_severity = Error;
      ci_summary = "cardinality accounting violation during component replay";
      ci_detail =
        "Replaying the trace against the component bookkeeping produced \
         different intermediate cardinalities than the trace recorded — \
         the executor and its accounting disagree." };
    { ci_code = "RX109"; ci_severity = Warning;
      ci_summary = "non-trivial edge neither executed nor transitively implied";
      ci_detail =
        "An edge the plan never covered: the answer may still be correct \
         via implication through executed joins, but the optimizer \
         should have accounted for it explicitly." };
    { ci_code = "RX110"; ci_severity = Error;
      ci_summary = "chain chose an already-executed edge";
      ci_detail =
        "Chain rounds explore unexecuted edges only; choosing an \
         executed one would re-join settled state." };
    { ci_code = "RX111"; ci_severity = Error;
      ci_summary = "malformed vertex-initialized event";
      ci_detail = "Vertex_initialized must name a live vertex, once." };
    { ci_code = "RX112"; ci_severity = Error;
      ci_summary = "malformed edge-weighted event";
      ci_detail =
        "Edge_weighted must name a live edge and carry a non-negative \
         weight." };
    { ci_code = "RX113"; ci_severity = Error;
      ci_summary = "malformed chain-round statistics";
      ci_detail =
        "A chain round's recorded sample sizes / estimates are \
         internally inconsistent (negative counts, estimate without a \
         sample)." };
    { ci_code = "RX114"; ci_severity = Error;
      ci_summary = "cache lookup references an unknown edge id";
      ci_detail =
        "Cache_lookup events must point at live edges; a dangling \
         id means the cache key schema and the graph diverged." };
    { ci_code = "RX201"; ci_severity = Error;
      ci_summary = "plan references an unknown edge id";
      ci_detail = "The executed plan names an edge the graph lacks." };
    { ci_code = "RX202"; ci_severity = Error;
      ci_summary = "plan lists an edge twice";
      ci_detail = "A join order visits each edge at most once." };
    { ci_code = "RX203"; ci_severity = Error;
      ci_summary = "plan misses a non-trivial edge";
      ci_detail =
        "Every non-trivial edge must be executed or implied by the \
         executed set; downgraded to info when transitive implication \
         covers it." };
    { ci_code = "RX204"; ci_severity = Warning;
      ci_summary = "plan lists a trivial edge";
      ci_detail =
        "Trivial edges never execute physically; listing one in a plan \
         is harmless but sloppy." };
    { ci_code = "RX205"; ci_severity = Info;
      ci_summary = "plan step opens a new component (non-contiguous plan)";
      ci_detail =
        "ROX prefers plans that grow one connected component; opening a \
         second component forces a later cartesian-style merge. Legal, \
         sometimes optimal, always worth an eyebrow." };
    { ci_code = "RX301"; ci_severity = Error;
      ci_summary = "operator output violated the sorted duplicate-free contract";
      ci_detail =
        "Every algebra operator returns strictly increasing node \
         sequences; the sanitizer re-checked an output and found \
         disorder or duplicates." };
    { ci_code = "RX302"; ci_severity = Error;
      ci_summary = "operator output escaped its input domain";
      ci_detail =
        "An operator produced a node that none of its inputs contained — \
         it invented data." };
    { ci_code = "RX303"; ci_severity = Error;
      ci_summary = "operator exceeded its Table 1 cost bound";
      ci_detail =
        "The work an operator charged exceeded the paper's Table 1 \
         bound for its input sizes; either the kernel regressed or the \
         accounting lies." };
    { ci_code = "RX304"; ci_severity = Error;
      ci_summary = "cache hit differed from a fresh execution of the same operation";
      ci_detail =
        "Under ROX_SANITIZE=1 every cache hit is cross-checked \
         bit-for-bit against a fresh execution; a mismatch means stale \
         or corrupted cache state (check epoch scoping first)." };
    { ci_code = "RX305"; ci_severity = Error;
      ci_summary = "a column's sorted flag contradicts its data";
      ci_detail =
        "Kernels trust the sorted flag to pick merge paths; a dishonest \
         flag silently corrupts join results." };
    { ci_code = "RX306"; ci_severity = Error;
      ci_summary = "columnar kernel diverged from the naive reference";
      ci_detail =
        "The columnar kernel's output differed from the retained \
         row-major reference implementation on the same input." };
    { ci_code = "RX307"; ci_severity = Error;
      ci_summary = "process-global mutable state read inside a session-confined run";
      ci_detail =
        "While a session's confined region is armed, every operator must \
         draw RNG, counters and mode from the session it was handed; a \
         read through a process-global accessor breaks the isolation \
         that makes concurrent sessions sound." };
    { ci_code = "RX401"; ci_severity = Error;
      ci_summary = "telemetry spans are not well-nested (overlap without containment)";
      ci_detail =
        "Spans from one sink must nest like a call tree; partial overlap \
         means a span leaked across an unwind." };
    { ci_code = "RX402"; ci_severity = Error;
      ci_summary = "telemetry span has a negative duration";
      ci_detail = "The monotonic clock cannot run backwards; a negative \
                   duration is a sink bookkeeping bug." };
    { ci_code = "RX404"; ci_severity = Warning;
      ci_summary = "telemetry buffer truncated (spans or events dropped past the cap)";
      ci_detail =
        "The sink's one bounded buffer of spans and optimizer events hit \
         its cap; the event stream ends in a Truncated marker, exporters \
         mark the truncation, and replay findings past it (typically \
         RX109) are partial. Raise the cap or trace a smaller run." };
    { ci_code = "RX501"; ci_severity = Error;
      ci_summary = "data race: unsynchronized cross-domain write to a shared site";
      ci_detail =
        "The access log recorded a write to a shared site that is \
         neither happens-before ordered with another domain's access to \
         the same site nor covered by a common lock — with at least one \
         side holding no lock at all. This is the racy interleaving the \
         detector exists to catch; the report names both accesses and \
         the locks (if any) each held." };
    { ci_code = "RX502"; ci_severity = Warning;
      ci_summary = "lock-discipline violation: site guarded by inconsistent lock sets";
      ci_detail =
        "Eraser-style lockset refinement: every access to the site held \
         some lock, but no single lock was common to all of them, so \
         mutual exclusion is not what orders the accesses. No race \
         manifested in this interleaving (happens-before covered every \
         pair), but the discipline is fragile — a scheduling change \
         could expose it." };
    { ci_code = "RX503"; ci_severity = Error;
      ci_summary = "mutation-epoch read/write race";
      ci_detail =
        "A read of a generation counter (e.g. the engine's mutation \
         epoch) raced an epoch bump from another domain: the reader may \
         mint a fingerprint in a retired generation. Epoch sites get \
         their own code because the damage is silent cache staleness, \
         not a crash." };
    { ci_code = "RX504"; ci_severity = Error;
      ci_summary = "session-confined state touched from multiple domains";
      ci_detail =
        "A site registered as single-owner (a session's run-time state) \
         recorded accesses from two different domains. Sessions are the \
         unit of confinement — sharing one across domains voids every \
         isolation guarantee RX307 polices within a domain. Extends \
         RX307 across the domain boundary." };
    { ci_code = "RX510"; ci_severity = Error;
      ci_summary = "undocumented mutable global or mutable field (not in the capability allowlist)";
      ci_detail =
        "rox lint inventories every top-level mutable binding (ref, \
         Atomic.t, Mutex.t, Hashtbl, DLS key, array literal) and every \
         mutable record field under lib/, and requires each to match an \
         entry in Rox_analysis.Capability.allowlist carrying a \
         documented guard (which lock, which confinement, or why \
         write-never). New shared state must state its discipline \
         before it lands." };
    { ci_code = "RX511"; ci_severity = Warning;
      ci_summary = "stale capability allowlist entry (matches no source binding)";
      ci_detail =
        "An allowlist entry in capability.ml matched nothing during the \
         lint scan: the state it documented was removed or renamed. \
         Delete or update the entry so the allowlist stays an honest \
         inventory." };
    { ci_code = "RX601"; ci_severity = Error;
      ci_summary = "server wrote more responses than it parsed requests";
      ci_detail =
        "The serving front-end's audit counters show responses_sent \
         exceeding requests_received: some reply was fabricated without a \
         matching parsed frame — a connection-handler bookkeeping bug \
         (every reply, including protocol errors, must answer exactly one \
         frame)." };
    { ci_code = "RX603"; ci_severity = Error;
      ci_summary = "admission accounting imbalance (submitted != executed + rejected)";
      ci_detail =
        "At quiescence every submitted request must be accounted for \
         exactly once: executed by a worker or rejected at admission. An \
         imbalance means a request was dropped on the floor (a hung \
         client) or double-served." };
    { ci_code = "RX701"; ci_severity = Error;
      ci_summary = "flight-recorder accounting imbalance (records != submitted)";
      ci_detail =
        "Every admitted request — executed or rejected at admission — \
         must leave exactly one flight record, so at quiescence the \
         recorder's observed-record total equals the RX603 audit's \
         submitted count. An imbalance means a request path skipped (or \
         double-ran) its record_request hook and the slow log no longer \
         reconciles with the audit counters." };
    { ci_code = "RX702"; ci_severity = Error;
      ci_summary = "retained trace is not well-nested";
      ci_detail =
        "A span tree kept by tail sampling must satisfy the same \
         nesting discipline RX401 enforces on live sinks: spans \
         either nest or are disjoint, and spans never \
         have negative durations. A violation means retention corrupted \
         the chronological span order (or retained a half-built tree), \
         so the exported Chrome trace would render garbage." };
    { ci_code = "RX703"; ci_severity = Error;
      ci_summary = "tenant series cardinality exceeds the configured bound";
      ci_detail =
        "Per-tenant metrics are bounded to the first tenant_cap distinct \
         client_ids plus one shared overflow bucket, so a tenant flood \
         cannot grow the registry without limit. More series than \
         tenant_cap + 1 means the overflow routing broke and the scrape \
         payload (and its memory) now scales with attacker-chosen label \
         values." };
  ]

let find_code code =
  List.find_opt (fun ci -> ci.ci_code = code) registry

let of_code code location ?hint message =
  let severity =
    match find_code code with Some ci -> ci.ci_severity | None -> Error
  in
  make severity code location ?hint message

let explain code =
  match find_code code with
  | None -> None
  | Some ci ->
    Some
      (Printf.sprintf "%s (%s)\n  %s\n\n%s" ci.ci_code
         (severity_string ci.ci_severity) ci.ci_summary ci.ci_detail)

let registry_markdown () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "| code | severity | meaning |\n|---|---|---|\n";
  List.iter
    (fun ci ->
      Buffer.add_string buf
        (Printf.sprintf "| %s | %s | %s |\n" ci.ci_code
           (severity_string ci.ci_severity) ci.ci_summary))
    registry;
  Buffer.contents buf

let location_json loc =
  let open Rox_util.Minijson in
  match loc with
  | Graph_loc -> Obj [ ("kind", Str "graph") ]
  | Vertex v -> Obj [ ("kind", Str "vertex"); ("id", Num (float_of_int v)) ]
  | Edge e -> Obj [ ("kind", Str "edge"); ("id", Num (float_of_int e)) ]
  | Event i -> Obj [ ("kind", Str "event"); ("index", Num (float_of_int i)) ]
  | Plan_pos i -> Obj [ ("kind", Str "plan"); ("index", Num (float_of_int i)) ]
  | Span i -> Obj [ ("kind", Str "span"); ("index", Num (float_of_int i)) ]
  | Site i -> Obj [ ("kind", Str "site"); ("id", Num (float_of_int i)) ]
  | Source (file, line) ->
    Obj [ ("kind", Str "source"); ("file", Str file); ("line", Num (float_of_int line)) ]

let to_json d =
  let open Rox_util.Minijson in
  let fields =
    [
      ("code", Str d.code);
      ("severity", Str (severity_string d.severity));
      ("location", location_json d.location);
      ("location_string", Str (location_string d.location));
      ("message", Str d.message);
    ]
  in
  let fields =
    match d.hint with None -> fields | Some h -> fields @ [ ("hint", Str h) ]
  in
  Obj fields
