type kind = Global | Field

type entry = {
  cap_file : string;
  cap_kind : kind;
  cap_name : string;
  cap_guard : string;
}

let kind_string = function Global -> "global" | Field -> "field"

(* Terse constructors so the allowlist below reads as a table. *)
let g file name guard =
  { cap_file = file; cap_kind = Global; cap_name = name; cap_guard = guard }

let f file name guard =
  { cap_file = file; cap_kind = Field; cap_name = name; cap_guard = guard }

(* Every mutable global and mutable record field sanctioned under lib/,
   with the discipline that makes it safe under multi-domain execution.
   `rox lint` fails (RX510) on any mutable state not covered here, and
   warns (RX511) on entries that no longer match anything — the list can
   neither lag the code nor outlive it.

   The recurring guards, for reference:
   - "read-only table": initialized at module load, never written;
     module initialization happens-before every domain spawn.
   - "single-owner": reachable from exactly one session / builder /
     checker call, which lives and dies on one domain (RX504).
   - "mutex": the state lives in one Rox_util.Guarded.t, so every access
     is inside its lock's critical section. The lint holds a "mutex:"
     entry to that: its file must call Guarded.create (RX510).
   - "publish-before-spawn": written only before worker domains are
     spawned; Domain.spawn publishes the write.
   - "domain-local": a Domain.DLS key; every domain reaches its own
     value only. *)
let allowlist =
  [
    (* -- algebra --------------------------------------------------- *)
    g "lib/algebra/axis.ml" "all"
      "read-only table: axis enumeration, never written after module init";
    f "lib/algebra/cost.ml" "counter.*"
      "single-owner: each counter belongs to one session, which is \
       confined to one domain (RX504)";
    (* -- analysis -------------------------------------------------- *)
    f "lib/analysis/trace_check.ml" "comp.*"
      "single-owner: checker-local replay state, one check call";
    f "lib/analysis/trace_check.ml" "replay.*"
      "single-owner: checker-local replay state, one check call";
    (* -- cache ----------------------------------------------------- *)
    f "lib/cache/lru.ml" "node.*"
      "mutex: nodes are reachable only through the cache's Guarded.t \
       state (its table and recency list)";
    f "lib/cache/lru.ml" "state.*"
      "mutex: the table, recency list, bytes and counters are the \
       cache's Guarded.t payload";
    (* -- core ------------------------------------------------------ *)
    f "lib/core/session.ml" "t.deadline_at"
      "single-owner: a session lives and dies on one domain; under the \
       sanitize mode confine checks the owner domain (RX504)";
    (* -- joingraph ------------------------------------------------- *)
    f "lib/joingraph/graph.ml" "t.*"
      "publish-before-spawn: graphs mutate only during compilation; a \
       compiled query shared across domains is read-only";
    g "lib/joingraph/runtime.ml" "marks_key"
      "domain-local: a Domain.DLS key, so every domain grows and clears \
       its own semijoin mark buffer; a session runs on one domain (RX504) \
       and Column.semijoin leaves the buffer all zero, raising or not";
    f "lib/joingraph/runtime.ml" "t.*"
      "single-owner: per-run optimizer state owned by one session run";
    (* -- serve ----------------------------------------------------- *)
    f "lib/serve/protocol.ml" "decoder.*"
      "single-owner: one decoder per connection, fed and drained only \
       by that connection's handler thread";
    f "lib/serve/server.ml" "pending.*"
      "mutex: outcome is written and read only inside the server's \
       Guarded.t critical section (completion broadcasts under it)";
    f "lib/serve/server.ml" "shared.*"
      "mutex: queue, audit and connection counters, server metrics, \
       stopping and the worker list are the server's Guarded.t payload";
    (* -- shred ----------------------------------------------------- *)
    f "lib/shred/doc.ml" "t.doc_id"
      "publish-before-spawn: written once by Engine.register before the \
       engine is shared; read-only during serving";
    f "lib/shred/doc.ml" "builder.*"
      "single-owner: a builder is local to one parse call";
    (* -- storage --------------------------------------------------- *)
    f "lib/storage/engine.ml" "t.docs"
      "publish-before-spawn: every document is registered before the \
       first query and registration only appends";
    f "lib/storage/engine.ml" "t.ndocs"
      "publish-before-spawn: same discipline as t.docs";
    (* -- telemetry ------------------------------------------------- *)
    f "lib/telemetry/metrics.ml" "counter.*"
      "single-owner: a Metrics.t belongs to one sink on one domain; \
       cross-domain totals live in the server's own Metrics.t, \
       inside its Guarded.t";
    f "lib/telemetry/metrics.ml" "gauge.*"
      "single-owner: same discipline as counter.*";
    f "lib/telemetry/metrics.ml" "histogram.*"
      "single-owner: same discipline as counter.*";
    f "lib/telemetry/sink.ml" "t.*"
      "single-owner: sinks are session-local; the server's complete \
       merges a request's totals into its ledger under the server's lock";
    f "lib/telemetry/recorder.ml" "state.*"
      "mutex: the ring cursor and the slow-log state are the \
       recorder's Guarded.t payload";
    f "lib/telemetry/recorder.ml" "tenant_series.*"
      "mutex: tenant series are reachable only through the recorder's \
       Guarded.t tenant table, the critical section that bounds its \
       cardinality";
    (* -- util: plain data structures ------------------------------- *)
    g "lib/util/column.ml" "empty"
      "read-only table: the shared empty column holds length-0 arrays — \
       there is nothing to write";
    f "lib/util/int_table.ml" "t.*"
      "single-owner: tables are owned by one builder/session at a time";
    f "lib/util/int_vec.ml" "t.*"
      "single-owner: vectors are owned by one builder/session at a time";
    f "lib/util/str_pool.ml" "t.*"
      "publish-before-spawn: pools are populated while documents load, \
       read-only once the engine is shared";
    (* -- workload generators --------------------------------------- *)
    g "lib/workload/dblp.ml" "venues"
      "read-only table: generator vocabulary, never written";
    g "lib/workload/dblp.ml" "all_areas"
      "read-only table: generator vocabulary, never written";
    g "lib/workload/xmark.ml" "provinces"
      "read-only table: generator vocabulary, never written";
    g "lib/workload/xmark.ml" "degrees"
      "read-only table: generator vocabulary, never written";
    (* -- parsers and compiler -------------------------------------- *)
    f "lib/xmldom/xml_parser.ml" "state.*"
      "single-owner: parser state is local to one parse call";
    f "lib/xquery/parser.ml" "state.*"
      "single-owner: parser state is local to one parse call";
    f "lib/xquery/compile.ml" "ctx.*"
      "single-owner: compile context is local to one compile call";
  ]

let name_matches ~pattern name =
  pattern = "*" || pattern = name
  ||
  (let n = String.length pattern in
   n >= 2
   && String.sub pattern (n - 2) 2 = ".*"
   && String.length name >= n - 1
   && String.sub name 0 (n - 1) = String.sub pattern 0 (n - 1))

let find ~file ~kind ~name =
  List.find_opt
    (fun e ->
      e.cap_file = file && e.cap_kind = kind
      && name_matches ~pattern:e.cap_name name)
    allowlist
