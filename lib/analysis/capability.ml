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
     checker call, which lives and dies on one domain (RX307/RX504).
   - "mutex": every access inside one named mutex's critical section.
   - "publish-before-spawn": written only before worker domains are
     spawned; Domain.spawn publishes the write. *)
let allowlist =
  [
    (* -- algebra --------------------------------------------------- *)
    g "lib/algebra/axis.ml" "all"
      "read-only table: axis enumeration, never written after module init";
    g "lib/algebra/sanitize.ml" "default"
      "publish-before-spawn: seeded from ROX_SANITIZE at module init, \
       read-only afterwards (sessions copy it at construction)";
    g "lib/algebra/sanitize.ml" "region_key"
      "Domain.DLS key: the pointed-to region marker is per-domain by \
       construction — it is how RX307 confinement is implemented";
    f "lib/algebra/cost.ml" "counter.*"
      "single-owner: each counter belongs to one session, which is \
       confined to one domain (RX307/RX504)";
    (* -- analysis -------------------------------------------------- *)
    f "lib/analysis/race_check.ml" "site_state.*"
      "single-owner: checker-local replay state, built and consumed \
       inside one check call on one domain";
    f "lib/analysis/trace_check.ml" "comp.*"
      "single-owner: checker-local replay state, one check call";
    f "lib/analysis/trace_check.ml" "replay.*"
      "single-owner: checker-local replay state, one check call";
    (* -- cache ----------------------------------------------------- *)
    f "lib/cache/lru.ml" "node.*"
      "mutex: recency links and entry payloads only change inside the \
       owning cache's lock critical section";
    f "lib/cache/lru.ml" "t.*"
      "mutex: every operation runs under the cache's one lock \
       (Mutex.protect in locked / try_locked); the armed access log \
       records each locked entry as a Write";
    (* -- core ------------------------------------------------------ *)
    f "lib/core/session.ml" "t.deadline_at"
      "single-owner: a session lives and dies on one domain; confine \
       records an RX504 site access to prove it";
    (* -- joingraph ------------------------------------------------- *)
    f "lib/joingraph/graph.ml" "t.*"
      "publish-before-spawn: graphs mutate only during compilation; a \
       compiled query shared across domains is read-only";
    f "lib/joingraph/runtime.ml" "t.*"
      "single-owner: per-run optimizer state owned by one session run";
    f "lib/joingraph/trace.ml" "t.*"
      "single-owner: the trace belongs to one session (one domain); \
       cross-domain aggregation copies, never shares";
    (* -- serve ----------------------------------------------------- *)
    f "lib/serve/protocol.ml" "decoder.*"
      "single-owner: one decoder per connection, fed and drained only \
       by that connection's handler thread";
    f "lib/serve/server.ml" "pending.*"
      "mutex: outcome only changes inside the server's one t.mutex \
       critical section (completion broadcasts under it)";
    f "lib/serve/server.ml" "t.*"
      "mutex: queue, audit and connection counters, server metrics, \
       stopping and the worker list all mutate inside Mutex.protect \
       t.mutex (the locked wrapper records the Accesslog serve.mutex \
       bracket); worker spawn/join carry hb tokens";
    (* -- shred ----------------------------------------------------- *)
    f "lib/shred/doc.ml" "t.doc_id"
      "publish-before-spawn: written once by Engine.register before the \
       engine is shared; read-only during serving";
    f "lib/shred/doc.ml" "builder.*"
      "single-owner: a builder is local to one parse call";
    (* -- storage --------------------------------------------------- *)
    f "lib/storage/engine.ml" "t.docs"
      "publish-before-spawn: registration happens before serving; the \
       epoch bump (an RX503 site) is the mutation's last store";
    f "lib/storage/engine.ml" "t.ndocs"
      "publish-before-spawn: same discipline as t.docs";
    f "lib/storage/engine.ml" "t.epoch"
      "publish-before-spawn: bumps are recorded at the engine.epoch \
       access-log site, so a bump overlapping a reader is RX503";
    (* -- telemetry ------------------------------------------------- *)
    f "lib/telemetry/metrics.ml" "counter.*"
      "single-owner: a Metrics.t belongs to one sink on one domain; \
       cross-domain totals live in the Aggregate's own Metrics.t, \
       mutated only under its mutex";
    f "lib/telemetry/metrics.ml" "gauge.*"
      "single-owner: same discipline as counter.*";
    f "lib/telemetry/metrics.ml" "histogram.*"
      "single-owner: same discipline as counter.*";
    f "lib/telemetry/sink.ml" "t.*"
      "single-owner: sinks are session-local; Aggregate.absorb moves \
       totals into the aggregate under its mutex";
    f "lib/telemetry/recorder.ml" "t.*"
      "mutex: the ring cursor and the slow-log state are read and \
       written only under the recorder's one t.mutex (the locked \
       wrapper records the telemetry.recorder access-log bracket)";
    f "lib/telemetry/recorder.ml" "tenant_series.*"
      "mutex: tenant counters mutate only under the recorder's one \
       t.mutex, the same critical section that bounds the tenant \
       table's cardinality";
    (* -- util: access log itself ----------------------------------- *)
    g "lib/util/accesslog.ml" "armed_flag"
      "publish-before-spawn: flipped at CLI startup or by a racecheck \
       driver before domains exist; spawn publishes the value";
    g "lib/util/accesslog.ml" "registry_mutex"
      "mutex: it IS the guard for the site/lock registries";
    g "lib/util/accesslog.ml" "sites"
      "mutex: grown only inside registry_mutex; snapshot arrays are \
       immutable once handed out";
    g "lib/util/accesslog.ml" "n_sites" "mutex: written under registry_mutex";
    g "lib/util/accesslog.ml" "lock_names"
      "mutex: grown only inside registry_mutex";
    g "lib/util/accesslog.ml" "n_locks" "mutex: written under registry_mutex";
    g "lib/util/accesslog.ml" "token_names"
      "mutex: grown only inside registry_mutex";
    g "lib/util/accesslog.ml" "n_tokens" "mutex: written under registry_mutex";
    g "lib/util/accesslog.ml" "cap"
      "publish-before-spawn: sized by set_armed before recording begins";
    g "lib/util/accesslog.ml" "buf"
      "publish-before-spawn: allocated by set_armed before recording; \
       slot writes are claimed by the atomic cursor";
    g "lib/util/accesslog.ml" "cursor"
      "Atomic.t: fetch_and_add claims disjoint slots";
    g "lib/util/accesslog.ml" "dropped_count" "Atomic.t: monotonic counter";
    g "lib/util/accesslog.ml" "lockset_key"
      "Domain.DLS key: each domain sees only its own lockset bitmask";
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
