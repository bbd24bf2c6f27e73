let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Prometheus label-value escaping: inside a label's double quotes the
   exposition format requires backslash, double quote and line feed to
   be escaped; everything else passes through verbatim. Required before
   client-supplied tenant ids become label values — an unescaped
   client_id containing a quote-brace-newline sequence would otherwise
   inject whole fake series into the scrape. *)
let escape_label s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON                                            *)

(* The writer takes bare [(tid, spans, dropped)] parts rather than
   [Sink.t]s so retained flight-recorder traces — timelines that have
   outlived their sink — export through the same code path as live
   sinks. Spans must arrive in chronological order (the trace-event
   contract for same-timestamp nesting); optimizer events arrive as
   zero-duration spans and export as zero-duration complete events. *)
let chrome_trace_parts ?(process_name = "rox") parts =
  let buf = Buffer.create 4096 in
  let first = ref true in
  let event fields =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_string buf "    {";
    Buffer.add_string buf (String.concat ", " fields);
    Buffer.add_string buf "}"
  in
  (* Timestamps relative to the earliest span keep the numbers small and
     the Perfetto timeline anchored at ~0. *)
  let epoch =
    List.fold_left
      (fun acc (_, spans, _) ->
        List.fold_left
          (fun acc (s : Sink.span) -> Int64.min acc s.Sink.start_ns)
          acc spans)
      Int64.max_int parts
  in
  let epoch = if epoch = Int64.max_int then 0L else epoch in
  let ts ns = Printf.sprintf "%.3f" (Clock.us_of_ns (Int64.sub ns epoch)) in
  Buffer.add_string buf "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n";
  event
    [ "\"name\": \"process_name\""; "\"ph\": \"M\""; "\"cat\": \"__metadata\"";
      "\"ts\": 0"; "\"pid\": 0"; "\"tid\": 0";
      Printf.sprintf "\"args\": {\"name\": \"%s\"}" (json_escape process_name) ];
  List.iter
    (fun (tid, spans, dropped) ->
      event
        [ "\"name\": \"thread_name\""; "\"ph\": \"M\""; "\"cat\": \"__metadata\"";
          "\"ts\": 0"; "\"pid\": 0"; Printf.sprintf "\"tid\": %d" tid;
          Printf.sprintf "\"args\": {\"name\": \"session-%d\"}" tid ];
      List.iter
        (fun (s : Sink.span) ->
          let args =
            match s.Sink.attrs with
            | [] -> "\"args\": {}"
            | attrs ->
              "\"args\": {"
              ^ String.concat ", "
                  (List.map
                     (fun (k, v) ->
                       Printf.sprintf "\"%s\": \"%s\"" (json_escape k) (json_escape v))
                     attrs)
              ^ "}"
          in
          event
            [ Printf.sprintf "\"name\": \"%s\"" (json_escape s.Sink.name);
              "\"ph\": \"X\""; "\"cat\": \"rox\"";
              Printf.sprintf "\"ts\": %s" (ts s.Sink.start_ns);
              Printf.sprintf "\"dur\": %.3f" (Clock.us_of_ns s.Sink.dur_ns);
              "\"pid\": 0"; Printf.sprintf "\"tid\": %d" tid; args ])
        spans;
      if dropped > 0 then
        event
          [ Printf.sprintf "\"name\": \"telemetry truncated: %d entries dropped\""
              dropped;
            "\"ph\": \"i\""; "\"cat\": \"rox\""; "\"s\": \"t\""; "\"ts\": 0";
            "\"pid\": 0"; Printf.sprintf "\"tid\": %d" tid; "\"args\": {}" ])
    parts;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let chrome_trace ?process_name sinks =
  chrome_trace_parts ?process_name
    (List.map
       (fun (tid, sink) ->
         (tid, Sink.timeline sink, Sink.dropped sink))
       sinks)

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                         *)

let histogram_series buf ?label (h : Metrics.histogram) =
  let name = h.Metrics.h_name in
  (* [inner] opens a bucket's label set, [outer] is the whole label set
     of the _sum and _count lines. *)
  let inner, outer =
    match label with
    | None -> ("", "")
    | Some (k, v) ->
      let l = Printf.sprintf "%s=\"%s\"" k (escape_label v) in
      (l ^ ",", "{" ^ l ^ "}")
  in
  let highest = ref (-1) in
  Array.iteri (fun i n -> if n > 0 then highest := i) h.Metrics.h_buckets;
  let cum = ref 0 in
  for i = 0 to !highest do
    cum := !cum + h.Metrics.h_buckets.(i);
    Printf.bprintf buf "%s_bucket{%sle=\"%d\"} %d\n" name inner
      (Metrics.bucket_upper i) !cum
  done;
  Printf.bprintf buf "%s_bucket{%sle=\"+Inf\"} %d\n" name inner h.Metrics.h_count;
  Printf.bprintf buf "%s_sum%s %d\n" name outer h.Metrics.h_sum;
  Printf.bprintf buf "%s_count%s %d\n" name outer h.Metrics.h_count

let prometheus (m : Metrics.t) =
  let buf = Buffer.create 4096 in
  let head name help kind =
    Printf.bprintf buf "# HELP %s %s\n# TYPE %s %s\n" name help name kind
  in
  List.iter
    (fun (c : Metrics.counter) ->
      head c.Metrics.c_name c.Metrics.c_help "counter";
      Printf.bprintf buf "%s %d\n" c.Metrics.c_name c.Metrics.c_value)
    (Metrics.counters m);
  List.iter
    (fun (l : Metrics.labelled) ->
      head l.Metrics.l_name l.Metrics.l_help "counter";
      Array.iteri
        (fun i v ->
          Printf.bprintf buf "%s{%s=\"%s\"} %d\n" l.Metrics.l_name l.Metrics.l_key
            (escape_label v) l.Metrics.l_counts.(i))
        l.Metrics.l_values)
    (Metrics.labelled_counters m);
  List.iter
    (fun (g : Metrics.gauge) ->
      head g.Metrics.g_name g.Metrics.g_help "gauge";
      Printf.bprintf buf "%s %g\n" g.Metrics.g_name g.Metrics.g_value)
    (Metrics.gauges m);
  List.iter
    (fun (h : Metrics.histogram) ->
      head h.Metrics.h_name h.Metrics.h_help "histogram";
      histogram_series buf h)
    (Metrics.histograms m);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Human profile summary                                              *)

let pct part whole =
  if whole <= 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole

let ms = Clock.ms_of_ns

let hist_line (h : Metrics.histogram) =
  if h.Metrics.h_count = 0 then "none"
  else
    Printf.sprintf "%d  total %.2f ms  p50 %.3f ms  p95 %.3f ms" h.Metrics.h_count
      (ms h.Metrics.h_sum)
      (ms (int_of_float (Metrics.quantile h 0.5)))
      (ms (int_of_float (Metrics.quantile h 0.95)))

let ratio_line hits misses =
  let total = hits + misses in
  if total = 0 then "no lookups"
  else Printf.sprintf "%d/%d hits (%.1f%%)" hits total (pct hits total)

let profile ?work_units (m : Metrics.t) =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let c (x : Metrics.counter) = x.Metrics.c_value in
  line "== rox profile =========================================";
  line "queries served      %d  (%d budget abort(s))" (c m.Metrics.queries_served)
    (c m.Metrics.budget_aborts);
  if m.Metrics.compile_ns.Metrics.h_count > 0 then
    line "compile             %s" (hist_line m.Metrics.compile_ns);
  let sampling = c m.Metrics.sampling_time_ns in
  let execution = c m.Metrics.execution_time_ns in
  let wall_total = sampling + execution in
  line "wall-clock          sampling %.2f ms (%.1f%%) | execution %.2f ms (%.1f%%)"
    (ms sampling) (pct sampling wall_total) (ms execution) (pct execution wall_total);
  (match work_units with
   | None -> ()
   | Some (ws, we) ->
     (* The deterministic Figure 8 ratio, next to the wall-clock one. *)
     line "work units          sampling %d (%.1f%%) | execution %d (%.1f%%)" ws
       (pct ws (ws + we)) we (pct we (ws + we)));
  line "edge executions     %s" (hist_line m.Metrics.edge_execution_ns);
  line "sampled runs        %s | %d replayed" (hist_line m.Metrics.sampled_run_ns)
    (c m.Metrics.sampled_replays);
  line "chain rounds        %s" (hist_line m.Metrics.chain_round_ns);
  let stops = m.Metrics.chain_stops in
  line "chain stops         %s"
    (String.concat " | "
       (Array.to_list
          (Array.mapi
             (fun i v -> Printf.sprintf "%s %d" v stops.Metrics.l_counts.(i))
             stops.Metrics.l_values)));
  line "cache               relation %s | estimate %s"
    (ratio_line (c m.Metrics.relation_cache_hits) (c m.Metrics.relation_cache_misses))
    (ratio_line (c m.Metrics.estimate_cache_hits) (c m.Metrics.estimate_cache_misses));
  if m.Metrics.cache_resident_bytes.Metrics.g_value > 0.0 then
    line "cache resident      %.0f bytes" m.Metrics.cache_resident_bytes.Metrics.g_value;
  line "materialized        %d rows from %d pairs over %d edge execution(s)"
    (c m.Metrics.rows_materialized) (c m.Metrics.pairs_emitted)
    (c m.Metrics.edges_executed);
  if c m.Metrics.spans_dropped > 0 then
    line "entries dropped     %d (raise the sink cap for a complete trace)"
      (c m.Metrics.spans_dropped);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Chrome trace validation                                            *)

let validate_chrome json =
  let module J = Rox_util.Minijson in
  let ( let* ) r f = Result.bind r f in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let* events =
    match J.member "traceEvents" json with
    | Some (J.Arr l) -> Ok l
    | Some _ -> err "\"traceEvents\" is not an array"
    | None -> err "missing top-level \"traceEvents\" array"
  in
  let str k ev = Option.bind (J.member k ev) J.to_string_opt in
  let num k ev = Option.bind (J.member k ev) J.to_num_opt in
  (* Pass 1: per-event schema; collect complete events per (pid, tid). *)
  let lanes = Hashtbl.create 8 in
  let rec check_events i = function
    | [] -> Ok ()
    | ev :: rest ->
      let* () =
        match (str "name" ev, str "ph" ev, str "cat" ev) with
        | Some _, Some _, Some _ -> Ok ()
        | _ -> err "event #%d: missing string name/ph/cat" i
      in
      let* ts, pid, tid =
        match (num "ts" ev, num "pid" ev, num "tid" ev) with
        | Some ts, Some pid, Some tid -> Ok (ts, pid, tid)
        | _ -> err "event #%d: missing numeric ts/pid/tid" i
      in
      let* () =
        if str "ph" ev = Some "X" then
          match num "dur" ev with
          | Some d when d >= 0.0 ->
            Hashtbl.replace lanes (pid, tid)
              ((ts, d) :: (try Hashtbl.find lanes (pid, tid) with Not_found -> []));
            Ok ()
          | Some _ -> err "event #%d: negative dur" i
          | None -> err "event #%d: complete (\"X\") event without dur" i
        else Ok ()
      in
      check_events (i + 1) rest
  in
  let* () = check_events 0 events in
  (* Pass 2: complete events in one lane must be well-nested. *)
  let eps = 0.002 (* us; timestamps are printed with 3 decimals *) in
  let check_lane (pid, tid) spans =
    let sorted =
      List.sort
        (fun (ts1, d1) (ts2, d2) ->
          match compare ts1 ts2 with 0 -> compare d2 d1 | c -> c)
        spans
    in
    let rec go stack = function
      | [] -> Ok ()
      | (ts, dur) :: rest ->
        let finish = ts +. dur in
        let stack = List.filter (fun top_end -> top_end >= ts -. eps) stack in
        (match stack with
         | top_end :: _ when finish > top_end +. eps ->
           err "lane pid=%g tid=%g: span at ts=%g overlaps an enclosing span" pid tid ts
         | _ -> go (finish :: stack) rest)
    in
    go [] sorted
  in
  let* n_spans =
    Hashtbl.fold
      (fun lane spans acc ->
        let* n = acc in
        let* () = check_lane lane spans in
        Ok (n + List.length spans))
      lanes (Ok 0)
  in
  Ok n_spans
