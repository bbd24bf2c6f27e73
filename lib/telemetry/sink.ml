type span = {
  name : string;
  start_ns : int64;
  dur_ns : int64;
  depth : int;
  lane : int;
  attrs : (string * string) list;
}

type chain_path = {
  label : string;
  via : string;
  cost : float;
  sf : float;
}

type event =
  | Vertex_initialized of { vertex : int; card : int }
  | Edge_weighted of { edge : int; weight : float }
  | Chain_started of { source : int; min_edge : int }
  | Chain_round of { round : int; cutoff : int; paths : chain_path list }
  | Chain_chosen of {
      edges : int list;
      trigger : Metrics.chain_trigger;
    }
  | Edge_executed of { edge : int; order : int; pairs : int; rel_rows : int }
  | Cache_lookup of { edge : int; store : [ `Relation | `Estimate ]; hit : bool }
  | Truncated of { dropped : int }

(* One buffer, arrival order: a span arrives when it closes, an event when
   it is emitted. Entries are kept compact — unboxed int nanoseconds, no
   [span] record — because retained traces hold them for as long as the
   flight recorder keeps the request; [span] records and strings are built
   only when a reader asks. *)
type entry =
  | Span of {
      name : string;
      start : int;
      dur : int;
      depth : int;
      attrs : (string * string) list;
    }
  | Event of { at : int; depth : int; ev : event }

let now () = Int64.to_int (Clock.now_ns ())

let to_span name start dur depth attrs =
  { name; start_ns = Int64.of_int start; dur_ns = Int64.of_int dur; depth; lane = 0; attrs }

type t = {
  is_enabled : bool;
  cap : int;
  metrics : Metrics.t;
  mutable rev : entry list;
  mutable n_entries : int;
  mutable n_spans : int;
  mutable n_dropped : int;
  mutable live : int;
}

let default_cap = 65_536

let create ?(cap = default_cap) ~enabled () =
  if cap < 1 then invalid_arg (Printf.sprintf "Sink.create: cap %d < 1" cap);
  {
    is_enabled = enabled;
    cap;
    metrics = Metrics.create ();
    rev = [];
    n_entries = 0;
    n_spans = 0;
    n_dropped = 0;
    live = 0;
  }

let null () = create ~enabled:false ()
let enabled t = t.is_enabled
let metrics t = t.metrics
let span_count t = t.n_spans
let dropped t = t.n_dropped
let depth t = t.live

let reset t =
  t.rev <- [];
  t.n_entries <- 0;
  t.n_spans <- 0;
  t.n_dropped <- 0

let full t = t.n_entries >= t.cap

let drop t =
  t.n_dropped <- t.n_dropped + 1;
  Metrics.incr t.metrics.Metrics.spans_dropped

let push t entry =
  t.rev <- entry :: t.rev;
  t.n_entries <- t.n_entries + 1

let close t name start depth attrs record =
  let dur = now () - start in
  (match record with
   | None -> ()
   | Some r -> r t.metrics dur);
  if full t then drop t
  else begin
    let attrs = match attrs with None -> [] | Some f -> f () in
    push t (Span { name; start; dur; depth; attrs });
    t.n_spans <- t.n_spans + 1
  end

let with_span t ?attrs ?record name f =
  if not t.is_enabled then f ()
  else begin
    let start = now () in
    let depth = t.live in
    t.live <- depth + 1;
    Fun.protect
      ~finally:(fun () ->
        t.live <- depth;
        close t name start depth attrs record)
      f
  end

let emit t ev =
  if t.is_enabled then
    if full t then drop t
    else push t (Event { at = now (); depth = t.live; ev })

let spans t =
  List.fold_left
    (fun acc -> function
      | Span { name; start; dur; depth; attrs } -> to_span name start dur depth attrs :: acc
      | Event _ -> acc)
    [] t.rev

let events t =
  let evs =
    List.fold_left (fun acc -> function Event e -> e.ev :: acc | Span _ -> acc) [] t.rev
  in
  if t.n_dropped > 0 then evs @ [ Truncated { dropped = t.n_dropped } ] else evs

let execution_order t =
  List.filter_map (function Edge_executed { edge; _ } -> Some edge | _ -> None) (events t)

let chain_rounds t =
  List.filter_map
    (function
      | Chain_round { round; cutoff; paths } -> Some (round, cutoff, paths)
      | _ -> None)
    (events t)

let count_lookups ?store ~hits_only t =
  List.fold_left
    (fun n -> function
      | Cache_lookup { store = s; hit; _ }
        when (hit || not hits_only)
             && (match store with None -> true | Some wanted -> s = wanted) ->
        n + 1
      | _ -> n)
    0 (events t)

let cache_hits ?store t = count_lookups ?store ~hits_only:true t
let cache_lookups ?store t = count_lookups ?store ~hits_only:false t

(* ---- timeline: events rendered as zero-duration spans ---- *)

let store_label = function `Relation -> "relation" | `Estimate -> "estimate"

let event_span at depth ev =
  let i = string_of_int and f = Printf.sprintf "%g" in
  let name, attrs =
    match ev with
    | Vertex_initialized { vertex; card } ->
      ("vertex_initialized", [ ("vertex", i vertex); ("card", i card) ])
    | Edge_weighted { edge; weight } ->
      ("edge_weighted", [ ("edge", i edge); ("weight", f weight) ])
    | Chain_started { source; min_edge } ->
      ("chain_started", [ ("source", i source); ("min_edge", i min_edge) ])
    | Chain_round { round; cutoff; paths } ->
      ( "chain_round",
        ("round", i round) :: ("cutoff", i cutoff)
        :: List.map
             (fun p ->
               (p.label, Printf.sprintf "via %s cost=%g sf=%g" p.via p.cost p.sf))
             paths )
    | Chain_chosen { edges; trigger } ->
      ( "chain_chosen",
        [ ("edges", String.concat " " (List.map i edges));
          ("trigger", Metrics.chain_trigger_label trigger) ] )
    | Edge_executed { edge; order; pairs; rel_rows } ->
      ( "edge_executed",
        [ ("edge", i edge); ("order", i order); ("pairs", i pairs);
          ("rel_rows", i rel_rows) ] )
    | Cache_lookup { edge; store; hit } ->
      ( "cache_lookup",
        [ ("edge", i edge); ("store", store_label store); ("hit", string_of_bool hit) ] )
    | Truncated { dropped } -> ("truncated", [ ("dropped", i dropped) ])
  in
  to_span name at 0 depth attrs

(* A snapshot shares the entries and copies only the spine, into an array:
   one word per entry instead of a cons cell's three, for as long as the
   recorder retains it. *)
type snapshot = entry array

let snapshot t = if t.rev = [] then None else Some (Array.of_list t.rev)

(* The sort is stable and the buffer is in arrival order, so an event and
   a sibling span opened in the same clock tick keep their real order. *)
let snapshot_timeline entries =
  Array.fold_left
    (fun acc -> function
      | Span { name; start; dur; depth; attrs } -> to_span name start dur depth attrs :: acc
      | Event { at; depth; ev } -> event_span at depth ev :: acc)
    [] entries
  |> List.stable_sort (fun a b ->
         match Int64.compare a.start_ns b.start_ns with
         | 0 -> compare a.depth b.depth
         | c -> c)

let timeline t = snapshot_timeline (Array.of_list t.rev)
