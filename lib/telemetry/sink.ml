type span = {
  name : string;
  start_ns : int64;
  dur_ns : int64;
  depth : int;
  lane : int;
  attrs : (string * string) list;
}

type t = {
  is_enabled : bool;
  cap : int;
  metrics : Metrics.t;
  mutable rev_spans : span list;
  mutable n_spans : int;
  mutable n_dropped : int;
  mutable live : int;
}

let default_cap = 65_536

let create ?(cap = default_cap) ~enabled () =
  {
    is_enabled = enabled;
    cap = max 1 cap;
    metrics = Metrics.create ();
    rev_spans = [];
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
  t.rev_spans <- [];
  t.n_spans <- 0;
  t.n_dropped <- 0

let close t name start depth attrs record =
  let dur = Int64.sub (Clock.now_ns ()) start in
  (match record with
   | None -> ()
   | Some r -> r t.metrics (Int64.to_int dur));
  if t.n_spans >= t.cap then begin
    t.n_dropped <- t.n_dropped + 1;
    Metrics.incr t.metrics.Metrics.spans_dropped
  end
  else begin
    let attrs = match attrs with None -> [] | Some f -> f () in
    t.rev_spans <-
      { name; start_ns = start; dur_ns = dur; depth; lane = 0; attrs } :: t.rev_spans;
    t.n_spans <- t.n_spans + 1
  end

let with_span t ?attrs ?record name f =
  if not t.is_enabled then f ()
  else begin
    let start = Clock.now_ns () in
    let depth = t.live in
    t.live <- depth + 1;
    Fun.protect
      ~finally:(fun () ->
        t.live <- depth;
        close t name start depth attrs record)
      f
  end

let spans t = List.rev t.rev_spans

let spans_chronological t =
  List.sort
    (fun a b ->
      match Int64.compare a.start_ns b.start_ns with
      | 0 -> compare a.depth b.depth
      | c -> c)
    (spans t)
