(* Span-to-layer reduction for the traced benchmark run.

   The program already emits one span per layer boundary (compile, query,
   chain_round, exec_sampled, race_probe, execute_edge, partition_task).
   This module folds the spans of many queries into per-name totals and
   self times, where a span's self time is its duration minus the time of
   its direct children on the same lane. Lane 0 is the query's own call
   tree; lanes > 0 are pool workers, whose spans overlap lane 0 in wall
   time and are therefore kept apart instead of being subtracted from any
   lane-0 parent. *)

module Sink = Rox_telemetry.Sink

type acc = {
  mutable count : int;
  mutable total_ns : int;
  mutable self_ns : int;
}

type t = {
  lane0 : (string, acc) Hashtbl.t;
  workers : (string, acc) Hashtbl.t;
  mutable spans : int;
  mutable dropped : int;
  mutable truncated_queries : int;
}

let create () =
  {
    lane0 = Hashtbl.create 16;
    workers = Hashtbl.create 4;
    spans = 0;
    dropped = 0;
    truncated_queries = 0;
  }

let zero () = { count = 0; total_ns = 0; self_ns = 0 }

let acc_of tbl name =
  match Hashtbl.find_opt tbl name with
  | Some a -> a
  | None ->
    let a = zero () in
    Hashtbl.replace tbl name a;
    a

let find t name = Option.value (Hashtbl.find_opt t.lane0 name) ~default:(zero ())
let find_worker t name =
  Option.value (Hashtbl.find_opt t.workers name) ~default:(zero ())

let worker_total_ns t = Hashtbl.fold (fun _ a s -> s + a.total_ns) t.workers 0

let stop (s : Sink.span) = Int64.add s.Sink.start_ns s.Sink.dur_ns

(* Longer spans first at equal start, so a parent that opened on the same
   clock tick as its first child still precedes it. *)
let chronological spans =
  List.stable_sort
    (fun (a : Sink.span) (b : Sink.span) ->
      match compare a.Sink.lane b.Sink.lane with
      | 0 -> (
        match Int64.compare a.Sink.start_ns b.Sink.start_ns with
        | 0 -> Int64.compare b.Sink.dur_ns a.Sink.dur_ns
        | c -> c)
      | c -> c)
    spans

(* Fold one query's spans (any order). [dropped] is the sink's count of
   spans lost to its buffer cap: spans are buffered as they close, so a
   truncated sink keeps children whose parents were dropped. Those orphans
   still count for their own name; their parents' self time is missing,
   which the caller sees through [truncated_queries]. *)
let add t ~dropped spans =
  t.dropped <- t.dropped + dropped;
  if dropped > 0 then t.truncated_queries <- t.truncated_queries + 1;
  (* Per lane-0 span: its accumulator and the child time seen so far. *)
  let stack : (Sink.span * int ref) list ref = ref [] in
  let close (s, child) =
    let a = acc_of t.lane0 s.Sink.name in
    a.self_ns <- a.self_ns + Int64.to_int s.Sink.dur_ns - !child
  in
  List.iter
    (fun (s : Sink.span) ->
      t.spans <- t.spans + 1;
      if s.Sink.lane > 0 then begin
        let a = acc_of t.workers s.Sink.name in
        a.count <- a.count + 1;
        a.total_ns <- a.total_ns + Int64.to_int s.Sink.dur_ns;
        a.self_ns <- a.self_ns + Int64.to_int s.Sink.dur_ns
      end
      else begin
        let rec pop () =
          match !stack with
          | ((top, _) as entry) :: rest when stop top <= s.Sink.start_ns
                                              || stop s > stop top ->
            close entry;
            stack := rest;
            pop ()
          | _ -> ()
        in
        pop ();
        (match !stack with
         | (_, child) :: _ -> child := !child + Int64.to_int s.Sink.dur_ns
         | [] -> ());
        let a = acc_of t.lane0 s.Sink.name in
        a.count <- a.count + 1;
        a.total_ns <- a.total_ns + Int64.to_int s.Sink.dur_ns;
        stack := (s, ref 0) :: !stack
      end)
    (chronological spans);
  List.iter close !stack
