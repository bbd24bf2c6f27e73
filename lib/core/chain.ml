open Rox_joingraph
module Sink = Rox_telemetry.Sink
module Tm = Rox_telemetry.Metrics

type trigger = Tm.chain_trigger

type result = {
  edges : Edge.t list;
  trigger : trigger;
}

type seg = {
  s_edges : Edge.t list;  (* forward order *)
  s_edge_ids : int list;
  s_stop : int;
  s_input : Rox_util.Column.t;  (* I(p): sampled tuples flowing through the chain *)
  s_scale : float;  (* full-table tuples one tuple of I(p) stands for *)
  s_cost : float;
  s_sf : float;
  s_label : string;
}

let seg_to_event graph s =
  let via =
    match s.s_edges with
    | [] -> "-"
    | e :: _ -> Vertex.label (Graph.vertex graph e.Edge.v1) ^ "~" ^ Vertex.label (Graph.vertex graph e.Edge.v2)
  in
  { Sink.label = s.s_label; via; cost = s.s_cost; sf = s.s_sf }

(* Line 26: executing pi first provably helps: cost(pi) + sf(pi)*cost(pj) <= cost(pj). *)
let dominates_all paths pi =
  List.for_all
    (fun pj ->
      pj == pi || pi.s_cost +. (pi.s_sf *. pj.s_cost) <= pj.s_cost)
    paths

let cheapest first rest =
  List.fold_left (fun acc p -> if p.s_cost < acc.s_cost then p else acc) first rest

(* Line 34: the symmetric tie-break when exploration ends without a
   dominating segment. *)
let best_symmetric first rest =
  let paths = first :: rest in
  let wins pi pj =
    pi.s_cost +. (pi.s_sf *. pj.s_cost) <= pj.s_cost +. (pj.s_sf *. pi.s_cost)
  in
  match List.find_opt (fun pi -> List.for_all (fun pj -> pj == pi || wins pi pj) paths) paths with
  | Some p -> p
  | None ->
    (* The pairwise relation is a tournament and can cycle; fall back to the
       cheapest segment. *)
    cheapest first rest

let run state =
  let session = State.session state in
  let graph = State.graph state in
  let runtime = State.runtime state in
  let tel = State.telemetry state in
  let stop trigger edges =
    if Sink.enabled tel then
      Tm.incr_label (Sink.metrics tel).Tm.chain_stops (Tm.chain_trigger_label trigger);
    Some { edges; trigger }
  in
  match State.min_weight_edge state with
  | None -> None
  | Some e ->
    let branching v = List.length (Runtime.unexecuted_incident runtime v) > 1 in
    if not (branching e.Edge.v1 || branching e.Edge.v2) then stop `Single_edge [ e ]
    else begin
      (* Source: the endpoint with the smaller cardinality that has a
         sample to start the chain from. *)
      let cardinality v = Option.value ~default:infinity (State.card state v) in
      let candidates =
        List.filter
          (fun v -> State.sample state v <> None)
          [ e.Edge.v1; e.Edge.v2 ]
      in
      match candidates with
      | [] -> stop `Single_edge [ e ]
      | candidates ->
        let source =
          List.fold_left
            (fun acc v -> if cardinality v < cardinality acc then v else acc)
            (List.hd candidates) (List.tl candidates)
        in
        Sink.emit tel (Sink.Chain_started { source; min_edge = e.Edge.id });
        let tau = State.tau state in
        let source_card = cardinality source in
        let sample = Option.get (State.sample state source) in
        let initial =
          {
            s_edges = [];
            s_edge_ids = [];
            s_stop = source;
            s_input = sample;
            s_scale =
              (let n = Rox_util.Column.length sample in
               if n = 0 then 0.0 else source_card /. float_of_int n);
            s_cost = 0.0;
            s_sf = 1.0;
            s_label = "p0";
          }
        in
        (* sf(p) relative to the source; an empty source selects nothing. *)
        let sf_of flow = if source_card > 0.0 then flow /. source_card else 0.0 in
        let next_label = ref 0 in
        let fresh_label () =
          incr next_label;
          Printf.sprintf "p%d" !next_label
        in
        (* The chain's own sampled work, read from each link's cut-off
           result rather than from the sampling meter: a memo replay or a
           cache hit charges nothing, and the plan must not depend on
           what the cache holds. *)
        let spent = ref 0 in
        let extend cutoff p =
          let frontier =
            Runtime.unexecuted_incident runtime p.s_stop
            |> List.filter (fun e' -> not (List.mem e'.Edge.id p.s_edge_ids))
          in
          List.mapi
            (fun branch_idx e' ->
              let outer = if e'.Edge.v1 = p.s_stop then Exec.From_v1 else Exec.From_v2 in
              let v' = Edge.other_end e' p.s_stop in
              let cut =
                State.sampled_cutoff state e' ~outer ~sample:p.s_input
                  ~inner_table:(Runtime.table runtime v') ~limit:cutoff
              in
              let open Rox_algebra.Cutoff in
              spent := !spent + cut.consumed_outer + cut.produced;
              (* Line 12's I(p) grows by one link: its estimated full-table
                 output is the link's extrapolated result times what one
                 input tuple stands for. *)
              let flow = cut.est *. p.s_scale in
              {
                s_edges = p.s_edges @ [ e' ];
                s_edge_ids = e'.Edge.id :: p.s_edge_ids;
                s_stop = v';
                s_input = Rox_util.Column.unsafe_of_array_detect cut.out;
                s_scale = (if cut.produced = 0 then 0.0 else flow /. float_of_int cut.produced);
                s_cost = p.s_cost +. flow;
                s_sf = sf_of flow;
                (* The first extension continues the segment's name;
                   additional branches become new segments (Fig 2.2: p3
                   forks into p3 and p4). Children of the initial empty
                   segment are all new. *)
                s_label =
                  (if p.s_edges = [] || branch_idx > 0 then fresh_label () else p.s_label);
              })
            frontier
        in
        (* One round (lines 12-34): extend every segment by one link, then
           settle if line 26 holds, if nothing could be extended, or if
           the chain has spent what its cheapest segment would cost. *)
        let round_of round cutoff paths =
          Session.check_deadline session;
          let extended = ref false in
          let next =
            List.concat_map
              (fun p ->
                match extend cutoff p with
                | [] -> [ p ]
                | children ->
                  extended := true;
                  children)
              paths
          in
          (* The payload renders every path's label: build it only for a
             sink that records. *)
          if Sink.enabled tel then
            Sink.emit tel
              (Sink.Chain_round { round; cutoff; paths = List.map (seg_to_event graph) next });
          (* The source has [e] on its frontier, so round 1 replaces the
             empty initial segment and every segment from here on is
             live. *)
          match next with
          | [] -> assert false
          | first :: rest ->
            let settle =
              match List.find_opt (dominates_all next) next with
              | Some winner -> Some (winner, `Stopping_condition)
              | None when not !extended -> Some (best_symmetric first rest, `Exhausted)
              | None when float_of_int !spent >= (cheapest first rest).s_cost ->
                Some (best_symmetric first rest, `Cannot_pay)
              | None -> None
            in
            (next, settle)
        in
        let rec explore round cutoff paths =
          let paths, settle =
            Sink.with_span tel "chain_round"
              ~attrs:(fun () -> [ ("round", string_of_int round) ])
              ~record:(fun m dur ->
                Tm.observe m.Tm.chain_round_ns dur;
                Tm.incr m.Tm.chain_rounds)
              (fun () -> round_of round cutoff paths)
          in
          match settle with
          | Some settled -> settled
          | None -> explore (round + 1) (cutoff + tau) paths
        in
        let winner, trigger = explore 1 tau [ initial ] in
        Sink.emit tel
          (Sink.Chain_chosen { edges = List.map (fun e -> e.Edge.id) winner.s_edges; trigger });
        stop trigger winner.s_edges
    end
