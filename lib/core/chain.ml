open Rox_joingraph
module Sink = Rox_telemetry.Sink
module Tm = Rox_telemetry.Metrics

type trigger = [ `Stopping_condition | `Exhausted | `Single_edge ]

type result = {
  edges : Edge.t list;
  trigger : trigger;
}

type seg = {
  s_edges : Edge.t list;  (* forward order *)
  s_edge_ids : int list;
  s_stop : int;
  s_input : Rox_util.Column.t;  (* I(p): sampled tuples flowing through the chain *)
  s_cost : float;
  s_sf : float;
  s_label : string;
}

let max_paths = 32
let max_rounds = 12

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

(* Line 34: the symmetric tie-break when exploration is exhausted. *)
let best_symmetric paths =
  let wins pi pj =
    pi.s_cost +. (pi.s_sf *. pj.s_cost) <= pj.s_cost +. (pj.s_sf *. pi.s_cost)
  in
  match List.find_opt (fun pi -> List.for_all (fun pj -> pj == pi || wins pi pj) paths) paths with
  | Some p -> Some p
  | None ->
    (* The pairwise relation is a tournament and can cycle; fall back to the
       cheapest segment. *)
    (match paths with
     | [] -> None
     | first :: rest ->
       Some (List.fold_left (fun acc p -> if p.s_cost < acc.s_cost then p else acc) first rest))

let run state =
  let session = State.session state in
  let grow_cutoff = (Session.config session).Session.grow_cutoff in
  let graph = State.graph state in
  let runtime = State.runtime state in
  match State.min_weight_edge state with
  | None -> None
  | Some e ->
    let branching v = List.length (Runtime.unexecuted_incident runtime v) > 1 in
    if not (branching e.Edge.v1 || branching e.Edge.v2) then
      Some { edges = [ e ]; trigger = `Single_edge }
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
      | [] -> Some { edges = [ e ]; trigger = `Single_edge }
      | candidates ->
        let source =
          List.fold_left
            (fun acc v -> if cardinality v < cardinality acc then v else acc)
            (List.hd candidates) (List.tl candidates)
        in
        Sink.emit (State.telemetry state)
          (Sink.Chain_started { source; min_edge = e.Edge.id });
        let tau = State.tau state in
        let source_card = cardinality source in
        let initial =
          {
            s_edges = [];
            s_edge_ids = [];
            s_stop = source;
            s_input = Option.get (State.sample state source);
            s_cost = 0.0;
            s_sf = 1.0;
            s_label = "p0";
          }
        in
        let next_label = ref 0 in
        let fresh_label () =
          incr next_label;
          Printf.sprintf "p%d" !next_label
        in
        let cutoff = ref tau in
        let paths = ref [ initial ] in
        let finished = ref None in
        let round = ref 0 in
        let tel = Session.telemetry session in
        while !finished = None && !round < max_rounds do
          Sink.with_span tel "chain_round"
            ~attrs:(fun () -> [ ("round", string_of_int !round) ])
            ~record:(fun m dur ->
              Tm.observe m.Tm.chain_round_ns dur;
              Tm.incr m.Tm.chain_rounds)
            (fun () ->
          Session.check_deadline session;
          incr round;
          if grow_cutoff && !round > 1 then cutoff := !cutoff + tau;
          let extended = ref false in
          let next =
            List.concat_map
              (fun p ->
                let frontier =
                  Runtime.unexecuted_incident runtime p.s_stop
                  |> List.filter (fun e' -> not (List.mem e'.Edge.id p.s_edge_ids))
                in
                if frontier = [] then [ p ]
                else begin
                  extended := true;
                  List.mapi
                    (fun branch_idx e' ->
                      let outer =
                        if e'.Edge.v1 = p.s_stop then Exec.From_v1 else Exec.From_v2
                      in
                      let v' = Edge.other_end e' p.s_stop in
                      let inner_table = Runtime.table runtime v' in
                      let cut =
                        State.sampled_cutoff state e' ~outer ~sample:p.s_input
                          ~inner_table ~limit:!cutoff
                      in
                      let est = cut.Rox_algebra.Cutoff.est in
                      {
                        s_edges = p.s_edges @ [ e' ];
                        s_edge_ids = e'.Edge.id :: p.s_edge_ids;
                        s_stop = v';
                        s_input = Rox_util.Column.unsafe_of_array_detect cut.Rox_algebra.Cutoff.out;
                        s_cost = p.s_cost +. (est *. source_card /. float_of_int tau);
                        s_sf = est /. float_of_int tau;
                        (* The first extension continues the segment's name;
                           additional branches become new segments (Fig 2.2:
                           p3 forks into p3 and p4). Children of the initial
                           empty segment are all new. *)
                        s_label =
                          (if p.s_edges = [] || branch_idx > 0 then fresh_label ()
                           else p.s_label);
                      })
                    frontier
                end)
              !paths
          in
          let next =
            if List.length next > max_paths then begin
              (* Keep the cheapest segments; exploration stays bounded. *)
              List.sort (fun a b -> compare a.s_cost b.s_cost) next
              |> List.filteri (fun i _ -> i < max_paths)
            end
            else next
          in
          paths := next;
          (* The payload renders every path's label: build it only for a
             sink that records. *)
          let tel = State.telemetry state in
          if Sink.enabled tel then
            Sink.emit tel
              (Sink.Chain_round
                 { round = !round; cutoff = !cutoff; paths = List.map (seg_to_event graph) next });
          let live = List.filter (fun p -> p.s_edges <> []) !paths in
          (match List.find_opt (dominates_all live) live with
           | Some winner -> finished := Some (winner, `Stopping_condition)
           | None -> if not !extended then
               match best_symmetric live with
               | Some winner -> finished := Some (winner, `Exhausted)
               | None -> finished := None))
        done;
        let winner, trigger =
          match !finished with
          | Some (w, trig) -> (w, (trig :> trigger))
          | None ->
            (* Round budget exhausted: settle with the symmetric rule. *)
            (match best_symmetric (List.filter (fun p -> p.s_edges <> []) !paths) with
             | Some w -> (w, `Exhausted)
             | None -> ({ initial with s_edges = [ e ] }, `Single_edge))
        in
        Sink.emit (State.telemetry state)
          (Sink.Chain_chosen
             { edges = List.map (fun e -> e.Edge.id) winner.s_edges; trigger });
        Some { edges = winner.s_edges; trigger }
    end
