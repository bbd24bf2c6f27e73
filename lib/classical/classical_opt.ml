open Rox_joingraph

let input_size engine graph (slot : Enumerate.slot) =
  (* Run the document's step chain on a scratch runtime; no meter — the
     classical optimizer's planning statistics are free. *)
  let runtime = Runtime.create ~outputs:(Graph.vertex_ids graph) engine graph in
  List.iter
    (fun e -> ignore (Runtime.execute_edge runtime e : Runtime.exec_info))
    slot.Enumerate.step_edges;
  Rox_util.Column.length (Runtime.table_or_domain runtime slot.Enumerate.join_vertex)

let join_order engine graph (template : Enumerate.template) =
  let sized =
    Array.to_list template.Enumerate.slots
    |> List.map (fun slot -> (slot.Enumerate.doc_pos, input_size engine graph slot))
  in
  let sorted = List.sort (fun (_, a) (_, b) -> compare a b) sized in
  Enumerate.Linear (List.map fst sorted)

let static_order engine graph =
  (* Static estimate per edge: exact full-operator pair count for
     single-document edges (granted by the paper's premise), and a
     smallest-input rank for cross-document equi-joins. Estimates use base
     tables only: no intermediate-result feedback, hence blindness to
     correlations. *)
  let doc_of v = (Graph.vertex graph v).Vertex.doc_id in
  let domain v = Exec.index_domain engine (Graph.vertex graph v) in
  let score (e : Edge.t) =
    if doc_of e.Edge.v1 = doc_of e.Edge.v2 then begin
      let t1, t1_domain = domain e.Edge.v1 and t2, t2_domain = domain e.Edge.v2 in
      (* Only the count matters: the smaller side as step context, a
         hash join for an equi-join. *)
      let variant =
        match e.Edge.op with
        | Edge.Step _ ->
          Exec.Step_from
            (if Rox_util.Column.length t1 <= Rox_util.Column.length t2 then Exec.From_v1
             else Exec.From_v2)
        | Edge.Equijoin -> Exec.Hash_join
      in
      let pairs =
        Exec.full_pairs ~sanitize:Rox_algebra.Sanitize.env_default ~variant ?t1_domain
          ?t2_domain engine graph e ~t1 ~t2
      in
      float_of_int (Exec.pair_count pairs)
    end
    else begin
      (* Unknowable cross-document cardinality: rank behind every
         single-document operator, smaller inputs first. *)
      let size v = Rox_util.Column.length (fst (domain v)) in
      1e12 +. float_of_int (size e.Edge.v1 + size e.Edge.v2)
    end
  in
  let pending =
    Array.to_list (Graph.edges graph)
    |> List.filter (fun e -> not (Runtime.is_trivial_edge graph e))
    |> List.map (fun e -> (e, score e))
  in
  (* Greedy connected expansion from the cheapest edge. *)
  let covered = Hashtbl.create 16 in
  let cover v = Hashtbl.replace covered v () in
  let touches_covered (e : Edge.t) =
    Hashtbl.mem covered e.Edge.v1 || Hashtbl.mem covered e.Edge.v2
  in
  let rec build pending acc =
    match pending with
    | [] -> List.rev acc
    | pending ->
      let eligible =
        match List.filter (fun (e, _) -> touches_covered e) pending with
        | [] -> pending (* start (or restart) a component *)
        | touching -> touching
      in
      let best =
        List.fold_left
          (fun acc (e, s) ->
            match acc with
            | Some (_, bs) when bs <= s -> acc
            | _ -> Some (e, s))
          None eligible
      in
      (match best with
       | None -> List.rev acc
       | Some (e, _) ->
         cover e.Edge.v1;
         cover e.Edge.v2;
         build (List.filter (fun (e', _) -> e'.Edge.id <> e.Edge.id) pending) (e :: acc))
  in
  build pending []
