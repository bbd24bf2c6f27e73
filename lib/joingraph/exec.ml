open Rox_util
open Rox_storage
open Rox_algebra
open Rox_shred

type direction = From_v1 | From_v2

let docref engine (v : Vertex.t) = Engine.get engine v.Vertex.doc_id

(* Translate an exclusive numeric bound into the value index's inclusive
   range using adjacent floats: v < f  ⇔  v <= pred(f). *)
let range_of_pred = function
  | Selection.Lt f -> Some (None, Some (Float.pred f))
  | Selection.Le f -> Some (None, Some f)
  | Selection.Gt f -> Some (Some (Float.succ f), None)
  | Selection.Ge f -> Some (Some f, None)
  | Selection.Between (lo, hi) -> Some (Some lo, Some hi)
  | Selection.Eq _ -> None

(* The base node set of a vertex and, when the document's own columns
   decide membership in it, the descriptor of that set. One match derives
   both, so they cannot drift apart. Range predicates, and names or values
   the pools have never seen, keep the column alone. *)
let index_domain engine (v : Vertex.t) =
  let r = docref engine v in
  let described ?(name = -1) ?(value = -1) kind col =
    (col, Some { Staircase.kind; name; value })
  in
  let plain col = (col, None) in
  match v.Vertex.annot with
  | Vertex.Root -> described Nodekind.Doc (Column.unsafe_of_array ~sorted:true [| 0 |])
  | Vertex.Element q ->
    (match Engine.qname_id engine q with
     | Some name -> described ~name Nodekind.Elem (Element_index.lookup r.Engine.elements name)
     | None -> plain Column.empty)
  | Vertex.Text None -> described Nodekind.Text (Kind_index.lookup r.Engine.kinds Nodekind.Text)
  | Vertex.Text (Some (Selection.Eq s)) ->
    (match Engine.value_id engine s with
     | Some value -> described ~value Nodekind.Text (Value_index.text_eq r.Engine.values value)
     | None -> plain Column.empty)
  | Vertex.Text (Some pred) ->
    (match range_of_pred pred with
     | Some (lo, hi) -> plain (Value_index.text_range r.Engine.values ?lo ?hi ())
     | None -> assert false)
  | Vertex.Attr (q, pred) ->
    (match Engine.qname_id engine q with
     | None -> plain Column.empty
     | Some name ->
       (match pred with
        | None -> described ~name Nodekind.Attr (Element_index.lookup_attr r.Engine.elements name)
        | Some (Selection.Eq s) ->
          (match Engine.value_id engine s with
           | Some value ->
             described ~name ~value Nodekind.Attr
               (Value_index.attr_eq r.Engine.values ~name_id:name ~value_id:value)
           | None -> plain Column.empty)
        | Some p ->
          plain
            (Selection.filter ~doc:r.Engine.doc ~pred:p
               (Element_index.lookup_attr r.Engine.elements name))))

let vertex_domain engine v = fst (index_domain engine v)

(* The same cases as [vertex_domain], answered from index counts. Only an
   attribute range predicate has no count path and filters its domain. *)
let vertex_domain_count engine (v : Vertex.t) =
  let r = docref engine v in
  match v.Vertex.annot with
  | Vertex.Root -> 1
  | Vertex.Element q ->
    (match Engine.qname_id engine q with
     | Some id -> Element_index.count r.Engine.elements id
     | None -> 0)
  | Vertex.Text None -> Kind_index.count r.Engine.kinds Nodekind.Text
  | Vertex.Text (Some (Selection.Eq s)) ->
    (match Engine.value_id engine s with
     | Some id -> Value_index.text_eq_count r.Engine.values id
     | None -> 0)
  | Vertex.Text (Some pred) ->
    (match range_of_pred pred with
     | Some (lo, hi) -> Value_index.text_range_count r.Engine.values ?lo ?hi ()
     | None -> assert false)
  | Vertex.Attr (q, pred) ->
    (match Engine.qname_id engine q with
     | None -> 0
     | Some name_id ->
       (match pred with
        | None -> Element_index.count_attr r.Engine.elements name_id
        | Some (Selection.Eq s) ->
          (match Engine.value_id engine s with
           | Some value_id -> Value_index.attr_eq_count r.Engine.values ~name_id ~value_id
           | None -> 0)
        | Some _ -> Column.length (vertex_domain engine v)))

let can_index_init (v : Vertex.t) =
  match v.Vertex.annot with
  | Vertex.Root | Vertex.Element _ -> true
  | Vertex.Text (Some (Selection.Eq _)) | Vertex.Attr (_, Some (Selection.Eq _)) -> true
  | Vertex.Text _ | Vertex.Attr _ -> false

type pairs = { left : Column.t; right : Column.t }

let pair_count p = Column.length p.left

(* The builders below fill plain vectors, pre-sized to the smaller input
   so a typical result grows in few doublings and an exactly-filled vector
   hands over its array uncopied; wrapping detects sortedness in one scan
   so a strictly-increasing pair column (e.g. a fresh selective step)
   keeps its document-order certificate for downstream kernels. *)
let pair_vecs t1 t2 =
  let capacity = max 16 (min (Column.length t1) (Column.length t2)) in
  (Int_vec.create ~capacity (), Int_vec.create ~capacity ())

let freeze vec = Column.unsafe_of_array_detect (Int_vec.release vec)

type variant = Step_from of direction | Hash_join | Index_nl_from of direction

let inner_spec engine (v : Vertex.t) restrict =
  let r = docref engine v in
  let side =
    match v.Vertex.annot with
    | Vertex.Text _ -> Value_join.Inner_text
    | Vertex.Attr (q, _) ->
      (match Engine.qname_id engine q with
       | Some id -> Value_join.Inner_attr id
       | None -> Value_join.Inner_attr (-1))
    | Vertex.Root | Vertex.Element _ ->
      invalid_arg "Exec: equi-join endpoint must be a text or attribute vertex"
  in
  (* Index buckets ignore the vertex predicate; compensate through the
     restrict table when none was supplied. *)
  let restrict =
    match (restrict, Vertex.predicate v) with
    | (Some _ as r), _ -> r
    | None, None -> None
    | None, Some _ -> Some (vertex_domain engine v)
  in
  { Value_join.docref = r; side; restrict }

let full_pairs_impl ?meter ~variant ?t1_domain ?t2_domain engine graph (e : Edge.t) ~t1
    ~t2 =
  let v1 = Graph.vertex graph e.Edge.v1 in
  let v2 = Graph.vertex graph e.Edge.v2 in
  let doc v = (docref engine v).Engine.doc in
  let lefts, rights = pair_vecs t1 t2 in
  (* Kernels report (outer, inner); [emit] keeps a v1-outer pair as is,
     [emit_rev] flips a v2-outer one into (v1-node, v2-node). *)
  let emit _ a b =
    Int_vec.push lefts a;
    Int_vec.push rights b
  in
  let emit_rev _ b a =
    Int_vec.push lefts a;
    Int_vec.push rights b
  in
  (match (e.Edge.op, variant) with
   | Edge.Step axis, Step_from From_v1 ->
     Staircase.iter_pairs ?meter ?domain:t2_domain ~doc:(doc v1) ~axis ~context:t1
       ~candidates:t2 emit
   | Edge.Step axis, Step_from From_v2 ->
     Staircase.iter_pairs ?meter ?domain:t1_domain ~doc:(doc v2) ~axis:(Axis.reverse axis)
       ~context:t2 ~candidates:t1 emit_rev
   | Edge.Equijoin, Hash_join ->
     (* Build on the smaller side. *)
     if Column.length t2 <= Column.length t1 then
       Value_join.iter_hash ?meter ~outer_doc:(doc v1) ~outer:t1 ~inner_doc:(doc v2)
         ~inner:t2 emit
     else
       Value_join.iter_hash ?meter ~outer_doc:(doc v2) ~outer:t2 ~inner_doc:(doc v1)
         ~inner:t1 emit_rev
   | Edge.Equijoin, Index_nl_from From_v1 ->
     Value_join.iter_index_nl ?meter ~outer_doc:(doc v1) ~outer:t1
       ~inner:(inner_spec engine v2 (Some t2)) emit
   | Edge.Equijoin, Index_nl_from From_v2 ->
     Value_join.iter_index_nl ?meter ~outer_doc:(doc v2) ~outer:t2
       ~inner:(inner_spec engine v1 (Some t1)) emit_rev
   | Edge.Step _, (Hash_join | Index_nl_from _) | Edge.Equijoin, Step_from _ ->
     invalid_arg "Exec.full_pairs: variant does not match the edge operator");
  { left = freeze lefts; right = freeze rights }

(* Under the sanitizer, a step that tested membership against an
   index-domain descriptor is re-run on the candidate column: the same
   result and the same charged work, or RX306. *)
let check_domain_path ~op ~same ~charged ~column_charged =
  Sanitize.check_kernel_equiv ~op ~what:"index-domain membership"
    (same && charged = column_charged)

let full_pairs ~sanitize ?meter ~variant ?t1_domain ?t2_domain engine graph (e : Edge.t)
    ~t1 ~t2 =
  if not sanitize then
    full_pairs_impl ?meter ~variant ?t1_domain ?t2_domain engine graph e ~t1 ~t2
  else begin
    let op =
      match e.Edge.op with
      | Edge.Step axis -> Printf.sprintf "Exec.full_pairs(step %s)" (Axis.to_string axis)
      | Edge.Equijoin -> "Exec.full_pairs(equijoin)"
    in
    Sanitize.check_column_flag ~op ~what:"t1" t1;
    Sanitize.check_column_flag ~op ~what:"t2" t2;
    Sanitize.check_sorted_dedup ~op ~what:"t1" (Column.read t1);
    Sanitize.check_sorted_dedup ~op ~what:"t2" (Column.read t2);
    let pairs, charged =
      Sanitize.observed meter (fun m ->
          full_pairs_impl ~meter:m ~variant ?t1_domain ?t2_domain engine graph e ~t1 ~t2)
    in
    (match (e.Edge.op, t1_domain, t2_domain) with
     | Edge.Step _, Some _, _ | Edge.Step _, _, Some _ ->
       let column, column_charged =
         Sanitize.observed None (fun m ->
             full_pairs_impl ~meter:m ~variant engine graph e ~t1 ~t2)
       in
       check_domain_path ~op ~charged ~column_charged
         ~same:
           (Column.equal pairs.left column.left && Column.equal pairs.right column.right)
     | _ -> ());
    Sanitize.check_column_flag ~op ~what:"pairs.left" pairs.left;
    Sanitize.check_column_flag ~op ~what:"pairs.right" pairs.right;
    Sanitize.check_subset ~op ~what:"left column" ~domain:(Column.read t1)
      (Column.read pairs.left);
    Sanitize.check_subset ~op ~what:"right column" ~domain:(Column.read t2)
      (Column.read pairs.right);
    (* Only the hash value join has a |C| + |S| + |R| Table 1 bound
       expressible in the sizes at hand; index-NL work depends on bucket
       sizes, steps on subtree shapes. *)
    (match variant with
     | Hash_join ->
       Sanitize.check_cost ~op ~charged
         ~bound:(Column.length t1 + Column.length t2 + Column.length pairs.left)
     | _ -> ());
    pairs
  end

let sampled ~sanitize ?meter engine graph (e : Edge.t) ~outer ~sample ~inner_table ~limit =
  let v1 = Graph.vertex graph e.Edge.v1 in
  let v2 = Graph.vertex graph e.Edge.v2 in
  let outer_v, inner_v = match outer with From_v1 -> (v1, v2) | From_v2 -> (v2, v1) in
  match e.Edge.op with
  | Edge.Step axis ->
    let axis = match outer with From_v1 -> axis | From_v2 -> Axis.reverse axis in
    let doc = (docref engine outer_v).Engine.doc in
    let candidates, domain =
      match inner_table with
      | Some t -> (t, None)
      | None -> index_domain engine inner_v
    in
    let run ?domain meter =
      Cutoff.run ~limit ~outer_len:(Column.length sample) ~iter:(fun emit ->
          Staircase.iter_pairs ?meter ?domain ~doc ~axis ~context:sample ~candidates
            (fun cidx _ s -> emit cidx s))
    in
    if sanitize && Option.is_some domain then begin
      (* Both paths against private counters, so the caller's meter sees
         the descriptor run's charges exactly as without the check. *)
      let private_run ?domain () = Sanitize.observed None (fun m -> run ?domain (Some m)) in
      let cut, charged = private_run ?domain () in
      let column, column_charged = private_run () in
      check_domain_path
        ~op:(Printf.sprintf "Exec.sampled(step %s)" (Axis.to_string axis))
        ~charged ~column_charged ~same:(Cutoff.equal cut column)
    end;
    run ?domain meter
  | Edge.Equijoin ->
    let outer_doc = (docref engine outer_v).Engine.doc in
    let inner = inner_spec engine inner_v inner_table in
    Cutoff.run ~limit ~outer_len:(Column.length sample) ~iter:(fun emit ->
        Value_join.iter_index_nl ?meter ~outer_doc ~outer:sample ~inner (fun cidx _ i ->
            emit cidx i))
