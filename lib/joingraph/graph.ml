type t = {
  mutable vertices : Vertex.t list;  (* reversed *)
  mutable nvertices : int;
  mutable edges : Edge.t list;  (* reversed *)
  mutable nedges : int;
  mutable vertex_arr : Vertex.t array option;  (* caches, invalidated on add *)
  mutable edge_arr : Edge.t array option;
}

let create () =
  { vertices = []; nvertices = 0; edges = []; nedges = 0; vertex_arr = None; edge_arr = None }

let add_vertex t ~doc_id annot =
  let v = { Vertex.id = t.nvertices; doc_id; annot } in
  t.vertices <- v :: t.vertices;
  t.nvertices <- t.nvertices + 1;
  t.vertex_arr <- None;
  v

let add_edge t ?(derived = false) ~v1 ~v2 op =
  if v1 < 0 || v1 >= t.nvertices || v2 < 0 || v2 >= t.nvertices then
    invalid_arg "Graph.add_edge: unknown vertex";
  if v1 = v2 then invalid_arg "Graph.add_edge: self loop";
  let e = { Edge.id = t.nedges; v1; v2; op; derived } in
  t.edges <- e :: t.edges;
  t.nedges <- t.nedges + 1;
  t.edge_arr <- None;
  e

let vertices t =
  match t.vertex_arr with
  | Some a -> a
  | None ->
    let a = Array.of_list (List.rev t.vertices) in
    t.vertex_arr <- Some a;
    a

let edges t =
  match t.edge_arr with
  | Some a -> a
  | None ->
    let a = Array.of_list (List.rev t.edges) in
    t.edge_arr <- Some a;
    a

let vertex t i =
  if i < 0 || i >= t.nvertices then invalid_arg "Graph.vertex";
  (vertices t).(i)

let edge t i =
  if i < 0 || i >= t.nedges then invalid_arg "Graph.edge";
  (edges t).(i)

let vertex_count t = t.nvertices
let edge_count t = t.nedges

let incident t v =
  Array.to_list (edges t) |> List.filter (fun e -> Edge.touches e v)

let find_edge t a b =
  Array.to_list (edges t)
  |> List.find_opt (fun e ->
         (e.Edge.v1 = a && e.Edge.v2 = b) || (e.Edge.v1 = b && e.Edge.v2 = a))

let equi_closure t =
  (* Union-find over equi-join-connected vertices. *)
  let parent = Array.init t.nvertices (fun i -> i) in
  let rec find i = if parent.(i) = i then i else (parent.(i) <- find parent.(i); parent.(i)) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(ra) <- rb
  in
  Array.iter
    (fun e -> match e.Edge.op with Edge.Equijoin -> union e.Edge.v1 e.Edge.v2 | Edge.Step _ -> ())
    (edges t);
  let added = ref [] in
  for a = 0 to t.nvertices - 1 do
    for b = a + 1 to t.nvertices - 1 do
      if find a = find b then
        match find_edge t a b with
        | Some _ -> ()
        | None -> added := add_edge t ~derived:true ~v1:a ~v2:b Edge.Equijoin :: !added
    done
  done;
  List.rev !added

let connected t =
  if t.nvertices = 0 then true
  else begin
    let seen = Array.make t.nvertices false in
    let rec visit v =
      if not seen.(v) then begin
        seen.(v) <- true;
        List.iter (fun e -> visit (Edge.other_end e v)) (incident t v)
      end
    in
    visit 0;
    Array.for_all (fun b -> b) seen
  end
