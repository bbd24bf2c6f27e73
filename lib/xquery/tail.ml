open Rox_joingraph

type spec = {
  key_vertices : int array;
  return_vertex : int;
}

let outputs spec = Array.append spec.key_vertices [| spec.return_vertex |]

let apply ~sanitize ?meter spec rel =
  let projected = Relation.project ~sanitize rel spec.key_vertices in
  let distinct = Relation.distinct ~sanitize ?meter projected in
  let sorted = Relation.sort_rows ~sanitize distinct in
  let final = Relation.project ~sanitize sorted [| spec.return_vertex |] in
  Rox_util.Column.read (Relation.column final spec.return_vertex)

let count ~sanitize ?meter spec rel = Array.length (apply ~sanitize ?meter spec rel)
