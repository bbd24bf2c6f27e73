(** The Join Graph (Definition 1): an edge-labeled graph over node-set
    vertices, the order-independent representation handed from static
    compilation to the ROX run-time.

    Construction is monotone (add vertices, then edges); the optimizer
    never mutates the graph — execution bookkeeping lives in the ROX
    state. *)

type t

val create : unit -> t

val add_vertex : t -> doc_id:int -> Vertex.annot -> Vertex.t
val add_edge : t -> ?derived:bool -> v1:int -> v2:int -> Edge.op -> Edge.t

val vertex : t -> int -> Vertex.t
val edge : t -> int -> Edge.t
val vertex_count : t -> int
val edge_count : t -> int
val vertices : t -> Vertex.t array

val vertex_ids : t -> int array
(** Every vertex id, in order. *)

val edges : t -> Edge.t array

val incident : t -> int -> Edge.t list
(** Edges touching a vertex, in insertion order. *)

val find_edge : t -> int -> int -> Edge.t option
(** Any edge between the two vertices. *)

val equi_closure : t -> Edge.t list
(** Adds the transitive closure of the equi-join relation as [derived]
    equi-join edges (the dotted join equivalences of Figure 4: if a=b and
    a=c then b=c) and returns the edges added. Idempotent. *)

val connected : t -> bool
(** Is the whole graph one connected component? (Join Graphs fed to ROX
    always are.) *)
