(** Canonical cache keys for edge executions and chain-sample requests.

    A fingerprint identifies the *inputs* of a deterministic computation:
    a small textual descriptor of the operation (edge kind, axis, endpoint
    annotations, document ids, cut-off limits …) and the identities of
    the node-set inputs. Documents are shredded once and never change
    after registration, so a document id plus the content of the input
    node sets pins the result for the engine's lifetime. Node
    sets are identified by content: length plus two independently seeded
    64-bit FNV-1a hashes, i.e. 128 effective bits — collisions are
    negligible, and the [ROX_SANITIZE] cross-check (see DESIGN.md) guards
    the remaining probability during debugging runs.

    Callers that own richer types (edges, vertices) render them to
    descriptor strings; this module only owns the hashing and the key
    grammar, so it sits below the join-graph layer. *)

type t = string
(** Printable, hashable key. *)

val hash64 : seed:int64 -> int array -> int64
(** FNV-1a over the array's length and elements. *)

val table : int array -> string
(** Content identity of a node set: ["<len>.<h1>.<h2>"]. *)

val option_table : int array option -> string
(** [table] of the array, or a distinguished token for [None] (an input
    served by the vertex's index domain rather than a materialized table —
    stable because registered documents never change). *)

val column : Rox_util.Column.t -> string
(** Content identity of a column — equal to [table] of the same values,
    computed without copying the view. *)

val option_column : Rox_util.Column.t option -> string

val make : string list -> t
(** Join the descriptor parts: ["p1|p2|..."].
    Parts must not contain ['|'] (enforced nowhere hot; keep descriptors
    to the label alphabet). *)
