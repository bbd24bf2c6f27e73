(** DBLP-like dataset generator (Section 4.1, Table 3).

    Generates one XML document per journal / conference series — the 23
    "representative" venues of Table 3 across 5 research areas — with the
    correlation structure the experiments rely on: venues of the same
    research area draw their author occurrences from a shared per-area
    author pool (authors publish repeatedly within their area), so
    same-area documents have high pairwise author-join selectivity and
    cross-area documents low-but-nonzero selectivity (through dual-area
    venues and a small crossover probability).

    Scaling follows the paper: ×n replication of every article, suffixing
    author names and titles with the replica serial, which preserves the
    original distribution and correlation while multiplying counts by n.
    A [reduction] divisor keeps default runs laptop-sized; the Table 3
    author-tag counts are reproduced exactly when [reduction = 1].

    Each venue's content depends only on the master seed and the venue
    name, never on which other venues are loaded — experiments over
    document subsets stay consistent. *)

type area = AI | BI | DM | IR | DB

val area_name : area -> string

type venue = {
  name : string;
  areas : area list;     (** primary first; dual-area venues bridge areas *)
  author_tags : int;     (** Table 3 "# author tags × 1" *)
}

val venues : venue array
(** The 23 venues of Table 3, in table order. *)

val primary_area : venue -> area
val find_venue : string -> venue
(** @raise Not_found for unknown names. *)

type gen_params = {
  seed : int;
  scale : int;                      (** replication factor n (×1/×10/×100) *)
  reduction : int;                  (** divide Table-3 base tag counts *)
  avg_authors_per_article : float;
  crossover : float;                (** P[author drawn from a foreign area] *)
  secondary_area_fraction : float;  (** dual-area venues: P[secondary area] *)
  pool_divisor : float;             (** area pool = area base tags / divisor *)
}

val default_gen : gen_params
(** seed 2009, scale 1, reduction 10, ~2.4 authors/article, 10% crossover,
    30% secondary-area articles, pool divisor 3. *)

type loaded = {
  venue : venue;
  docref : Rox_storage.Engine.docref;
  author_tag_count : int;   (** actual author elements in the document *)
  byte_size : int;          (** compact serialized size *)
}

val load : ?params:gen_params -> Rox_storage.Engine.t -> venue list -> loaded list
(** Generate + register the documents (uri = name with spaces replaced by
    '_', plus ".xml"). *)

val uri_of : venue -> string

val venue_rng : gen_params -> venue -> Rox_util.Xoshiro.t
(** The stable per-venue xoshiro stream: a pure function of the master
    seed and the venue name, so content never depends on which other
    venues load. All venue randomness threads through this explicit
    state. *)

val emit_venue : params:gen_params -> ?rng:Rox_util.Xoshiro.t -> venue -> Sink.t -> int
(** Emit one venue document into a sink, returning its author-tag count.
    [rng] defaults to {!venue_rng}. *)

val query_for : string list -> string
(** The paper's 4-document XQuery template over the given uris (works for
    any k >= 2). *)
