(** The [rox serve] wire protocol: length-prefixed text frames.

    Every message — request or response — is one *frame*:

    {v
    frame    ::= length "\n" payload
    length   ::= 1..8 ASCII decimal digits (byte count of payload)
    payload  ::= head-line [ "\n" body ]
    v}

    Request head lines ([body] only for QUERY, where it is the XQuery
    text):

    {v
    QUERY [seed=N] [tau=N] [deadline_ms=N] [max_sampled_rows=N]
          [max_rows=N] [limit=N] [client_id=ID]
    PING
    STATS
    METRICS
    RECENT n=N
    TRACE id=N
    QUIT
    v}

    Response payloads:

    {v
    OK n=N sampling=N execution=N "\n" id id id ...
    PONG
    STATS k=v k=v ...
    METRICS "\n" prometheus-text
    RECENT n=N "\n" jsonl-line ... (one per record, newest first)
    TRACE id=N "\n" chrome-trace-json
    BYE
    ERR kind message...
    v}

    where [kind] is one of [busy] (admission queue full), [deadline] /
    [sampled_rows] (a per-request budget ran out — the structured form of
    the CLI's exit-2 budget abort), [max_rows] (materialization guard),
    [bad_query] (parse/compile rejection), [proto] (malformed frame),
    [internal] and [not_found] (TRACE for an id the flight recorder has
    not retained — never retained, or already evicted). A budget abort
    is an *answer*, never a dropped connection: the server keeps serving
    the connection after an ERR.

    Parsing is total: every malformed input returns [Error]/[`Corrupt],
    never raises. The incremental {!decoder} handles truncated frames
    (await more bytes), oversized declared lengths and junk where the
    length header should be (both [`Corrupt] — the stream cannot be
    resynchronized, so the server answers [ERR proto] and closes). *)

type query = {
  text : string;                  (** the XQuery source (QUERY body) *)
  seed : int;                     (** session RNG seed (default 42) *)
  tau : int;                      (** sample size τ (default 100) *)
  deadline_ms : int option;       (** wall-clock budget, queue wait included *)
  max_sampled_rows : int option;  (** sampling-work budget *)
  max_rows : int option;          (** per-component materialization guard *)
  limit : int option;             (** cap on answer ids returned (None = all) *)
  client_id : string;             (** tenant tag (default ["local"]) *)
}

val query :
  ?seed:int -> ?tau:int -> ?deadline_ms:int -> ?max_sampled_rows:int ->
  ?max_rows:int -> ?limit:int -> ?client_id:string -> string -> query
(** A QUERY request with protocol defaults for everything omitted. *)

type request =
  | Query of query
  | Ping
  | Stats
  | Metrics     (** scrape: the server's ledger + recorder/tenant series *)
  | Recent of int  (** the flight recorder's n newest request records *)
  | Trace_get of int  (** a retained trace by id *)
  | Quit

type err_kind =
  | Busy | Deadline | Sampled_rows | Max_rows | Bad_query | Proto | Internal
  | Unknown_id  (** wire label [not_found]: TRACE id not retained *)

val err_kind_label : err_kind -> string
val err_kind_of_label : string -> err_kind option

type response =
  | Answer of { ids : int array; total : int; sampling : int; execution : int }
      (** [total] is the full answer cardinality; [ids] may be a
          [limit]-truncated prefix of it. *)
  | Pong
  | Stats_reply of (string * string) list
  | Metrics_reply of string
      (** Prometheus text exposition (the whole body, verbatim) *)
  | Recent_reply of string list
      (** one JSONL request record per line, newest first *)
  | Trace_reply of int * string
      (** Chrome trace-event JSON for one retained trace *)
  | Bye
  | Err of err_kind * string

val default_max_frame : int
(** 1 MiB. *)

val render_request : request -> string
(** The unframed payload ({!frame} it before writing). *)

val parse_request : string -> (request, string) result
(** Reject unknown verbs, unknown or malformed [k=v] arguments, negative
    numbers, empty QUERY bodies, and [client_id]s outside
    [[A-Za-z0-9_.-]+]. *)

val render_response : response -> string
val parse_response : string -> (response, string) result

val frame : string -> string
(** Prepend the length header. *)

type decoder

val decoder : ?max_frame:int -> unit -> decoder
val feed : decoder -> string -> unit

val next : decoder -> [ `Frame of string | `Awaiting | `Corrupt of string ]
(** Extract the next complete frame. [`Awaiting] = feed more bytes;
    [`Corrupt] is sticky — the stream is unrecoverable past a bad length
    header or an oversized frame. *)

val write_frame : Unix.file_descr -> string -> unit
(** Frame the payload and write it fully. *)

val read_frame :
  Unix.file_descr -> decoder -> [ `Frame of string | `Eof | `Corrupt of string ]
(** Blocking-read until the decoder yields. [`Eof] on a clean close;
    EOF mid-frame (a truncated frame) is [`Corrupt]. *)
