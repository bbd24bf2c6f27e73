(** Structured diagnostics for the static analysis passes.

    Each diagnostic carries a severity, a stable code ([RX0xx] graph
    checks, [RX1xx] trace checks, [RX3xx] operator-contract
    violations, [RX4xx] telemetry checks, [RX5xx] concurrency-soundness
    checks, [RX6xx] serve and [RX7xx] recorder accounting checks), a
    location inside the artifact being
    checked, a message and an optional fix hint.

    The {!registry} is the single source of truth mapping every code to
    its default severity, one-line summary and long explanation — check
    modules may locally soften a severity, but meaning and documentation
    live here. *)

type severity = Error | Warning | Info

type location =
  | Graph_loc          (** the join graph as a whole *)
  | Vertex of int      (** a vertex id *)
  | Edge of int        (** an edge id *)
  | Event of int       (** index into the optimizer event list ([Sink.events]) *)
  | Span of int        (** index into the chronological telemetry span list *)
  | Source of string * int  (** a source file and line (lint findings) *)

type t = {
  severity : severity;
  code : string;
  location : location;
  message : string;
  hint : string option;
}

val make : severity -> string -> location -> ?hint:string -> string -> t
val error : string -> location -> ?hint:string -> string -> t
val warning : string -> location -> ?hint:string -> string -> t
val info : string -> location -> ?hint:string -> string -> t

val of_code : string -> location -> ?hint:string -> string -> t
(** Build a diagnostic whose severity comes from the {!registry} entry
    for the code (Error if the code is unknown — better loud than lost). *)

val is_error : t -> bool
val severity_string : severity -> string
val severity_rank : severity -> int
(** [Error] = 0, [Warning] = 1, [Info] = 2 — errors sort first. *)

val location_string : location -> string
val to_string : t -> string
val compare_severity : t -> t -> int

(** {2 The code registry} *)

type code_info = {
  ci_code : string;
  ci_severity : severity;   (** default severity; checks may soften locally *)
  ci_summary : string;      (** one line, shown by [--codes] *)
  ci_detail : string;       (** the [--explain] paragraph *)
}

val registry : code_info list
(** Every RX code, in code order. *)

val find_code : string -> code_info option

val explain : string -> string option
(** The [rox analyze --explain CODE] text: code, severity, summary and
    the detail paragraph. [None] for unknown codes. *)

val registry_markdown : unit -> string
(** The registry rendered as a Markdown table — the generated "diagnostic
    code registry" section in DESIGN.md. *)

val to_json : t -> Rox_util.Minijson.t
(** One diagnostic as a JSON object: code, severity, location (structured
    and rendered), message, hint when present. *)
