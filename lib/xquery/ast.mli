(** Abstract syntax of the FLWOR / XPath fragment ROX optimizes.

    This is the query class of the paper: [let $d := doc(...)] bindings,
    conjunctive [for] clauses over path expressions with structural and
    value predicates, a [where] conjunction of value joins and comparisons,
    and a variable [return]. Exactly the shape whose compiled plans reduce
    to a single Join Graph plus a π/δ/τ tail (Section 2.1). *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type literal =
  | Str of string
  | Num of float

type node_test =
  | Name_test of string       (** element name *)
  | Text_test                 (** text() *)
  | Attribute_test of string  (** @name *)
  | Node_test                 (** node() *)

type step = {
  axis : Rox_algebra.Axis.t;
  test : node_test;
  preds : predicate list;
}

and path = {
  start : start;
  steps : step list;
}

and start =
  | From_doc of string   (** doc("uri") *)
  | From_var of string
  | From_self            (** "." inside predicates *)

and predicate =
  | Exists of path                 (** [./reserve] *)
  | Value_cmp of path * cmp * literal  (** [./quantity = 1], [.//x/text() < 5] *)

type where_atom =
  | Join of path * path            (** $a/@p = $b/@id — value equi-join *)
  | Filter of path * cmp * literal

type query = {
  lets : (string * path) list;
  fors : (string * path) list;
  where : where_atom list;  (** conjunction *)
  return_var : string;
}

val pp_query : Format.formatter -> query -> unit
val cmp_to_string : cmp -> string
