type cmp = Eq | Ne | Lt | Le | Gt | Ge

type literal =
  | Str of string
  | Num of float

type node_test =
  | Name_test of string
  | Text_test
  | Attribute_test of string
  | Node_test

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
  | From_doc of string
  | From_var of string
  | From_self

and predicate =
  | Exists of path
  | Value_cmp of path * cmp * literal

type where_atom =
  | Join of path * path
  | Filter of path * cmp * literal

type query = {
  lets : (string * path) list;
  fors : (string * path) list;
  where : where_atom list;
  return_var : string;
}

let cmp_to_string = function
  | Eq -> "="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let literal_to_string = function
  | Str s -> Printf.sprintf "%S" s
  | Num f -> Printf.sprintf "%g" f

let test_to_string = function
  | Name_test n -> n
  | Text_test -> "text()"
  | Attribute_test n -> "@" ^ n
  | Node_test -> "node()"

let rec path_to_string p =
  let start =
    match p.start with
    | From_doc uri -> Printf.sprintf "doc(%S)" uri
    | From_var v -> "$" ^ v
    | From_self -> "."
  in
  start ^ String.concat "" (List.map step_to_string p.steps)

and step_to_string s =
  let open Rox_algebra in
  let sep =
    match (s.axis, s.test) with
    | Axis.Descendant, _ | Axis.Desc_or_self, _ -> "//"
    | Axis.Attribute, _ -> "/"
    | Axis.Child, _ -> "/"
    | axis, _ -> "/" ^ Axis.to_string axis ^ "::"
  in
  sep ^ test_to_string s.test
  ^ String.concat "" (List.map pred_to_string s.preds)

and pred_to_string = function
  | Exists p -> "[" ^ path_to_string p ^ "]"
  | Value_cmp (p, c, l) ->
    "[" ^ path_to_string p ^ " " ^ cmp_to_string c ^ " " ^ literal_to_string l ^ "]"

let pp_query ppf q =
  let open Format in
  List.iter (fun (v, p) -> fprintf ppf "let $%s := %s@\n" v (path_to_string p)) q.lets;
  List.iteri
    (fun i (v, p) ->
      fprintf ppf "%s $%s in %s%s@\n"
        (if i = 0 then "for" else "   ")
        v (path_to_string p)
        (if i < List.length q.fors - 1 then "," else ""))
    q.fors;
  (match q.where with
   | [] -> ()
   | atoms ->
     let atom_to_string = function
       | Join (a, b) -> path_to_string a ^ " = " ^ path_to_string b
       | Filter (p, c, l) ->
         path_to_string p ^ " " ^ cmp_to_string c ^ " " ^ literal_to_string l
     in
     fprintf ppf "where %s@\n" (String.concat " and " (List.map atom_to_string atoms)));
  fprintf ppf "return $%s" q.return_var
