type kind = Capability.kind = Global | Field

type binding = {
  gb_file : string;
  gb_line : int;
  gb_kind : kind;
  gb_name : string;
  gb_what : string;
}

(* --- lexical stripping --------------------------------------------------- *)

(* Blank comments and string/char literals to spaces, preserving length
   and newlines so line/column arithmetic survives. Handles nested
   comments, escaped quotes, and distinguishes char literals from type
   variables ('a) by shape. *)
let strip src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if Bytes.get out i <> '\n' then Bytes.set out i ' ' in
  let rec skip_string i =
    (* [i] is inside a string literal; returns index after closing quote. *)
    if i >= n then i
    else
      match src.[i] with
      | '"' ->
        blank i;
        i + 1
      | '\\' when i + 1 < n ->
        blank i;
        blank (i + 1);
        skip_string (i + 2)
      | _ ->
        blank i;
        skip_string (i + 1)
  in
  let rec skip_comment i depth =
    if i >= n then i
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then begin
      blank i;
      blank (i + 1);
      skip_comment (i + 2) (depth + 1)
    end
    else if i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' then begin
      blank i;
      blank (i + 1);
      if depth = 1 then i + 2 else skip_comment (i + 2) (depth - 1)
    end
    else begin
      blank i;
      skip_comment (i + 1) depth
    end
  in
  let is_char_literal i =
    (* 'x' or '\n' / '\065' etc. — anything else ('a the type variable,
       numeric literal quotes) is left alone. *)
    i + 2 < n
    &&
    if src.[i + 1] = '\\' then
      (* find closing quote within a few chars *)
      let rec close j k =
        j < n && k < 6 && (src.[j] = '\'' || close (j + 1) (k + 1))
      in
      close (i + 2) 0
    else src.[i + 2] = '\''
  in
  let rec go i =
    if i >= n then ()
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then
      go (skip_comment i 0)
    else if src.[i] = '"' then begin
      blank i;
      go (skip_string (i + 1))
    end
    else if src.[i] = '\'' && is_char_literal i then begin
      let rec close j = if src.[j] = '\'' then j else close (j + 1) in
      let e = close (i + 1) in
      for k = i to e do
        blank k
      done;
      go (e + 1)
    end
    else go (i + 1)
  in
  go 0;
  Bytes.to_string out

(* --- token helpers ------------------------------------------------------- *)

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* [tok] may contain dots ("Atomic.make"); a match requires non-ident
   characters (or boundaries) on both sides. *)
let contains_token text tok =
  let tn = String.length tok and n = String.length text in
  let rec go i =
    if i + tn > n then false
    else if
      String.sub text i tn = tok
      && (i = 0 || not (is_ident_char text.[i - 1]))
      && (i + tn >= n || (not (is_ident_char text.[i + tn])) && text.[i + tn] <> '.')
    then true
    else go (i + 1)
  in
  go 0

(* Creation patterns: (needle, token?, label). Non-token needles match as
   raw substrings (the array-literal bracket). *)
let creations =
  [
    ("ref", true, "ref");
    ("Atomic.make", true, "Atomic.make");
    ("Mutex.create", true, "Mutex.create");
    ("Condition.create", true, "Condition.create");
    ("Domain.DLS.new_key", true, "Domain.DLS.new_key");
    ("DLS.new_key", true, "Domain.DLS.new_key");
    ("Hashtbl.create", true, "Hashtbl.create");
    ("Buffer.create", true, "Buffer.create");
    ("Queue.create", true, "Queue.create");
    ("Stack.create", true, "Stack.create");
    ("Bytes.create", true, "Bytes.create");
    ("Bytes.make", true, "Bytes.make");
    ("Array.make", true, "Array.make");
    ("Array.init", true, "Array.init");
    ("Array.create_float", true, "Array.create_float");
    ("[|", false, "array literal");
  ]

let creation_in text =
  let rec go = function
    | [] -> None
    | (needle, tokenized, label) :: rest ->
      let hit =
        if tokenized then contains_token text needle
        else
          (* raw substring *)
          let nn = String.length needle and n = String.length text in
          let rec sub i =
            i + nn <= n && (String.sub text i nn = needle || sub (i + 1))
          in
          sub 0
      in
      if hit then Some label else go rest
  in
  go creations

let ident_at text i =
  let n = String.length text in
  let rec fin j = if j < n && is_ident_char text.[j] then fin (j + 1) else j in
  let e = fin i in
  if e > i then Some (String.sub text i (e - i), e) else None

let skip_ws text i =
  let n = String.length text in
  let rec go j =
    if j < n && (text.[j] = ' ' || text.[j] = '\t') then go (j + 1) else j
  in
  go i

(* --- scanning ------------------------------------------------------------ *)

let starts_with_kw line kw =
  let n = String.length kw in
  String.length line >= n
  && String.sub line 0 n = kw
  && (String.length line = n || not (is_ident_char line.[n]))

(* Index of the first '=' at bracket depth 0 that is a plain binding
   equals (not part of =>, <=, ==, !=, :=). *)
let binding_eq line from =
  let n = String.length line in
  let rec go i depth =
    if i >= n then None
    else
      match line.[i] with
      | '(' | '[' | '{' -> go (i + 1) (depth + 1)
      | ')' | ']' | '}' -> go (i + 1) (depth - 1)
      | '=' when depth = 0 ->
        let prev_op = i > from && (match line.[i - 1] with
          | '<' | '>' | '!' | ':' | '=' | '+' | '-' | '*' | '/' -> true
          | _ -> false)
        and next_op = i + 1 < n && (match line.[i + 1] with
          | '=' | '>' -> true
          | _ -> false)
        in
        if prev_op || next_op then go (i + 1) depth else Some i
      | _ -> go (i + 1) depth
  in
  go from 0

let region_blank text a b =
  let rec go i = i >= b || ((text.[i] = ' ' || text.[i] = '\t') && go (i + 1)) in
  go a

(* Scan one file's stripped lines. *)
let scan_lines ~file lines =
  let findings = ref [] in
  let n = Array.length lines in
  (* Block = [start] .. first following line whose column 0 is a letter
     or '('. *)
  let block_end start =
    let rec go i =
      if i >= n then i
      else
        let l = lines.(i) in
        if String.length l > 0 && (is_ident_char l.[0] || l.[0] = '(') then i
        else go (i + 1)
    in
    go (start + 1)
  in
  let block_text start stop =
    String.concat "\n" (Array.to_list (Array.sub lines start (stop - start)))
  in
  (* Type context for attributing mutable fields. *)
  let current_type = ref "" in
  let in_type_group = ref false in
  let update_type_ctx line =
    let l = skip_ws line 0 in
    let take kw =
      if
        starts_with_kw (String.sub line l (String.length line - l)) kw
        && (kw <> "and" || !in_type_group)
      then begin
        (* Name = last identifier before '=' (or line end): skips
           parameters like 'v and !'row. *)
        let stop =
          match String.index_from_opt line l '=' with
          | Some e -> e
          | None -> String.length line
        in
        let name = ref "" in
        let i = ref (l + String.length kw) in
        while !i < stop do
          (match ident_at line !i with
           | Some (id, e) ->
             if id <> "nonrec" && id <> "private" then name := id;
             i := e
           | None -> incr i)
        done;
        if !name <> "" then begin
          current_type := !name;
          if kw = "type" then in_type_group := true
        end;
        true
      end
      else false
    in
    if not (take "type") then ignore (take "and" : bool)
  in
  let i = ref 0 in
  while !i < n do
    let line = lines.(!i) in
    let col0 =
      String.length line > 0 && (is_ident_char line.[0] || line.[0] = '(')
    in
    (* Column-zero [let] value bindings. *)
    if col0 && starts_with_kw line "let" then begin
      in_type_group := false;
      let stop = block_end !i in
      let text = block_text !i stop in
      let p = skip_ws text 3 in
      let p = if starts_with_kw (String.sub text p (String.length text - p)) "rec"
        then skip_ws text (p + 3) else p
      in
      (match ident_at text p with
       | Some (name, e) when name <> "_" ->
         let q = skip_ws text e in
         (match binding_eq text q with
          | Some eq ->
            (* Value binding: nothing between the name and '=', or only
               a type annotation (starts with ':'). Anything else is a
               parameter list — a function, whose per-call state is not
               global. *)
            let is_value = region_blank text q eq || text.[q] = ':' in
            if is_value then
              let rhs = String.sub text (eq + 1) (String.length text - eq - 1) in
              (match creation_in rhs with
               | Some what ->
                 findings :=
                   {
                     gb_file = file;
                     gb_line = !i + 1;
                     gb_kind = Global;
                     gb_name = name;
                     gb_what = what;
                   }
                   :: !findings
               | None -> ())
          | None -> ())
       | _ -> ());
      i := stop
    end
    else begin
      if col0 && not (starts_with_kw line "type") && not (starts_with_kw line "and")
      then in_type_group := false;
      update_type_ctx line;
      (* Mutable fields at any depth. *)
      (if contains_token line "mutable" then
         let rec find_from j =
           match ident_at line (skip_ws line j) with
           | Some ("mutable", e) ->
             let fe = skip_ws line e in
             (match ident_at line fe with
              | Some (field, fend) ->
                let tname = if !current_type = "" then "?" else !current_type in
                findings :=
                  {
                    gb_file = file;
                    gb_line = !i + 1;
                    gb_kind = Field;
                    gb_name = tname ^ "." ^ field;
                    gb_what = "mutable field";
                  }
                  :: !findings;
                find_from fend
              | None -> ())
           | Some (_, e) -> find_from e
           | None ->
             let j' = skip_ws line j in
             if j' < String.length line then find_from (j' + 1)
         in
         find_from 0);
      incr i
    end
  done;
  List.rev !findings

let scan_source ~file src =
  let clean = strip src in
  scan_lines ~file (Array.of_list (String.split_on_char '\n' clean))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let scan_root root =
  let files = ref [] in
  let rec walk dir rel =
    let entries = Sys.readdir dir in
    Array.sort compare entries;
    Array.iter
      (fun e ->
        let p = Filename.concat dir e in
        let r = rel ^ "/" ^ e in
        if Sys.is_directory p then (if e <> "_build" && e.[0] <> '.' then walk p r)
        else if Filename.check_suffix e ".ml" then files := (p, r) :: !files)
      entries
  in
  (* Findings are named relative to the root's parent (["lib/util/x.ml"]
     whether invoked as [lib] or [../lib]), so the capability allowlist
     matches from any working directory. *)
  walk root (Filename.basename root);
  List.concat_map
    (fun (p, r) -> scan_source ~file:r (read_file p))
    (List.sort compare !files)

(* --- checking ------------------------------------------------------------ *)

let check bindings =
  let used = Hashtbl.create 16 in
  let diags = ref [] in
  List.iter
    (fun b ->
      match Capability.find ~file:b.gb_file ~kind:b.gb_kind ~name:b.gb_name with
      | Some e when e.Capability.cap_guard <> "" -> Hashtbl.replace used e ()
      | Some e ->
        Hashtbl.replace used e ();
        diags :=
          Diagnostic.of_code "RX510"
            (Diagnostic.Source (b.gb_file, b.gb_line))
            (Printf.sprintf
               "allowlist entry for %s %s has an empty guard — document the \
                discipline that makes it safe"
               (Capability.kind_string b.gb_kind) b.gb_name)
          :: !diags
      | None ->
        diags :=
          Diagnostic.of_code "RX510"
            (Diagnostic.Source (b.gb_file, b.gb_line))
            ~hint:
              "add an entry to Capability.allowlist stating the guard, or \
               confine the state to a session/domain"
            (Printf.sprintf "undocumented mutable %s `%s` (%s)"
               (Capability.kind_string b.gb_kind) b.gb_name b.gb_what)
          :: !diags)
    bindings;
  List.iter
    (fun e ->
      if not (Hashtbl.mem used e) then
        diags :=
          Diagnostic.of_code "RX511"
            (Diagnostic.Source (e.Capability.cap_file, 0))
            (Printf.sprintf
               "stale allowlist entry: %s `%s` matches no source binding — \
                remove it"
               (Capability.kind_string e.Capability.cap_kind)
               e.Capability.cap_name)
          :: !diags)
    Capability.allowlist;
  List.rev !diags

let run ~root = Report.make ~subject:("lint:" ^ root) (check (scan_root root))
