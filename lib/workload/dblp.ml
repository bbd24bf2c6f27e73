open Rox_util
open Rox_shred

type area = AI | BI | DM | IR | DB

let area_name = function
  | AI -> "AI"
  | BI -> "BI"
  | DM -> "DM"
  | IR -> "IR"
  | DB -> "DB"

type venue = {
  name : string;
  areas : area list;
  author_tags : int;
}

(* Table 3 of the paper, in table order. *)
let venues =
  [|
    { name = "Fuzzy Logic in AI"; areas = [ AI ]; author_tags = 62 };
    { name = "AI in Medicine"; areas = [ AI ]; author_tags = 2264 };
    { name = "AAAI"; areas = [ AI ]; author_tags = 6832 };
    { name = "CANS"; areas = [ AI; BI ]; author_tags = 214 };
    { name = "BMC Bioinform."; areas = [ BI ]; author_tags = 3547 };
    { name = "Bioinformatics"; areas = [ BI ]; author_tags = 15019 };
    { name = "BIOKDD"; areas = [ DM; BI ]; author_tags = 139 };
    { name = "MLDM"; areas = [ DM ]; author_tags = 575 };
    { name = "ICDM"; areas = [ DM ]; author_tags = 2205 };
    { name = "KDD"; areas = [ DM ]; author_tags = 3201 };
    { name = "WSDM"; areas = [ DM; IR ]; author_tags = 95 };
    { name = "INEX"; areas = [ IR ]; author_tags = 342 };
    { name = "SPIRE"; areas = [ IR ]; author_tags = 724 };
    { name = "TREC"; areas = [ IR ]; author_tags = 2541 };
    { name = "SIGIR"; areas = [ IR ]; author_tags = 4584 };
    { name = "ICME"; areas = [ IR ]; author_tags = 5757 };
    { name = "ICIP"; areas = [ IR ]; author_tags = 7935 };
    { name = "CIKM"; areas = [ DB; IR ]; author_tags = 3684 };
    { name = "ADBIS"; areas = [ DB ]; author_tags = 947 };
    { name = "EDBT"; areas = [ DB ]; author_tags = 1340 };
    { name = "SIGMOD"; areas = [ DB ]; author_tags = 5912 };
    { name = "ICDE"; areas = [ DB ]; author_tags = 6169 };
    { name = "VLDB"; areas = [ DB ]; author_tags = 6865 };
  |]

let primary_area v = List.hd v.areas

let find_venue name =
  match Array.find_opt (fun v -> v.name = name) venues with
  | Some v -> v
  | None -> raise Not_found

type gen_params = {
  seed : int;
  scale : int;
  reduction : int;
  avg_authors_per_article : float;
  crossover : float;
  secondary_area_fraction : float;
  pool_divisor : float;
}

let default_gen =
  {
    seed = 2009;
    scale = 1;
    reduction = 10;
    avg_authors_per_article = 2.4;
    crossover = 0.09;
    secondary_area_fraction = 0.3;
    pool_divisor = 3.0;
  }

let all_areas = [| AI; BI; DM; IR; DB |]

(* Area author-pool size: base tags of the area (dual-area venues count for
   their primary), divided by the average publications per author. *)
let pool_size params area =
  let base =
    Array.fold_left
      (fun acc v ->
        if primary_area v = area then acc + (v.author_tags / params.reduction) else acc)
      0 venues
  in
  max 25 (int_of_float (float_of_int base /. params.pool_divisor))

(* Core-pool skew with communities. 60% of the author occurrences come from
   the area's ~100 "core" prolific authors, the rest uniformly from the long
   tail. The core is split into [n_communities] sub-communities, and every
   venue has a primary community it favours: two venues of the same area
   join strongly when their communities align and several times more weakly
   when they do not — the heterogeneous correlation that makes the paper's
   smallest-input-first classical optimizer err (its Section 4.3 groups show
   "unexpectedly high correlation" even within one area). Crossover
   occurrences (an author publishing outside their area) are mostly tail
   authors, so cross-area joins stay rare-author coincidences, orders of
   magnitude smaller than aligned same-area joins (Figure 5's contrast).
   Per-author occurrence counts stay moderate, like real DBLP, so multi-way
   join results do not explode combinatorially. *)
let core_size = 80
let n_communities = 2
let community_size = core_size / n_communities

(* Core authors appear ~[target_core_count] times in every venue they
   publish in, regardless of venue size: a small venue simply involves
   fewer core authors (a prefix of its community, so that aligned venues
   of any size share their most prolific members). This mirrors real DBLP,
   where small parochial venues (ADBIS) are written by the same prolific
   community that fills ICDE/VLDB — which is exactly what the classical
   smallest-input-first heuristic cannot see. *)
let target_core_count = 10.0

let members_for ~core_prob base_tags =
  let mass = float_of_int base_tags *. core_prob *. 0.85 in
  max 3 (min community_size (int_of_float (mass /. target_core_count)))

let pick_author ?(core_prob = 0.7) ?members ?community rng params area =
  let n = max (core_size + 1) (pool_size params area) in
  let members = Option.value ~default:community_size members in
  let rank =
    if Xoshiro.float rng < core_prob then begin
      let comm =
        match community with
        | Some c when Xoshiro.float rng < 0.7 -> c
        | _ -> Xoshiro.int rng n_communities
      in
      (comm * community_size) + Xoshiro.int rng members
    end
    else core_size + Xoshiro.int rng (n - core_size)
  in
  Printf.sprintf "%s Author %d" (area_name area) rank

let uri_of v =
  String.map (fun c -> if c = ' ' then '_' else c) v.name ^ ".xml"

(* Stable per-venue seed: content must not depend on which subset loads. *)
let venue_seed master name =
  let h = Hashtbl.hash (master, name) in
  (h * 2654435761) land max_int

let venue_rng params (v : venue) = Xoshiro.create (venue_seed params.seed v.name)

let emit_venue ~params ?rng (v : venue) (sink : Sink.t) =
  let rng = match rng with Some r -> r | None -> venue_rng params v in
  let primary_community = Xoshiro.int rng n_communities in
  let base_tags = max 4 (v.author_tags / params.reduction) in
  let members = members_for ~core_prob:0.7 base_tags in
  let leaf tag content =
    sink.open_el tag;
    sink.text content;
    sink.close_el ()
  in
  sink.open_el "dblp";
  let emitted = ref 0 in
  let article = ref 0 in
  let author_count = ref 0 in
  while !emitted < base_tags do
    (* One base article: pick its area, then its authors. *)
    let area =
      match v.areas with
      | [ a ] -> a
      | a :: rest ->
        if Xoshiro.float rng < params.secondary_area_fraction && rest <> [] then List.hd rest
        else a
      | [] -> invalid_arg "Dblp: venue without area"
    in
    let n_authors =
      let avg = params.avg_authors_per_article in
      let n = 1 + Xoshiro.int rng (int_of_float (2.0 *. avg) - 1) in
      min n (base_tags - !emitted)
    in
    let authors =
      List.init n_authors (fun _ ->
          if Xoshiro.float rng < params.crossover then begin
            let foreign = all_areas.(Xoshiro.int rng (Array.length all_areas)) in
            pick_author ~core_prob:0.3 rng params foreign
          end
          else pick_author ~members ~community:primary_community rng params area)
      |> List.sort_uniq compare
    in
    emitted := !emitted + List.length authors;
    let title = Printf.sprintf "On the %s problem (%s %d)" (area_name area) v.name !article in
    let year = string_of_int (1995 + Xoshiro.int rng 14) in
    (* Replicate the article [scale] times with serial suffixes, preserving
       distribution and correlation (Section 4.1). *)
    for serial = 0 to params.scale - 1 do
      sink.open_el "inproceedings";
      sink.attr "key" (Printf.sprintf "conf/%s/%d-%d" v.name !article serial);
      List.iter
        (fun a ->
          incr author_count;
          leaf "author" (if params.scale > 1 then Printf.sprintf "%s %d" a serial else a))
        authors;
      leaf "title" (if params.scale > 1 then Printf.sprintf "%s #%d" title serial else title);
      leaf "year" year;
      sink.close_el ()
    done;
    incr article
  done;
  sink.close_el ();
  !author_count

type loaded = {
  venue : venue;
  docref : Rox_storage.Engine.docref;
  author_tag_count : int;
  byte_size : int;
}

let load ?(params = default_gen) engine selection =
  List.map
    (fun v ->
      let b =
        Doc.Builder.create ~uri:(uri_of v)
          ~qnames:(Rox_storage.Engine.qnames engine)
          ~values:(Rox_storage.Engine.values engine)
          ()
      in
      let counter, bytes = Sink.byte_counter () in
      let author_tag_count = emit_venue ~params v (Sink.tee (Sink.doc_builder b) counter) in
      let docref = Rox_storage.Engine.add_doc engine (Doc.Builder.finish b) in
      { venue = v; docref; author_tag_count; byte_size = bytes () })
    selection

let query_for uris =
  let n = List.length uris in
  if n < 2 then invalid_arg "Dblp.query_for: need at least 2 documents";
  let buf = Buffer.create 256 in
  List.iteri
    (fun i uri ->
      Buffer.add_string buf
        (Printf.sprintf "%s $a%d in doc(\"%s\")//author%s\n"
           (if i = 0 then "for" else "   ")
           (i + 1) uri
           (if i < n - 1 then "," else "")))
    uris;
  Buffer.add_string buf "where ";
  for i = 2 to n do
    if i > 2 then Buffer.add_string buf " and ";
    Buffer.add_string buf (Printf.sprintf "$a1/text() = $a%d/text()" i)
  done;
  Buffer.add_string buf "\nreturn $a1";
  Buffer.contents buf
