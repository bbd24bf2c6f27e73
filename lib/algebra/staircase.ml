open Rox_util
open Rox_shred

(* Each context locates its candidate range with its own binary search
   ([Bin_search.lower_bound] over the whole candidate column, in
   [emit_range] and the Following / Preceding scans) and then scans the
   range; Parent / Ancestor steps probe candidates by [Bin_search.mem].
   Charged work is one unit per context plus one per candidate scanned or
   probed (Table 1's |C| + |S| + |R| on the pruned containment axes); the
   searches add O(log |S|) uncharged time per context, or per probe on the
   upward axes.

   When the candidates are an untouched index domain, its descriptor
   answers membership from the document's own columns in O(1): upward
   probes test the descriptor instead of searching, and [emit_range] walks
   a pre range no longer than the ⌈log2 |S|⌉ probes of the search it
   replaces, testing each node. The walk meets the domain members of the
   range in the same ascending order the scan does and charges each one
   unit, so pairs and work units are those of the column path. *)

type domain = { kind : Nodekind.t; name : int; value : int }

(* ⌈log2 n⌉: the probes of one binary search over [n] candidates. *)
let search_probes n =
  let rec go b = if 1 lsl b >= n then b else go (b + 1) in
  go 0

let iter_pairs ?meter ?domain ~doc ~axis ~context ~candidates f =
  let context = Column.read context and candidates = Column.read candidates in
  let ncand = Array.length candidates in
  (* [mem s]: is [s] a candidate? [walk_max]: the longest range walked. *)
  let mem, walk_max =
    match domain with
    | None -> (Bin_search.mem candidates, 0)
    | Some { kind; name; value } ->
      let kind = Nodekind.to_int kind in
      ( (fun s ->
          Doc.kind_code doc s = kind
          && (name < 0 || Doc.name_id doc s = name)
          && (value < 0 || Doc.value_id doc s = value)),
        search_probes ncand )
  in
  (* Emit all candidates within [lo, hi] satisfying [pred]. *)
  let emit_range cidx c lo hi pred =
    if hi - lo >= walk_max then begin
      let start = Bin_search.lower_bound candidates lo in
      let i = ref start in
      while !i < ncand && candidates.(!i) <= hi do
        let s = candidates.(!i) in
        Cost.charge meter 1;
        if pred s then f cidx c s;
        incr i
      done
    end
    else
      for s = lo to hi do
        if mem s then begin
          Cost.charge meter 1;
          if pred s then f cidx c s
        end
      done
  in
  let per_context work =
    Array.iteri
      (fun cidx c ->
        Cost.charge meter 1;
        work cidx c)
      context
  in
  match axis with
  | Axis.Descendant ->
    per_context (fun cidx c -> emit_range cidx c (c + 1) (c + Doc.size doc c) (fun _ -> true))
  | Axis.Desc_or_self ->
    per_context (fun cidx c -> emit_range cidx c c (c + Doc.size doc c) (fun _ -> true))
  | Axis.Child ->
    per_context (fun cidx c ->
        emit_range cidx c (c + 1) (c + Doc.size doc c) (fun s ->
            Doc.parent doc s = c
            && (match Doc.kind doc s with Nodekind.Attr -> false | _ -> true)))
  | Axis.Attribute ->
    per_context (fun cidx c ->
        emit_range cidx c (c + 1) (c + Doc.size doc c) (fun s ->
            Doc.parent doc s = c
            && (match Doc.kind doc s with Nodekind.Attr -> true | _ -> false)))
  | Axis.Self -> per_context (fun cidx c -> emit_range cidx c c c (fun _ -> true))
  | Axis.Parent ->
    per_context (fun cidx c ->
        let p = Doc.parent doc c in
        if p >= 0 then begin
          Cost.charge meter 1;
          if mem p then f cidx c p
        end)
  | Axis.Ancestor ->
    per_context (fun cidx c ->
        let p = ref (Doc.parent doc c) in
        while !p >= 0 do
          Cost.charge meter 1;
          if mem !p then f cidx c !p;
          p := Doc.parent doc !p
        done)
  | Axis.Anc_or_self ->
    per_context (fun cidx c ->
        let p = ref c in
        while !p >= 0 do
          Cost.charge meter 1;
          if mem !p then f cidx c !p;
          p := Doc.parent doc !p
        done)
  | Axis.Following ->
    per_context (fun cidx c ->
        let bound = c + Doc.size doc c in
        let start = Bin_search.lower_bound candidates (bound + 1) in
        for i = start to ncand - 1 do
          Cost.charge meter 1;
          f cidx c candidates.(i)
        done)
  | Axis.Preceding ->
    per_context (fun cidx c ->
        let stop = Bin_search.lower_bound candidates c in
        for i = 0 to stop - 1 do
          let s = candidates.(i) in
          Cost.charge meter 1;
          if s + Doc.size doc s < c then f cidx c s
        done)
  | Axis.Following_sibling ->
    (* Attributes have no siblings and are never siblings (XPath). *)
    let is_attr n = match Doc.kind doc n with Nodekind.Attr -> true | _ -> false in
    per_context (fun cidx c ->
        let p = Doc.parent doc c in
        if p >= 0 && not (is_attr c) then
          emit_range cidx c (c + Doc.size doc c + 1) (p + Doc.size doc p) (fun s ->
              Doc.parent doc s = p && not (is_attr s)))
  | Axis.Preceding_sibling ->
    let is_attr n = match Doc.kind doc n with Nodekind.Attr -> true | _ -> false in
    per_context (fun cidx c ->
        let p = Doc.parent doc c in
        if p >= 0 && not (is_attr c) then
          emit_range cidx c (p + 1) (c - 1) (fun s ->
              Doc.parent doc s = p && not (is_attr s)))

(* Context pruning for containment axes: a context inside the subtree of a
   previous context contributes no new descendants. *)
let prune_covered doc context =
  let out = Int_vec.create ~capacity:(Column.length context) () in
  let covered_until = ref (-1) in
  Column.iter
    (fun c ->
      if c > !covered_until then begin
        Int_vec.push out c;
        covered_until := c + Doc.size doc c
      end)
    context;
  Column.unsafe_of_array ~sorted:true (Int_vec.to_array out)

let join_impl ?meter ~doc ~axis ~context candidates =
  match axis with
  | Axis.Descendant | Axis.Desc_or_self ->
    (* Pruned contexts have disjoint subtrees, so ranges never overlap and
       the concatenated output is already sorted and duplicate-free. *)
    let pruned = prune_covered doc context in
    let out = Int_vec.create () in
    iter_pairs ?meter ~doc ~axis ~context:pruned ~candidates (fun _ _ s -> Int_vec.push out s);
    Column.unsafe_of_array ~sorted:true (Int_vec.to_array out)
  | Axis.Following ->
    (* Union over contexts is the suffix after the earliest subtree end —
       a zero-copy slice of the candidate column. *)
    if Column.is_empty context then Column.empty
    else begin
      let bound =
        Column.fold_left (fun acc c -> min acc (c + Doc.size doc c)) max_int context
      in
      let cand = Column.read candidates in
      let start = Bin_search.lower_bound cand (bound + 1) in
      let out =
        Column.slice candidates ~pos:start ~len:(Column.length candidates - start)
      in
      Cost.charge meter (Column.length context + Column.length out);
      out
    end
  | Axis.Preceding ->
    (* Union over contexts = preceding of the last context. *)
    if Column.is_empty context then Column.empty
    else begin
      let c = Column.get context (Column.length context - 1) in
      let out = Int_vec.create () in
      iter_pairs ?meter ~doc ~axis
        ~context:(Column.unsafe_of_array ~sorted:true [| c |])
        ~candidates
        (fun _ _ s -> Int_vec.push out s);
      Column.unsafe_of_array ~sorted:true (Int_vec.to_array out)
    end
  | Axis.Child | Axis.Attribute | Axis.Self ->
    (* Distinct contexts yield distinct result ranges per context, but a
       candidate can be reached from only one parent, so output is already
       duplicate-free; context order keeps it sorted for Self, while Child /
       Attribute ranges of successive contexts can interleave with nesting —
       dedup-sort to be safe. *)
    let out = Int_vec.create () in
    iter_pairs ?meter ~doc ~axis ~context ~candidates (fun _ _ s -> Int_vec.push out s);
    Column.unsafe_of_array ~sorted:true (Int_vec.sorted_dedup out)
  | Axis.Parent | Axis.Ancestor | Axis.Anc_or_self | Axis.Following_sibling
  | Axis.Preceding_sibling ->
    let out = Int_vec.create () in
    iter_pairs ?meter ~doc ~axis ~context ~candidates (fun _ _ s -> Int_vec.push out s);
    Column.unsafe_of_array ~sorted:true (Int_vec.sorted_dedup out)

let join ~sanitize ?meter ~doc ~axis ~context candidates =
  if not sanitize then join_impl ?meter ~doc ~axis ~context candidates
  else begin
    let op = Printf.sprintf "Staircase.join(%s)" (Axis.to_string axis) in
    Sanitize.check_column_flag ~op ~what:"context" context;
    Sanitize.check_column_flag ~op ~what:"candidates" candidates;
    Sanitize.check_sorted_dedup ~op ~what:"context" (Column.read context);
    Sanitize.check_sorted_dedup ~op ~what:"candidates" (Column.read candidates);
    let out, charged =
      Sanitize.observed meter (fun m -> join_impl ~meter:m ~doc ~axis ~context candidates)
    in
    Sanitize.check_column_flag ~op ~what:"output" out;
    Sanitize.check_sorted_dedup ~op ~what:"output" (Column.read out);
    Sanitize.check_subset ~op ~what:"output" ~domain:(Column.read candidates)
      (Column.read out);
    (* Table 1's |C| + |S| + |R| holds as an exact bound only for the
       pruned containment axes and Following; the sibling/ancestor scans
       pay per ancestor step / per subtree member instead. *)
    (match axis with
     | Axis.Descendant | Axis.Desc_or_self | Axis.Following ->
       Sanitize.check_cost ~op ~charged
         ~bound:(Column.length context + Column.length candidates + Column.length out)
     | _ -> ());
    out
  end

let count ?meter ~doc ~axis ~context candidates =
  let n = ref 0 in
  iter_pairs ?meter ~doc ~axis ~context ~candidates (fun _ _ _ -> incr n);
  !n
