(* The RX5xx dynamic race detector: an Eraser-style lockset refinement
   combined with a FastTrack-style vector-clock happens-before check,
   replayed over a Rox_util.Accesslog recording.

   Happens-before edges come from the recorded Acquire/Release events:
   a Release joins the releasing domain's clock into the lock's clock
   (and advances the domain), an Acquire joins the lock's clock into the
   acquiring domain. Mutexes and the hb_publish/hb_acquire fork-join
   tokens both reduce to this rule, so safe publication before
   Domain.spawn never reads as a race.

   Per Read/Write the checker asks two independent questions:

   - Did this access *race* — is there a prior access to the same site
     from another domain that neither happens-before this one nor shares
     a lock with it? Races are errors: RX503 on epoch sites, RX501
     otherwise (the message says which side was unlocked).

   - Is the *discipline* sound — Eraser's candidate lockset (the
     intersection of lock sets over all accesses once the site is
     shared). An empty candidate with every access individually locked
     and no manifest race is RX502, a warning: this interleaving was
     saved by scheduling, not by mutual exclusion.

   Confined sites short-circuit both: any second domain is RX504. *)

module D = Diagnostic
module Al = Rox_util.Accesslog

(* Growable vector clock keyed by dense domain indexes. *)
module Vc = struct
  type t = int array ref

  let create () = ref (Array.make 8 0)

  let get (t : t) i = if i < Array.length !t then !t.(i) else 0

  let ensure (t : t) i =
    if i >= Array.length !t then begin
      let bigger = Array.make (max (i + 1) (2 * Array.length !t)) 0 in
      Array.blit !t 0 bigger 0 (Array.length !t);
      t := bigger
    end

  let set (t : t) i v =
    ensure t i;
    !t.(i) <- v

  let join (into : t) (from : t) =
    Array.iteri
      (fun i v -> if v > get into i then set into i v)
      !from
end

type access = {
  a_domain : int;   (* dense domain index *)
  a_clock : int;    (* the domain's own clock component at access time *)
  a_locks : int;
  a_seq : int;
  a_write : bool;
}

type site_state = {
  mutable last_write : access option;
  reads : (int, access) Hashtbl.t;  (* dense domain index -> last read *)
  mutable domains : int list;       (* distinct accessor domains (dense) *)
  mutable cand : int;               (* Eraser candidate lockset *)
  mutable all_locked : bool;        (* every access held >= 1 lock *)
  mutable owner : int;              (* Confined: first accessor, -1 = none *)
  mutable raced : bool;             (* an RX501/RX503 already reported here *)
  mutable leak_reported : bool;
}

let fresh_site () =
  {
    last_write = None;
    reads = Hashtbl.create 4;
    domains = [];
    cand = -1 (* all ones *);
    all_locked = true;
    owner = -1;
    raced = false;
    leak_reported = false;
  }

let lock_names locks =
  if locks = 0 then "no locks"
  else begin
    let names = ref [] in
    for i = Sys.int_size - 2 downto 0 do
      if locks land (1 lsl i) <> 0 then names := Al.lock_name i :: !names
    done;
    String.concat "+" !names
  end

let domain_label raw = Printf.sprintf "domain %d" raw

(* [check ~sites events] replays a recording. [sites] is the site table
   snapshot ([Accesslog.sites_snapshot]); site ids in the events index
   into it. Returns diagnostics sorted errors-first by the caller's
   Report. *)
let check ~(sites : Al.site_info array) (events : Al.event array) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* Dense domain indexing; raw domain ids are small ints but sparse. *)
  let domain_index : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let raw_of_dense = ref [||] in
  let n_domains = ref 0 in
  let dense raw =
    match Hashtbl.find_opt domain_index raw with
    | Some i -> i
    | None ->
      let i = !n_domains in
      Hashtbl.replace domain_index raw i;
      let cap = Array.length !raw_of_dense in
      if i >= cap then begin
        let bigger = Array.make (max 8 (2 * cap)) 0 in
        Array.blit !raw_of_dense 0 bigger 0 cap;
        raw_of_dense := bigger
      end;
      !raw_of_dense.(i) <- raw;
      incr n_domains;
      i
  in
  let domain_vcs : (int, Vc.t) Hashtbl.t = Hashtbl.create 8 in
  let vc_of d =
    match Hashtbl.find_opt domain_vcs d with
    | Some vc -> vc
    | None ->
      let vc = Vc.create () in
      (* Each domain starts with its own component at 1 so clock 0 never
         reads as "already happened". *)
      Vc.set vc d 1;
      Hashtbl.replace domain_vcs d vc;
      vc
  in
  let lock_vcs : (int, Vc.t) Hashtbl.t = Hashtbl.create 8 in
  let lock_vc l =
    match Hashtbl.find_opt lock_vcs l with
    | Some vc -> vc
    | None ->
      let vc = Vc.create () in
      Hashtbl.replace lock_vcs l vc;
      vc
  in
  let site_states = Hashtbl.create 16 in
  let state_of s =
    match Hashtbl.find_opt site_states s with
    | Some st -> st
    | None ->
      let st = fresh_site () in
      Hashtbl.replace site_states s st;
      st
  in
  let site_info id =
    if id >= 0 && id < Array.length sites then sites.(id)
    else { Al.s_name = Printf.sprintf "site#%d" id; s_kind = Al.Shared }
  in
  (* prior happened-before current iff prior's clock component is covered
     by the current domain's view of prior's domain. *)
  let happened_before (prior : access) (cur_vc : Vc.t) =
    prior.a_clock <= Vc.get cur_vc prior.a_domain
  in
  let report_race st site_id (prior : access) (cur : access) ~cur_write =
    if not st.raced then begin
      st.raced <- true;
      let info = site_info site_id in
      let describe (a : access) verb =
        Printf.sprintf "%s %s at event #%d holding %s"
          (domain_label !raw_of_dense.(a.a_domain))
          verb a.a_seq (lock_names a.a_locks)
      in
      let prior_verb = if prior.a_write then "wrote" else "read" in
      let cur_verb = if cur_write then "wrote" else "read" in
      let detail =
        Printf.sprintf "%s: %s races %s (no happens-before edge, no common lock)"
          info.Al.s_name (describe cur cur_verb) (describe prior prior_verb)
      in
      if info.Al.s_kind = Al.Epoch then
        add
          (D.of_code "RX503" (D.Site site_id)
             ~hint:
               "order the epoch bump against readers (lock, or quiesce \
                domains around mutations) — stale epochs mint stale \
                fingerprints"
             detail)
      else
        add
          (D.of_code "RX501" (D.Site site_id)
             ~hint:
               "guard the site with one mutex on every path, or prove \
                the ordering with Accesslog.hb_publish/hb_acquire around \
                spawn/join"
             detail)
    end
  in
  Array.iter
    (fun (e : Al.event) ->
      let d = dense e.Al.domain in
      let vc = vc_of d in
      match e.Al.op with
      | Al.Acquire -> Vc.join vc (lock_vc e.Al.site)
      | Al.Release ->
        let lvc = lock_vc e.Al.site in
        Vc.join lvc vc;
        Vc.set vc d (Vc.get vc d + 1)
      | Al.Read | Al.Write ->
        let is_write = e.Al.op = Al.Write in
        let st = state_of e.Al.site in
        let info = site_info e.Al.site in
        (* Confinement: first domain owns the site for good. *)
        if info.Al.s_kind = Al.Confined then begin
          if st.owner = -1 then st.owner <- d
          else if st.owner <> d && not st.leak_reported then begin
            st.leak_reported <- true;
            add
              (D.of_code "RX504" (D.Site e.Al.site)
                 ~hint:
                   "a session (and everything it owns: RNG, counters, \
                    trace, sink) must live and die on one domain — hand \
                    work a fresh session instead"
                 (Printf.sprintf
                    "%s: confined to %s but touched by %s at event #%d"
                    info.Al.s_name
                    (domain_label !raw_of_dense.(st.owner))
                    (domain_label e.Al.domain) e.Al.seq))
          end
        end;
        let cur =
          {
            a_domain = d;
            a_clock = Vc.get vc d;
            a_locks = e.Al.locks;
            a_seq = e.Al.seq;
            a_write = is_write;
          }
        in
        (* Eraser bookkeeping. *)
        if not (List.mem d st.domains) then st.domains <- d :: st.domains;
        st.cand <- st.cand land e.Al.locks;
        if e.Al.locks = 0 then st.all_locked <- false;
        (* Happens-before races (skip for confined sites: RX504 already
           says everything worth saying about a leaked session). *)
        if info.Al.s_kind <> Al.Confined then begin
          (match st.last_write with
           | Some lw
             when lw.a_domain <> d
                  && (not (happened_before lw vc))
                  && lw.a_locks land e.Al.locks = 0 ->
             report_race st e.Al.site lw cur ~cur_write:is_write
           | _ -> ());
          if is_write then
            Hashtbl.iter
              (fun rd (r : access) ->
                if
                  rd <> d
                  && (not (happened_before r vc))
                  && r.a_locks land e.Al.locks = 0
                then report_race st e.Al.site r cur ~cur_write:true)
              st.reads
        end;
        if is_write then begin
          st.last_write <- Some cur;
          Hashtbl.reset st.reads
        end
        else Hashtbl.replace st.reads d cur)
    events;
  (* Discipline pass: shared sites whose candidate lockset refined to
     empty even though every access was individually locked — and no
     manifest race already covers them. *)
  Hashtbl.iter
    (fun site_id st ->
      if
        List.length st.domains >= 2
        && st.cand = 0 && st.all_locked && not st.raced
        && (site_info site_id).Al.s_kind <> Al.Confined
      then
        add
          (D.of_code "RX502" (D.Site site_id)
             ~hint:
               "pick one lock for the site and take it on every access \
                path — per-path locks only exclude within a path"
             (Printf.sprintf
                "%s: accessed from %d domains, each under some lock, but \
                 no single lock covers all accesses"
                (site_info site_id).Al.s_name
                (List.length st.domains))))
    site_states;
  List.rev !diags

(* A recording summary line for racecheck output. *)
let summary ~(sites : Al.site_info array) (events : Al.event array) =
  let domains = Hashtbl.create 8 in
  let accesses = ref 0 in
  Array.iter
    (fun (e : Al.event) ->
      Hashtbl.replace domains e.Al.domain ();
      match e.Al.op with
      | Al.Read | Al.Write -> incr accesses
      | _ -> ())
    events;
  Printf.sprintf
    "%d event(s) (%d access(es)) across %d domain(s), %d site(s), %d lock(s)"
    (Array.length events) !accesses (Hashtbl.length domains)
    (Array.length sites) (Al.lock_count ())
