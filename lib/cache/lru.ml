type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  rejected : int;
  entries : int;
  bytes : int;
  budget : int;
  lock_waits : int;
  fast_hits : int;
}

let stats_to_string s =
  let lookups = s.hits + s.misses in
  let rate = if lookups = 0 then 0.0 else float_of_int s.hits /. float_of_int lookups in
  Printf.sprintf
    "hits %d / %d lookups (%.1f%%), %d insertions, %d evictions, %d rejected, \
     %d entries, %d / %d bytes, %d lock waits"
    s.hits lookups (100.0 *. rate) s.insertions s.evictions s.rejected s.entries
    s.bytes s.budget s.lock_waits

module type S = sig
  type key
  type 'v t

  val create : name:string -> budget:int -> unit -> 'v t
  val find : 'v t -> key -> 'v option
  val mem : 'v t -> key -> bool
  val add : 'v t -> key -> weight:int -> 'v -> unit
  val remove : 'v t -> key -> unit
  val clear : 'v t -> unit
  val stats : 'v t -> stats
  val iter_coldest_first : 'v t -> (key -> 'v -> unit) -> unit
end

module Make (K : Hashtbl.HashedType) : S with type key = K.t = struct
  type key = K.t

  module H = Hashtbl.Make (K)

  (* Doubly-linked recency list: [first] is coldest (next eviction victim),
     [last] is hottest. *)
  type 'v node = {
    nkey : key;
    mutable nvalue : 'v;
    mutable nweight : int;
    mutable prev : 'v node option;
    mutable next : 'v node option;
  }

  type 'v t = {
    (* One lock for the whole cache: every lookup and mutation runs
       under it. *)
    lock : Mutex.t;
    (* RX5xx access-log identities: every locked operation records one
       Write at [al_site] while holding [al_lock], so the race detector
       sees the cache as a mutex-guarded shared site. Both are -1 when
       the log was disarmed at construction. *)
    al_site : int;
    al_lock : int;
    table : 'v node H.t;
    budget : int;
    mutable first : 'v node option;
    mutable last : 'v node option;
    mutable bytes : int;
    mutable hits : int;
    mutable misses : int;
    mutable insertions : int;
    mutable evictions : int;
    mutable rejected : int;
    waits : int Atomic.t;
  }

  let create ~name ~budget () =
    let armed = Rox_util.Accesslog.armed () in
    {
      lock = Mutex.create ();
      al_site =
        (if armed then Rox_util.Accesslog.site ~name Rox_util.Accesslog.Shared
         else -1);
      al_lock = (if armed then Rox_util.Accesslog.lock ~name:(name ^ ".mutex") else -1);
      table = H.create 64;
      budget = max 0 budget;
      first = None;
      last = None;
      bytes = 0;
      hits = 0;
      misses = 0;
      insertions = 0;
      evictions = 0;
      rejected = 0;
      waits = Atomic.make 0;
    }

  let bracketed t f =
    if Rox_util.Accesslog.armed () then
      Rox_util.Accesslog.with_lock t.al_lock (fun () ->
          Rox_util.Accesslog.record ~site:t.al_site Rox_util.Accesslog.Write;
          f ())
    else f ()

  let locked t f = Mutex.protect t.lock (fun () -> bracketed t f)

  let try_locked t f =
    if not (Mutex.try_lock t.lock) then None
    else
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.lock)
        (fun () -> Some (bracketed t f))

  (* ---- recency list (all under the lock) ---- *)

  let unlink t n =
    (match n.prev with Some p -> p.next <- n.next | None -> t.first <- n.next);
    (match n.next with Some x -> x.prev <- n.prev | None -> t.last <- n.prev);
    n.prev <- None;
    n.next <- None

  let push_hottest t n =
    n.prev <- t.last;
    n.next <- None;
    (match t.last with Some l -> l.next <- Some n | None -> t.first <- Some n);
    t.last <- Some n

  let is_hottest t n = match t.last with Some l -> l == n | None -> false

  let touch t n =
    if not (is_hottest t n) then begin
      unlink t n;
      push_hottest t n
    end

  (* ---- core ops ---- *)

  let find_locked t k =
    match H.find_opt t.table k with
    | Some n ->
      t.hits <- t.hits + 1;
      touch t n;
      Some n.nvalue
    | None ->
      t.misses <- t.misses + 1;
      None

  (* A busy lock is counted in [lock_waits] before blocking on it: the
     cache's contention signal. *)
  let find t k =
    match try_locked t (fun () -> find_locked t k) with
    | Some r -> r
    | None ->
      Atomic.incr t.waits;
      locked t (fun () -> find_locked t k)

  let mem t k = locked t (fun () -> H.mem t.table k)

  let drop t n =
    unlink t n;
    H.remove t.table n.nkey;
    t.bytes <- t.bytes - n.nweight

  let evict_to_budget t =
    while t.bytes > t.budget do
      match t.first with
      | Some coldest ->
        drop t coldest;
        t.evictions <- t.evictions + 1
      | None -> assert false (* bytes > 0 implies a resident entry *)
    done

  let add t k ~weight v =
    if weight < 0 then
      invalid_arg (Printf.sprintf "Lru.add: negative weight %d" weight);
    locked t (fun () ->
        if t.budget <= 0 || weight > t.budget then begin
          (* Too large to ever fit: admitting it would just flush the
             cache. *)
          (match H.find_opt t.table k with Some n -> drop t n | None -> ());
          t.rejected <- t.rejected + 1
        end
        else begin
          (match H.find_opt t.table k with
           | Some n ->
             t.bytes <- t.bytes - n.nweight + weight;
             n.nvalue <- v;
             n.nweight <- weight;
             touch t n
           | None ->
             let n = { nkey = k; nvalue = v; nweight = weight; prev = None; next = None } in
             H.replace t.table k n;
             push_hottest t n;
             t.bytes <- t.bytes + weight);
          t.insertions <- t.insertions + 1;
          evict_to_budget t
        end)

  let remove t k =
    locked t (fun () ->
        match H.find_opt t.table k with Some n -> drop t n | None -> ())

  let clear t =
    locked t (fun () ->
        H.reset t.table;
        t.first <- None;
        t.last <- None;
        t.bytes <- 0)

  let stats t =
    locked t (fun () ->
        {
          hits = t.hits;
          misses = t.misses;
          insertions = t.insertions;
          evictions = t.evictions;
          rejected = t.rejected;
          entries = H.length t.table;
          bytes = t.bytes;
          budget = t.budget;
          lock_waits = Atomic.get t.waits;
          fast_hits = 0;
        })

  let iter_coldest_first t f =
    locked t (fun () ->
        let rec go = function
          | None -> ()
          | Some n ->
            let next = n.next in
            f n.nkey n.nvalue;
            go next
        in
        go t.first)
end
