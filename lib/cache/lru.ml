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

  val create : budget:int -> unit -> 'v t
  val find : 'v t -> key -> 'v option
  val mem : 'v t -> key -> bool
  val add : 'v t -> key -> weight:int -> 'v -> unit
  val remove : 'v t -> key -> unit
  val clear : 'v t -> unit
  val stats : 'v t -> stats
  val iter_coldest_first : 'v t -> (key -> 'v -> unit) -> unit
end

module Guarded = Rox_util.Guarded

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

  (* Everything a lookup or a mutation touches. It lives in one
     [Guarded.t], so it is reachable only under the cache's lock. *)
  type 'v state = {
    table : 'v node H.t;
    mutable first : 'v node option;
    mutable last : 'v node option;
    mutable bytes : int;
    mutable hits : int;
    mutable misses : int;
    mutable insertions : int;
    mutable evictions : int;
    mutable rejected : int;
  }

  type 'v t = {
    budget : int;
    state : 'v state Guarded.t;
    (* Outside the lock, so a lookup can count a busy lock before it
       blocks on it. *)
    waits : int Atomic.t;
  }

  let create ~budget () =
    {
      budget = max 0 budget;
      state =
        Guarded.create
          {
            table = H.create 64;
            first = None;
            last = None;
            bytes = 0;
            hits = 0;
            misses = 0;
            insertions = 0;
            evictions = 0;
            rejected = 0;
          };
      waits = Atomic.make 0;
    }

  (* ---- recency list ---- *)

  let unlink s n =
    (match n.prev with Some p -> p.next <- n.next | None -> s.first <- n.next);
    (match n.next with Some x -> x.prev <- n.prev | None -> s.last <- n.prev);
    n.prev <- None;
    n.next <- None

  let push_hottest s n =
    n.prev <- s.last;
    n.next <- None;
    (match s.last with Some l -> l.next <- Some n | None -> s.first <- Some n);
    s.last <- Some n

  let is_hottest s n = match s.last with Some l -> l == n | None -> false

  let touch s n =
    if not (is_hottest s n) then begin
      unlink s n;
      push_hottest s n
    end

  (* ---- core ops ---- *)

  let find_locked s k =
    match H.find_opt s.table k with
    | Some n ->
      s.hits <- s.hits + 1;
      touch s n;
      Some n.nvalue
    | None ->
      s.misses <- s.misses + 1;
      None

  (* A busy lock is counted in [lock_waits] before blocking on it: the
     cache's contention signal. *)
  let find t k =
    match Guarded.try_with_lock t.state (fun s -> find_locked s k) with
    | Some r -> r
    | None ->
      Atomic.incr t.waits;
      Guarded.with_lock t.state (fun s -> find_locked s k)

  let mem t k = Guarded.with_lock t.state (fun s -> H.mem s.table k)

  let drop s n =
    unlink s n;
    H.remove s.table n.nkey;
    s.bytes <- s.bytes - n.nweight

  let evict_to_budget t s =
    while s.bytes > t.budget do
      match s.first with
      | Some coldest ->
        drop s coldest;
        s.evictions <- s.evictions + 1
      | None -> assert false (* bytes > 0 implies a resident entry *)
    done

  let add t k ~weight v =
    if weight < 0 then
      invalid_arg (Printf.sprintf "Lru.add: negative weight %d" weight);
    Guarded.with_lock t.state (fun s ->
        if t.budget <= 0 || weight > t.budget then begin
          (* Too large to ever fit: admitting it would just flush the
             cache. *)
          (match H.find_opt s.table k with Some n -> drop s n | None -> ());
          s.rejected <- s.rejected + 1
        end
        else begin
          (match H.find_opt s.table k with
           | Some n ->
             s.bytes <- s.bytes - n.nweight + weight;
             n.nvalue <- v;
             n.nweight <- weight;
             touch s n
           | None ->
             let n = { nkey = k; nvalue = v; nweight = weight; prev = None; next = None } in
             H.replace s.table k n;
             push_hottest s n;
             s.bytes <- s.bytes + weight);
          s.insertions <- s.insertions + 1;
          evict_to_budget t s
        end)

  let remove t k =
    Guarded.with_lock t.state (fun s ->
        match H.find_opt s.table k with Some n -> drop s n | None -> ())

  let clear t =
    Guarded.with_lock t.state (fun s ->
        H.reset s.table;
        s.first <- None;
        s.last <- None;
        s.bytes <- 0)

  let stats t =
    Guarded.with_lock t.state (fun s ->
        {
          hits = s.hits;
          misses = s.misses;
          insertions = s.insertions;
          evictions = s.evictions;
          rejected = s.rejected;
          entries = H.length s.table;
          bytes = s.bytes;
          budget = t.budget;
          lock_waits = Atomic.get t.waits;
          fast_hits = 0;
        })

  let iter_coldest_first t f =
    Guarded.with_lock t.state (fun s ->
        let rec go = function
          | None -> ()
          | Some n ->
            let next = n.next in
            f n.nkey n.nvalue;
            go next
        in
        go s.first)
end
