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

  val create :
    name:string ->
    ?shards:int ->
    ?rebalance_every:int ->
    budget:int ->
    unit ->
    'v t

  val find : 'v t -> key -> 'v option
  val mem : 'v t -> key -> bool
  val add : 'v t -> key -> weight:int -> 'v -> unit
  val remove : 'v t -> key -> unit
  val clear : 'v t -> unit
  val stats : 'v t -> stats
  val shard_count : 'v t -> int
  val shard_of : 'v t -> key -> int
  val shard_stats : 'v t -> stats array
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

  type 'v shard = {
    (* One lock per shard: lookups and mutations serialize only against
       operations on the same shard. *)
    lock : Mutex.t;
    (* RX5xx access-log identities: every locked operation records one
       Write at [al_site] while holding [al_lock], so the race detector
       sees each shard as its own mutex-guarded shared site. Both are -1
       when the log was disarmed at construction. *)
    al_site : int;
    al_lock : int;
    table : 'v node H.t;
    mutable budget : int;
    mutable first : 'v node option;
    mutable last : 'v node option;
    mutable bytes : int;
    mutable hits : int;
    mutable misses : int;
    mutable insertions : int;
    mutable evictions : int;
    mutable rejected : int;
    mutable last_ins : int;
    waits : int Atomic.t;
  }

  type 'v t = {
    shards : 'v shard array;
    shard_shift : int;
    total_budget : int;
    rebalance_every : int;
    insert_seq : int Atomic.t;
  }

  let create ~name ?(shards = 1) ?(rebalance_every = 1024) ~budget () =
    if shards < 1 || shards land (shards - 1) <> 0 then
      invalid_arg
        (Printf.sprintf "Lru.create: shard count %d is not a power of two" shards);
    let armed = Rox_util.Accesslog.armed () in
    let log2 =
      let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
      go shards 0
    in
    let mk_shard i =
      let label = if shards = 1 then name else Printf.sprintf "%s.shard%d" name i in
      {
        lock = Mutex.create ();
        al_site =
          (if armed then Rox_util.Accesslog.site ~name:label Rox_util.Accesslog.Shared
           else -1);
        al_lock =
          (if armed then Rox_util.Accesslog.lock ~name:(label ^ ".mutex") else -1);
        table = H.create 64;
        budget = (if budget <= 0 then 0 else budget / shards);
        first = None;
        last = None;
        bytes = 0;
        hits = 0;
        misses = 0;
        insertions = 0;
        evictions = 0;
        rejected = 0;
        last_ins = 0;
        waits = Atomic.make 0;
      }
    in
    {
      shards = Array.init shards mk_shard;
      shard_shift = 30 - log2;
      total_budget = max 0 budget;
      rebalance_every;
      insert_seq = Atomic.make 0;
    }

  (* Shard by the *top* bits of the 30-bit hash: Fingerprint-backed keys
     put their 2xFNV-1a digest bits there (see Fingerprint.shard_hash),
     and the in-shard hashtable consumes the low bits, so the two uses
     draw on independent digest bits. *)
  let shard_index t k =
    let n = Array.length t.shards in
    if n = 1 then 0 else (K.hash k lsr t.shard_shift) land (n - 1)

  let shard t k = t.shards.(shard_index t k)

  let bracketed s f =
    if Rox_util.Accesslog.armed () then
      Rox_util.Accesslog.with_lock s.al_lock (fun () ->
          Rox_util.Accesslog.record ~site:s.al_site Rox_util.Accesslog.Write;
          f ())
    else f ()

  let locked s f = Mutex.protect s.lock (fun () -> bracketed s f)

  let try_locked s f =
    if not (Mutex.try_lock s.lock) then None
    else
      Fun.protect
        ~finally:(fun () -> Mutex.unlock s.lock)
        (fun () -> Some (bracketed s f))

  (* ---- recency list (all under the shard lock) ---- *)

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

  (* A busy shard lock is counted in [lock_waits] before blocking on it:
     the contention signal the sharding is sized by. *)
  let find t k =
    let s = shard t k in
    match try_locked s (fun () -> find_locked s k) with
    | Some r -> r
    | None ->
      Atomic.incr s.waits;
      locked s (fun () -> find_locked s k)

  let mem t k =
    let s = shard t k in
    locked s (fun () -> H.mem s.table k)

  let drop s n =
    unlink s n;
    H.remove s.table n.nkey;
    s.bytes <- s.bytes - n.nweight

  let evict_to_budget s =
    while s.bytes > s.budget do
      match s.first with
      | Some coldest ->
        drop s coldest;
        s.evictions <- s.evictions + 1
      | None -> assert false (* bytes > 0 implies a resident entry *)
    done

  (* Cheap budget rebalance: every [rebalance_every] insertions (across
     all shards) redistribute the byte budget proportionally to each
     shard's insertion demand since the last rebalance, with a floor of a
     quarter-share so a cold shard is never starved. One shard lock at a
     time, never nested — rebalance cannot deadlock against operations. *)
  let rebalance t =
    let n = Array.length t.shards in
    let demand = Array.make n 1 in
    Array.iteri
      (fun i s ->
        locked s (fun () ->
            demand.(i) <- 1 + s.insertions - s.last_ins;
            s.last_ins <- s.insertions))
      t.shards;
    let total_demand = Array.fold_left ( + ) 0 demand in
    let floor_b = t.total_budget / (4 * n) in
    let spread = t.total_budget - (n * floor_b) in
    Array.iteri
      (fun i s ->
        let b = floor_b + (spread * demand.(i) / total_demand) in
        locked s (fun () ->
            s.budget <- b;
            evict_to_budget s))
      t.shards

  let maybe_rebalance t =
    if t.rebalance_every > 0 && Array.length t.shards > 1 && t.total_budget > 0
    then begin
      let tick = Atomic.fetch_and_add t.insert_seq 1 + 1 in
      if tick mod t.rebalance_every = 0 then rebalance t
    end

  let add t k ~weight v =
    if weight < 0 then
      invalid_arg (Printf.sprintf "Lru.add: negative weight %d" weight);
    let s = shard t k in
    locked s (fun () ->
        if s.budget <= 0 || weight > s.budget then begin
          (* Too large to ever fit this shard: admitting it would just
             flush the shard. *)
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
             let n =
               {
                 nkey = k;
                 nvalue = v;
                 nweight = weight;
                 prev = None;
                 next = None;
               }
             in
             H.replace s.table k n;
             push_hottest s n;
             s.bytes <- s.bytes + weight);
          s.insertions <- s.insertions + 1;
          evict_to_budget s
        end);
    maybe_rebalance t

  let remove t k =
    let s = shard t k in
    locked s (fun () ->
        match H.find_opt s.table k with Some n -> drop s n | None -> ())

  let clear t =
    Array.iter
      (fun s ->
        locked s (fun () ->
            H.reset s.table;
            s.first <- None;
            s.last <- None;
            s.bytes <- 0))
      t.shards

  let shard_stat s =
    locked s (fun () ->
        {
          hits = s.hits;
          misses = s.misses;
          insertions = s.insertions;
          evictions = s.evictions;
          rejected = s.rejected;
          entries = H.length s.table;
          bytes = s.bytes;
          budget = s.budget;
          lock_waits = Atomic.get s.waits;
          fast_hits = 0;
        })

  (* Aggregation takes each shard lock in turn, never all at once: the
     result is a sum of per-shard snapshots, not one global atomic
     snapshot — fine for the monotonic counters it reports. *)
  let stats t =
    let acc =
      Array.fold_left
        (fun (a : stats) s ->
          let x = shard_stat s in
          {
            hits = a.hits + x.hits;
            misses = a.misses + x.misses;
            insertions = a.insertions + x.insertions;
            evictions = a.evictions + x.evictions;
            rejected = a.rejected + x.rejected;
            entries = a.entries + x.entries;
            bytes = a.bytes + x.bytes;
            budget = a.budget;
            lock_waits = a.lock_waits + x.lock_waits;
            fast_hits = 0;
          })
        {
          hits = 0;
          misses = 0;
          insertions = 0;
          evictions = 0;
          rejected = 0;
          entries = 0;
          bytes = 0;
          budget = t.total_budget;
          lock_waits = 0;
          fast_hits = 0;
        }
        t.shards
    in
    acc

  let shard_count t = Array.length t.shards
  let shard_of = shard_index
  let shard_stats t = Array.map shard_stat t.shards

  let iter_coldest_first t f =
    Array.iter
      (fun s ->
        locked s (fun () ->
            let rec go = function
              | None -> ()
              | Some n ->
                let next = n.next in
                f n.nkey n.nvalue;
                go next
            in
            go s.first))
      t.shards
end
