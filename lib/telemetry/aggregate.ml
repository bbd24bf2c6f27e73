type t = {
  metrics : Metrics.t;
  mutex : Mutex.t;
  (* RX5xx access-log identities (-1 when the log was disarmed at
     creation): every merge in or out records one Write at [al_site]
     under [al_lock], so the race detector sees the aggregate as a
     mutex-guarded shared site. *)
  al_site : int;
  al_lock : int;
}

let create () =
  let armed = Rox_util.Accesslog.armed () in
  {
    metrics = Metrics.create ();
    mutex = Mutex.create ();
    al_site =
      (if armed then
         Rox_util.Accesslog.site ~name:"telemetry.aggregate" Rox_util.Accesslog.Shared
       else -1);
    al_lock =
      (if armed then Rox_util.Accesslog.lock ~name:"telemetry.aggregate.mutex" else -1);
  }

let locked t f =
  Mutex.protect t.mutex (fun () ->
      if Rox_util.Accesslog.armed () then
        Rox_util.Accesslog.with_lock t.al_lock (fun () ->
            Rox_util.Accesslog.record ~site:t.al_site Rox_util.Accesslog.Write;
            f ())
      else f ())

let absorb t m =
  locked t (fun () ->
      Metrics.add_into ~into:t.metrics m;
      Metrics.incr t.metrics.Metrics.aggregate_merges)

let with_metrics t f =
  (* Copy under the lock, run [f] outside it: the snapshot is the
     reader's to keep, and writes to it do not reach the aggregate. *)
  let snap = Metrics.create () in
  locked t (fun () -> Metrics.add_into ~into:snap t.metrics);
  f snap
