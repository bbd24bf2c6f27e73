(* Must not compile: a Guarded.t payload read outside with_lock. The
   runtest rule in this directory requires the type error. *)

let counter : int ref Rox_util.Guarded.t = Rox_util.Guarded.create (ref 0)

let unlocked_read () = !counter
