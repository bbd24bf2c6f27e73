(* The twin of guarded_leak.ml that compiles: the same read inside
   with_lock. It proves the compile-fail rule's include path is sound. *)

let counter : int ref Rox_util.Guarded.t = Rox_util.Guarded.create (ref 0)

let locked_read () = Rox_util.Guarded.with_lock counter ( ! )
