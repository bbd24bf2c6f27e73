type 'a t = { mutex : Mutex.t; payload : 'a }

let create payload = { mutex = Mutex.create (); payload }

let with_lock t f = Mutex.protect t.mutex (fun () -> f t.payload)

let try_with_lock t f =
  if Mutex.try_lock t.mutex then
    Some
      (Fun.protect
         ~finally:(fun () -> Mutex.unlock t.mutex)
         (fun () -> f t.payload))
  else None

let wait t c = Condition.wait c t.mutex
