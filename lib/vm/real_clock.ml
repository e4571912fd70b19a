external monotonic_ns : unit -> int = "pthreads_vm_monotonic_ns" [@@noalloc]

(* Anchor at process start so readings count from zero-ish, like a fresh
   virtual Clock.t. *)
let origin = monotonic_ns ()

let now_ns () = monotonic_ns () - origin
let now_s () = float_of_int (now_ns ()) /. 1e9

let nap () = Unix.sleepf 1e-6
