(** Thread control blocks: construction and small helpers. *)

open Types

val make :
  tid:int ->
  name:string ->
  prio:int ->
  detached:bool ->
  body:(unit -> int) ->
  deferred:bool ->
  tcb
(** A fresh TCB in [Ready] state (or [Blocked On_start] when [deferred],
    the paper's lazy-creation extension). *)

val fold_owned : tcb -> ('a -> mutex -> 'a) -> 'a -> 'a
(** Fold over the mutexes the thread holds, newest first (the intrusive
    [owned]/[m_owned_next] list), allocating nothing. *)

val owned_list : tcb -> mutex list
(** The held mutexes as a list, newest first. *)

val is_blocked : tcb -> bool
val is_live : tcb -> bool
(** Not terminated. *)

val pp : Format.formatter -> tcb -> unit

(** Waiter queues (mutex, condition variable, join) are {!Wait_queue}
    structures ordered by descending effective priority, FIFO within a
    level — the order mutex and condition wakeups must honor ("the waiting
    thread with the highest priority will acquire the mutex"). *)
