(** Host monotonic time ([CLOCK_MONOTONIC]), in the units the rest of the
    system uses.

    The only module outside {!Real_kernel} that should touch host time:
    everything else reads the {!Clock} of its kernel (virtual backends) or
    lets {!Real_kernel} synchronize that clock from here (Unix backend).
    Bench harnesses use it for wall-clock budgets. *)

val now_ns : unit -> int
(** Nanoseconds since a fixed origin (process start), from the host's
    monotonic clock: never decreases, whatever happens to the wall clock.
    Allocates nothing. *)

val now_s : unit -> float
(** Seconds, same origin — for wall-clock budgets and rate reports. *)

val nap : unit -> unit
(** Yield the host CPU for the shortest interval the OS grants (a
    microsecond-scale sleep).  Spin-wait backoff for multi-domain code:
    on an oversubscribed host a pure spin burns the whole quantum the
    lock holder needs to make progress.  Kept here so nothing outside
    [lib/vm] touches [Unix]. *)
