(** Per-mutex contention profile reconstructed from a trace.

    An acquisition is the interval from [Mutex_lock] to the same thread's
    next [Mutex_unlock] of that mutex (hold time); it is {e contended}
    when the locking thread had a [Mutex_block] on the mutex since its
    previous acquisition, and the block-to-lock interval is its wait
    time.  Intervals still open when the trace ends are closed at the
    last event's timestamp, the same rule {!Vm.Trace_stats} applies, so
    [total_wait_ns] equals the sum of that module's [mutex_blocked_ns]
    over all threads. *)

type report = {
  c_name : string;  (** the mutex's trace name *)
  acquisitions : int;
  contended : int;  (** acquisitions that had to block first *)
  hold : Histogram.t;  (** lock-to-unlock, nanoseconds *)
  wait : Histogram.t;  (** block-to-lock, nanoseconds *)
}

val of_events : Vm.Trace.event list -> report list
(** One report per mutex name appearing in the trace, sorted by total
    wait time, worst first. *)

val total_wait_ns : report list -> int
(** Sum of every report's wait-histogram total. *)

val top_offenders : ?limit:int -> report list -> report list
(** The [limit] (default 3) mutexes with the highest total wait. *)

val pp : Format.formatter -> report list -> unit
(** Human-readable table: one line per mutex plus the wait histogram of
    the worst offender. *)

val to_json : report list -> Json.t
(** A JSON array, one object per mutex:
    [{"name", "acquisitions", "contended", "hold", "wait"}] with the
    histograms encoded by {!Histogram.to_json}. *)
