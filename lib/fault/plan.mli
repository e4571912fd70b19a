(** Declarative fault schedules.

    A plan is a list of [(point, action)] injections: at the [point]-th
    fault point of a run — the engine fires one at every checkpoint and
    kernel exit, the same places the schedule explorer makes decisions —
    the injector applies the action.  Because both the simulation and the
    point numbering are deterministic, a plan identifies a perturbed run
    exactly and can be serialized to a [.fault] file, shrunk, and replayed.

    Thread-valued parameters are indices into the live threads in creation
    order (taken modulo their count at application time), not raw tids:
    this keeps random plans meaningful across programs of any shape and
    keeps shrinking stable. *)

type action =
  | Spurious_wakeup of int
      (** wake the n-th thread (mod the number of such threads) currently
          blocked on a condition variable, exactly as a handler run would —
          a correct predicate loop absorbs it *)
  | Preempt  (** force a context switch, perverted-policy style *)
  | Trap_fault of string * Pthreads.Errno.t
      (** arm the next simulated kernel call with this trap name to fail
          with the given errno (e.g. [("read", EINTR)]) *)
  | Signal_burst of { signo : int; count : int; thread : int option }
      (** post [count] copies of [signo]: [None] at the process level
          (through the simulated UNIX kernel), [Some n] directed at the
          n-th live thread *)
  | Cancel of int  (** request cancellation of the n-th live thread *)
  | Clock_jump of int
      (** advance the virtual clock by this many ns without running
          anybody (NTP step / suspend-resume) *)

type injection = { at : int;  (** fault-point index *) act : action }
type t = injection list
(** Sorted by [at]; several injections may share a point and apply in
    list order. *)

val length : t -> int
val equal : t -> t -> bool

(** {1 Random generation} *)

(** Which action kinds a generated plan may draw from. *)
type kinds = {
  spurious : bool;
  preempt : bool;
  trap_faults : bool;
  bursts : bool;
  cancels : bool;
  jumps : bool;
}

val no_kinds : kinds

val all_kinds : kinds

val safe_kinds : kinds
(** Everything except [cancels]: cancellation legitimately kills programs
    that are not written to be cancellation-safe, so soaking a generic
    scenario with it reports true — but uninteresting — failures. *)

val random : seed:int -> points:int -> budget:int -> kinds -> t
(** [random ~seed ~points ~budget kinds] draws up to [budget] injections
    at uniformly chosen points in [0, points).  Deterministic in [seed]
    (via [Vm.Rng]).  Empty when [kinds] enables nothing or either bound is
    non-positive. *)

(** {1 Serialization — the [.fault] golden-file format} *)

val to_string : t -> string
(** Versioned text form ({!Obs.Line_codec}), one injection per line:
    {v
# pthreads-fault plan v1
@3 spurious-wakeup 0
@7 trap-fault read EINTR
@9 signal-burst 30 2 proc
@11 signal-burst 30 2 thread 1
@12 cancel 1
@14 clock-jump 1000000
    v} *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}; tolerates blank and [#]-comment lines. *)

val pp : Format.formatter -> t -> unit
