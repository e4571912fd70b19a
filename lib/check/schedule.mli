(** A serializable schedule: the complete decision list of one explored
    run.

    Decision [i] is the tid the dispatcher was told to run at the [i]th
    scheduling point.  Because the whole simulation is deterministic, the
    decision list pins down the run exactly: {!Replay} re-executes it and
    reproduces the same trace, failure included.  The text format is an
    {!Obs.Line_codec} file: a versioned header line followed by
    space-separated tids ([#] lines are comments), so counterexamples can
    live in the repository as golden files. *)

type t = int array

val of_list : int list -> t
val to_list : t -> int list
val length : t -> int
val equal : t -> t -> bool

val to_string : t -> string
(** Render in the golden-file text format (header + decision list). *)

val of_string : string -> (t, string) result
(** Parse the text format; tolerates blank and [#]-comment lines. *)

val pp : Format.formatter -> t -> unit
