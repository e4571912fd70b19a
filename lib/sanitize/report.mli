(** Structured sanitizer findings and the [.san] text format.

    A report is the output of one monitored execution: data races (by
    vector clock, with an Eraser-style lockset fallback), predicted
    lock-order cycles, and locks still held at thread exit.  The [.san]
    serialization is an {!Obs.Line_codec} file like [.sched] and [.fault],
    so findings can be committed as golden files. *)

type access = {
  ac_write : bool;
  ac_tid : int;
  ac_tname : string;
  ac_time : int;  (** virtual ns of the access *)
  ac_held : string list;  (** names of locks held, innermost first *)
}

type race_kind =
  | Race_vc  (** the two accesses are concurrent by vector clock *)
  | Race_lockset
      (** no common lock protects the variable, even though this
          schedule happened to order the accesses *)

type race = {
  rc_key : string;  (** footprint key, e.g. ["user:1"] *)
  rc_kind : race_kind;
  rc_first : access;
  rc_second : access;
}

(** One acquisition edge of the lock-order graph: while holding [e_src]
    the thread acquired [e_dst]. *)
type edge = {
  e_src : string;
  e_src_name : string;
  e_src_excl : bool;
  e_dst : string;
  e_dst_name : string;
  e_dst_excl : bool;
  e_tid : int;
  e_tname : string;
  e_time : int;
  e_held : string list;  (** full held chain at the acquisition *)
}

type cycle = edge list

type leak = {
  lk_key : string;
  lk_name : string;
  lk_tid : int;
  lk_tname : string;
  lk_time : int;
}

type t = { races : race list; cycles : cycle list; leaks : leak list }

val empty : t
val is_clean : t -> bool
val count : t -> int
val summary : t -> string
(** One line: ["clean"] or finding counts. *)

val header : string
(** First line of every [.san] file. *)

val to_string : t -> string
val of_string : string -> (t, string) result
val to_file : string -> t -> unit
val of_file : string -> (t, string) result

val pp : Format.formatter -> t -> unit
