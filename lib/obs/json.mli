(** A minimal JSON reader and printer, just enough to validate the
    library's own exports and rewrite bench records (no dependency added
    for it).  Every JSON document the project writes is built as a {!t}
    and printed by {!to_string}; only {!Chrome_trace} prints its own, to
    keep its golden's fixed-precision timestamps.  Numbers are [float]s;
    strings must be valid JSON strings ([\uXXXX] escapes are decoded to
    UTF-8). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val int : int -> t
(** [Num] of an integer. *)

val numf : (float -> string, unit, string) format -> float -> t
(** [numf fmt x] is [x] rounded as [Printf.sprintf fmt] prints it, e.g.
    [numf "%.1f" 2.345] is [Num 2.3]: bench rows keep a fixed precision. *)

val parse : string -> (t, string) result
(** Whole-input parse; trailing garbage is an error.  The error string
    carries a byte offset. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] otherwise. *)

val escape : string -> string
(** Escape a string for embedding in a JSON document (no quotes added). *)

val to_string : t -> string
(** One-line rendering ([", "] and [": "] separators).  Numbers print in
    the shortest form that parses back to the same float; non-finite
    numbers print as [null]. *)
