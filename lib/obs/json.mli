(** A minimal JSON reader and printer, just enough to validate the
    library's own exports and rewrite bench records (no dependency added
    for it).  Numbers are [float]s; strings must be valid JSON strings
    ([\uXXXX] escapes are decoded to UTF-8). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

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
