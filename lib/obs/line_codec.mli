(** The versioned line format shared by the [.sched], [.fault] and [.san]
    artifacts.

    A file is a header line naming the format and its version, then one
    record per line.  Blank lines and [#] comment lines are skipped, so
    golden files can carry provenance notes; before the header only blank
    lines may appear.  A record is the list of its space-separated
    tokens.  Each format supplies only the grammar of its records. *)

val render : header:string -> string list -> string
(** The header and then each line, every one ended by a newline. *)

val parse :
  what:string ->
  header:string ->
  (string list list -> 'a) ->
  string ->
  ('a, string) result
(** [parse ~what ~header grammar text] checks that the first non-blank
    line of [text] is [header] and hands the token lists of the records
    after it to [grammar].  Errors: ["empty <what>"],
    ["unrecognized <what> header: <line>"], or the message of a {!fail}
    raised inside [grammar]. *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Reject the input from inside a grammar: {!parse} returns the
    formatted message as its error. *)

val int : string -> string -> int
(** [int what tok] is the decimal integer [tok]; otherwise fails with
    ["bad <what>: <tok>"]. *)

val at : string -> string -> int
(** [at what tok] is [N] for a token [@N]; otherwise fails with
    ["bad <what>: <tok>"]. *)
