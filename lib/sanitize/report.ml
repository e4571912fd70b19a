(* Structured sanitizer findings and their [.san] text serialization.

   Like [.sched] (Check.Schedule) and [.fault] (Fault.Plan), the format is
   an Obs.Line_codec file: line-oriented, versioned by a header, and
   round-trips through [of_string]/[to_string] so findings can be
   committed as golden files and diffed by humans.  All names are
   tokenized (no whitespace) so each line splits positionally. *)

let header = "# pthreads-sanitize report v1"

type access = {
  ac_write : bool;
  ac_tid : int;
  ac_tname : string;
  ac_time : int;  (** virtual ns *)
  ac_held : string list;  (** names of locks held, innermost first *)
}

type race_kind =
  | Race_vc  (** the two accesses are concurrent by vector clock *)
  | Race_lockset
      (** Eraser fallback: no common lock protects the variable, even
          though this schedule happened to order the accesses *)

type race = {
  rc_key : string;  (** footprint key, e.g. ["user:1"] *)
  rc_kind : race_kind;
  rc_first : access;
  rc_second : access;
}

type edge = {
  e_src : string;
  e_src_name : string;
  e_src_excl : bool;  (** mode in which [e_src] was held *)
  e_dst : string;
  e_dst_name : string;
  e_dst_excl : bool;  (** mode in which [e_dst] was acquired *)
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

let empty = { races = []; cycles = []; leaks = [] }

let is_clean r = r.races = [] && r.cycles = [] && r.leaks = []

let count r = List.length r.races + List.length r.cycles + List.length r.leaks

let summary r =
  if is_clean r then "clean"
  else
    Printf.sprintf "%d race(s), %d lock-order cycle(s), %d leak(s)"
      (List.length r.races) (List.length r.cycles) (List.length r.leaks)

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

(* Names become single tokens: anything that would break the positional
   split or the line structure is folded to '_'. *)
let tok s =
  String.map
    (fun c ->
      match c with ' ' | '\t' | '\n' | '\r' | '{' | '}' | ',' -> '_' | c -> c)
    (if s = "" then "_" else s)

let held_to_string held = "{" ^ String.concat "," (List.map tok held) ^ "}"

let held_of_string s =
  let n = String.length s in
  if n < 2 || s.[0] <> '{' || s.[n - 1] <> '}' then None
  else
    let body = String.sub s 1 (n - 2) in
    if body = "" then Some []
    else Some (String.split_on_char ',' body)

let rw_to_string w = if w then "write" else "read"
let mode_to_string e = if e then "excl" else "shared"

let access_to_string a =
  Printf.sprintf "%s %d %s @%d %s" (rw_to_string a.ac_write) a.ac_tid
    (tok a.ac_tname) a.ac_time (held_to_string a.ac_held)

let race_to_string r =
  let kind = match r.rc_kind with Race_vc -> "vc" | Race_lockset -> "lockset" in
  Printf.sprintf "race %s %s %s %s" r.rc_key kind
    (access_to_string r.rc_first)
    (access_to_string r.rc_second)

let edge_to_string e =
  Printf.sprintf "edge %s %s %s -> %s %s %s by %d %s @%d %s" e.e_src
    (tok e.e_src_name) (mode_to_string e.e_src_excl) e.e_dst (tok e.e_dst_name)
    (mode_to_string e.e_dst_excl) e.e_tid (tok e.e_tname) e.e_time
    (held_to_string e.e_held)

let leak_to_string l =
  Printf.sprintf "leak %s %s %d %s @%d" l.lk_key (tok l.lk_name) l.lk_tid
    (tok l.lk_tname) l.lk_time

let to_string r =
  Obs.Line_codec.render ~header
    (List.map race_to_string r.races
    @ List.concat_map
        (fun cy ->
          Printf.sprintf "cycle %d" (List.length cy)
          :: List.map edge_to_string cy)
        r.cycles
    @ List.map leak_to_string r.leaks)

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let fail = Obs.Line_codec.fail
let int_tok = Obs.Line_codec.int
let time_tok = Obs.Line_codec.at "time"

let held_tok s =
  match held_of_string s with Some h -> h | None -> fail "bad held set: %s" s

let rw_tok = function
  | "read" -> false
  | "write" -> true
  | s -> fail "bad access kind: %s" s

let mode_tok = function
  | "excl" -> true
  | "shared" -> false
  | s -> fail "bad lock mode: %s" s

let access_of_tokens = function
  | [ rw; tid; tname; time; held ] ->
      {
        ac_write = rw_tok rw;
        ac_tid = int_tok "tid" tid;
        ac_tname = tname;
        ac_time = time_tok time;
        ac_held = held_tok held;
      }
  | toks -> fail "bad access: %s" (String.concat " " toks)

let edge_of_tokens = function
  | [
   "edge"; src; sname; smode; "->"; dst; dname; dmode; "by"; tid; tname; time;
   held;
  ] ->
      {
        e_src = src;
        e_src_name = sname;
        e_src_excl = mode_tok smode;
        e_dst = dst;
        e_dst_name = dname;
        e_dst_excl = mode_tok dmode;
        e_tid = int_tok "tid" tid;
        e_tname = tname;
        e_time = time_tok time;
        e_held = held_tok held;
      }
  | toks -> fail "bad edge line: %s" (String.concat " " toks)

let rec records r = function
  | [] ->
      {
        races = List.rev r.races;
        cycles = List.rev r.cycles;
        leaks = List.rev r.leaks;
      }
  | ("race" :: key :: kind :: toks as line) :: rest ->
      let kind =
        match kind with
        | "vc" -> Race_vc
        | "lockset" -> Race_lockset
        | k -> fail "bad race kind: %s" k
      in
      let first, second =
        match toks with
        | [ a1; a2; a3; a4; a5; b1; b2; b3; b4; b5 ] ->
            ( access_of_tokens [ a1; a2; a3; a4; a5 ],
              access_of_tokens [ b1; b2; b3; b4; b5 ] )
        | _ -> fail "bad race line: %s" (String.concat " " line)
      in
      let race =
        { rc_key = key; rc_kind = kind; rc_first = first; rc_second = second }
      in
      records { r with races = race :: r.races } rest
  | [ "cycle"; n ] :: rest ->
      let rec take n acc = function
        | rest when n = 0 -> (List.rev acc, rest)
        | [] -> fail "truncated cycle"
        | l :: rest -> take (n - 1) (edge_of_tokens l :: acc) rest
      in
      let edges, rest = take (int_tok "cycle length" n) [] rest in
      records { r with cycles = edges :: r.cycles } rest
  | [ "leak"; key; name; tid; tname; time ] :: rest ->
      let leak =
        {
          lk_key = key;
          lk_name = name;
          lk_tid = int_tok "tid" tid;
          lk_tname = tname;
          lk_time = time_tok time;
        }
      in
      records { r with leaks = leak :: r.leaks } rest
  | line :: _ -> fail "unrecognized line: %s" (String.concat " " line)

let of_string =
  Obs.Line_codec.parse ~what:"sanitizer report" ~header (records empty)

let to_file file r =
  Out_channel.with_open_bin file (fun oc -> output_string oc (to_string r))

let of_file file =
  of_string (In_channel.with_open_bin file In_channel.input_all)

let pp_access ppf a =
  Format.fprintf ppf "%s by %s (tid %d) at %dns holding %s"
    (rw_to_string a.ac_write) a.ac_tname a.ac_tid a.ac_time
    (held_to_string a.ac_held)

let pp ppf r =
  if is_clean r then Format.fprintf ppf "sanitizer: clean"
  else begin
    Format.fprintf ppf "@[<v>sanitizer: %s" (summary r);
    List.iter
      (fun rc ->
        Format.fprintf ppf "@ race on %s (%s):@   %a@   %a" rc.rc_key
          (match rc.rc_kind with Race_vc -> "vector clock" | Race_lockset -> "lockset")
          pp_access rc.rc_first pp_access rc.rc_second)
      r.races;
    List.iter
      (fun cy ->
        Format.fprintf ppf "@ lock-order cycle (%d edges):" (List.length cy);
        List.iter
          (fun e ->
            Format.fprintf ppf "@   %s(%s) -> %s(%s) by %s holding %s" e.e_src
              e.e_src_name e.e_dst e.e_dst_name e.e_tname
              (held_to_string e.e_held))
          cy)
      r.cycles;
    List.iter
      (fun l ->
        Format.fprintf ppf "@ leak: %s(%s) still held by %s (tid %d) at exit"
          l.lk_key l.lk_name l.lk_tname l.lk_tid)
      r.leaks;
    Format.fprintf ppf "@]"
  end
