let render ~header lines = String.concat "\n" (header :: lines) ^ "\n"

exception Bad of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let record line =
  match String.trim line with
  | "" -> None
  | l when l.[0] = '#' -> None
  | l -> Some (List.filter (( <> ) "") (String.split_on_char ' ' l))

let parse ~what ~header grammar text =
  let rec body = function
    | [] -> Error ("empty " ^ what)
    | l :: rest -> (
        match String.trim l with
        | "" -> body rest
        | l when l = header -> Ok (List.filter_map record rest)
        | l -> Error (Printf.sprintf "unrecognized %s header: %s" what l))
  in
  match body (String.split_on_char '\n' text) with
  | Error _ as e -> e
  | Ok records -> ( try Ok (grammar records) with Bad msg -> Error msg)

let int what tok =
  match int_of_string_opt tok with
  | Some v -> v
  | None -> fail "bad %s: %s" what tok

let at what tok =
  match String.split_on_char '@' tok with
  | [ ""; n ] when int_of_string_opt n <> None -> int_of_string n
  | _ -> fail "bad %s: %s" what tok
