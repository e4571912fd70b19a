(* The one writer of BENCH_*.json records.  A record is a JSON object of
   named sections; several programs each own some sections of the same
   file, so a write replaces its own sections and keeps everyone else's. *)

let read file =
  if not (Sys.file_exists file) then []
  else
    let text = In_channel.with_open_bin file In_channel.input_all in
    match Obs.Json.parse text with
    | Ok (Obs.Json.Obj fields) -> fields
    | Ok _ -> failwith (file ^ ": not a JSON object")
    | Error e -> failwith (Printf.sprintf "%s: %s" file e)

(* A section of rows prints one row per line, so records diff by row. *)
let section_text = function
  | Obs.Json.Arr (_ :: _ as rows) ->
      "[\n    "
      ^ String.concat ",\n    " (List.map Obs.Json.to_string rows)
      ^ "\n  ]"
  | v -> Obs.Json.to_string v

(* [update file sections] rewrites [file] with each [(key, json)] section
   in place of the existing section of that key (later duplicates of it
   are dropped); new keys go at the end, other sections keep their order
   and content.  A missing file starts an empty object.  Raises [Failure]
   without touching [file] when it does not hold a JSON object. *)
let update file sections =
  let old = read file in
  let rec merge = function
    | [] -> List.filter (fun (k, _) -> not (List.mem_assoc k old)) sections
    | (k, v) :: rest -> (
        match List.assoc_opt k sections with
        | None -> (k, v) :: merge rest
        | Some v' ->
            (k, v') :: merge (List.filter (fun (k', _) -> k' <> k) rest))
  in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc "{\n";
      output_string oc
        (String.concat ",\n"
           (List.map
              (fun (k, v) ->
                Printf.sprintf "  \"%s\": %s" (Obs.Json.escape k)
                  (section_text v))
              (merge old)));
      output_string oc "\n}\n")

(* The fields of the "obs" profile of a traced run: total contended wait,
   dispatch count and latency histogram, and the per-mutex contention
   table.  bench/main.exe (its "obs" section) and examples/obs_demo.exe
   both build their BENCH_obs object from it. *)
let obs_profile events =
  let contention = Obs.Contention.of_events events in
  let latency = Obs.Latency.of_events events in
  [
    ( "contended_wait_ns",
      Obs.Json.int (Obs.Contention.total_wait_ns contention) );
    ("dispatches", Obs.Json.int (Obs.Histogram.count latency));
    ("dispatch_latency", Obs.Histogram.to_json latency);
    ("contention", Obs.Contention.to_json contention);
  ]
