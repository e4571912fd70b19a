(* Bench records (BENCH_*.json): the committed files are valid JSON with
   one copy of every key, and the one writer (Bench_record.update) keeps
   them that way — a rewritten section replaces the old one in place,
   every other section survives untouched. *)

open Tu
module Json = Obs.Json

let rec duplicate_keys path = function
  | Json.Obj fields ->
      let keys = List.map fst fields in
      let dups =
        List.filter
          (fun k -> List.length (List.filter (String.equal k) keys) > 1)
          (List.sort_uniq compare keys)
      in
      List.map (fun k -> path ^ "." ^ k) dups
      @ List.concat_map (fun (k, v) -> duplicate_keys (path ^ "." ^ k) v) fields
  | Json.Arr vs ->
      List.concat
        (List.mapi (fun i v -> duplicate_keys (Printf.sprintf "%s[%d]" path i) v) vs)
  | Json.Null | Json.Bool _ | Json.Num _ | Json.Str _ -> []

let read_file f = In_channel.with_open_bin f In_channel.input_all

let parse_exn what text =
  match Json.parse text with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

(* the test runs in the build copy of test/; the records sit one up *)
let test_committed_records () =
  let files =
    Sys.readdir ".." |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix:"BENCH_" f
           && Filename.check_suffix f ".json")
  in
  if files = [] then Alcotest.fail "no BENCH_*.json next to the tests";
  List.iter
    (fun f ->
      let v = parse_exn f (read_file (Filename.concat ".." f)) in
      match duplicate_keys f v with
      | [] -> ()
      | dups -> Alcotest.failf "duplicate keys: %s" (String.concat ", " dups))
    files

let with_temp f =
  let file = Filename.temp_file "bench_record" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove file) (fun () -> f file)

let test_update_replaces_in_place () =
  with_temp (fun file ->
      Sys.remove file;
      (* a missing file starts an empty object *)
      let row x = Json.Obj [ ("x", Json.Num x) ] in
      Bench_record.update file [ ("a", Json.Arr [ row 0.8 ]) ];
      Bench_record.update file
        [
          ( "b",
            Json.Obj [ ("y", Json.Num 1.234e-05); ("s", Json.Str "q\"uote") ]
          );
          ("c", Json.Arr []);
        ];
      let before = parse_exn "before" (read_file file) in
      Bench_record.update file [ ("a", Json.Arr [ row 2.0; row 3.0 ]) ];
      Bench_record.update file
        [ ("a", Json.Arr [ row 4.0 ]); ("d", Json.Null) ];
      let after = parse_exn "after" (read_file file) in
      match (before, after) with
      | Json.Obj b, Json.Obj a ->
          check (Alcotest.list string) "one key each, original order"
            [ "a"; "b"; "c"; "d" ] (List.map fst a);
          check bool "latest section wins" true
            (List.assoc "a" a = Json.Arr [ Json.Obj [ ("x", Json.Num 4.0) ] ]);
          check bool "other sections keep their content" true
            (List.assoc "b" a = List.assoc "b" b
            && List.assoc "c" a = List.assoc "c" b);
          check bool "numbers survive the rewrite" true
            (List.assoc "b" a
            = Json.Obj [ ("y", Json.Num 1.234e-05); ("s", Json.Str "q\"uote") ])
      | _ -> Alcotest.fail "record is not an object")

(* records written before the one writer existed can repeat a section;
   rewriting it keeps the first position and drops the repeats *)
let test_update_collapses_repeats () =
  with_temp (fun file ->
      Out_channel.with_open_bin file (fun oc ->
          output_string oc "{\"a\": 1, \"b\": 2, \"a\": 3}");
      Bench_record.update file [ ("a", Json.Num 4.0) ];
      check bool "one a, in first position" true
        (parse_exn "record" (read_file file)
        = Json.Obj [ ("a", Json.Num 4.0); ("b", Json.Num 2.0) ]))

let test_update_rejects_unparsable () =
  with_temp (fun file ->
      Out_channel.with_open_bin file (fun oc ->
          output_string oc "{\"a\": [1, 2,");
      (match Bench_record.update file [ ("b", Json.Num 1.0) ] with
      | () -> Alcotest.fail "update accepted a broken record"
      | exception Failure _ -> ());
      check string "file left untouched" "{\"a\": [1, 2," (read_file file))

let suite =
  [
    ( "bench record",
      [
        tc "committed records have unique keys" test_committed_records;
        tc "update replaces sections in place" test_update_replaces_in_place;
        tc "update collapses repeated sections" test_update_collapses_repeats;
        tc "update refuses a broken record" test_update_rejects_unparsable;
      ] );
  ]
