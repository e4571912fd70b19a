(* Breaking things on purpose: a tour of the fault-injection layer.

     dune exec examples/fault_demo.exe              # full tour
     dune exec examples/fault_demo.exe -- --smoke   # budgeted CI soak
     dune exec examples/fault_demo.exe -- --out DIR # write .fault files to DIR
     dune exec examples/fault_demo.exe -- --golden test/golden  # regenerate

   The tour first soaks the fault-robust scenario suite under seeded plans
   (spurious wakeups, forced preemption, EINTR, signal bursts, clock
   jumps) asserting the kernel invariants at every fault point, then hunts
   the deliberately seeded lost-wakeup bug — a consumer that tests its
   predicate with [if] instead of [while] — shrinks the failing plan to a
   minimal .fault file and replays it.

   Prints a JSON summary line (prefix "BENCH_soak:") alongside the bench
   output so CI can scrape it. *)

module S = Check.Scenarios
module E = Check.Explore

let smoke = Array.exists (( = ) "--smoke") Sys.argv

let arg_value name =
  let rec go i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = name then Some Sys.argv.(i + 1)
    else go (i + 1)
  in
  go 1

let out_dir = arg_value "--out"
let golden_dir = arg_value "--golden"

let write_fault_file dir name plan =
  let path = Filename.concat dir (name ^ ".fault") in
  let oc = open_out path in
  output_string oc (Fault.Plan.to_string plan);
  close_out oc;
  Printf.printf "  wrote %s\n" path

(* ---------------- the soak ---------------- *)

let soak_suite () =
  let config =
    if smoke then
      { Fault.Soak.default_config with seeds = [ 1; 2; 3; 4; 5 ] }
    else
      { Fault.Soak.default_config with seeds = List.init 20 (fun i -> i + 1) }
  in
  Printf.printf "Soaking %d scenarios x %d seeds (budget %d, safe kinds)...\n"
    (List.length Fault.Soak.default_suite)
    (List.length config.seeds) config.budget;
  let report = Fault.Soak.soak ~config Fault.Soak.default_suite in
  Format.printf "%a@." Fault.Soak.pp_report report;
  (match out_dir with
  | Some dir ->
      List.iter
        (fun (f : Fault.Soak.failure) ->
          let base = Printf.sprintf "%s-seed%d" f.f_scenario f.f_seed in
          write_fault_file dir base f.f_plan;
          (* the sanitizer's view of the shrunk run rides along *)
          match f.f_san with
          | Some r ->
              let path = Filename.concat dir (base ^ ".san") in
              Sanitize.Report.to_file path r;
              Printf.printf "  wrote %s\n" path
          | None -> ())
        report.r_failures
  | None -> ());
  Printf.printf "BENCH_soak: %s\n"
    (Obs.Json.to_string (Fault.Soak.json_of_report report));
  report

(* ---------------- the hunt ---------------- *)

(* Only spurious wakeups: the seeded bug is precisely a missing predicate
   loop, so the minimal counterexample should be a single injection. *)
let hunt_kinds = { Fault.Plan.no_kinds with spurious = true }

let hunt () =
  let s = S.lost_wakeup_no_loop in
  Printf.printf "\nHunting the seeded bug in %s\n  (%s)\n" s.S.name s.S.descr;
  let mk = s.S.make in
  let _, points, _ = Fault.Soak.run_one ~mk [] in
  let rec try_seed seed =
    if seed > 100 then None
    else
      let plan = Fault.Plan.random ~seed ~points ~budget:4 hunt_kinds in
      match Fault.Soak.run_one ~mk plan with
      | Some kind, _, _ -> Some (seed, plan, kind)
      | None, _, _ -> try_seed (seed + 1)
  in
  match try_seed 1 with
  | None ->
      Printf.printf "  no failing plan in 100 seeds?!\n";
      exit 1
  | Some (seed, plan, kind) ->
      Printf.printf "  seed %d fails: %s (%d injections)\n" seed
        (E.failure_kind_to_string kind)
        (Fault.Plan.length plan);
      let shrunk, kind' = Fault.Soak.shrink ~mk plan in
      Printf.printf "  shrunk to %d injection(s): %s\n"
        (Fault.Plan.length shrunk)
        (E.failure_kind_to_string kind');
      print_string (Fault.Plan.to_string shrunk);
      (* replay from the serialized form, as the test suite does *)
      (match Fault.Plan.of_string (Fault.Plan.to_string shrunk) with
      | Error e ->
          Printf.printf "  roundtrip failed: %s\n" e;
          exit 1
      | Ok plan' -> (
          match Fault.Soak.run_one ~mk plan' with
          | Some k, _, _ when k = kind' ->
              Printf.printf "  replayed deterministically: %s\n"
                (E.failure_kind_to_string k)
          | other, _, _ ->
              Printf.printf "  replay diverged: %s\n"
                (match other with
                | Some k -> E.failure_kind_to_string k
                | None -> "no failure");
              exit 1));
      (match out_dir with
      | Some dir ->
          write_fault_file dir "no-predicate-loop" shrunk;
          (* the sanitizer's predictive view of the same shrunk run *)
          let _, _, _, san = Fault.Soak.run_full ~mk shrunk in
          (match san with
          | Some r ->
              let path = Filename.concat dir "no-predicate-loop.san" in
              Sanitize.Report.to_file path r;
              Printf.printf "  wrote %s\n" path
          | None -> ())
      | None -> ());
      (match golden_dir with
      | Some dir -> write_fault_file dir "no_predicate_loop" shrunk
      | None -> ());
      ()

let () =
  let report = soak_suite () in
  hunt ();
  (* The default suite is fault-robust by design: any failure is a real
     regression (CI runs this under --smoke). *)
  if report.Fault.Soak.r_failures <> [] then begin
    Printf.printf "\nUNEXPECTED soak failures in the robust suite\n";
    exit 1
  end;
  Printf.printf "\nAll soaked scenarios clean; seeded bug found, shrunk, \
                 replayed.\n"
