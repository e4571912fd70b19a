(* The observability layer on the paper's Figure 5 scenario.

     dune exec examples/obs_demo.exe                 # report + figure5.trace.json
     dune exec examples/obs_demo.exe -- --out DIR    # write the trace there
     dune exec examples/obs_demo.exe -- --smoke      # CI: validate, no prose
     dune exec examples/obs_demo.exe -- --golden test/golden  # regenerate golden

   Runs the priority-inversion scenario under all three protocols with
   tracing on, exports one Chrome trace-event JSON document with the
   three runs as separate processes (load it at ui.perfetto.dev), and
   prints the contention and dispatch-latency profiles.  The export is
   re-parsed and validated before the program exits 0: the document must
   parse, traceEvents must be an array, per-(pid,tid) timestamps must be
   monotone, and the per-thread slice totals must equal Trace_stats'
   cpu_ns to the nanosecond.

   Prints a JSON summary line (prefix "BENCH_obs:") for CI to scrape. *)

open Pthreads

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

(* ---------------- the Figure 5 scenario, traced ---------------- *)

let figure5_events protocol =
  let proc =
    Pthread.make_proc ~trace:true (fun proc ->
        let m =
          match protocol with
          | `None -> Mutex.create proc ~name:"m" ()
          | `Inherit ->
              Mutex.create proc ~name:"m" ~protocol:Types.Inherit_protocol ()
          | `Ceiling ->
              Mutex.create proc ~name:"m" ~protocol:Types.Ceiling_protocol
                ~ceiling:20 ()
        in
        let mk name prio body =
          Pthread.create_unit proc
            ~attr:(Attr.with_prio prio (Attr.with_name name Attr.default))
            body
        in
        let p1 =
          mk "P1" 5 (fun () ->
              Mutex.lock proc m;
              Pthread.busy proc ~ns:1_000_000;
              Mutex.unlock proc m;
              Pthread.busy proc ~ns:200_000)
        in
        Pthread.delay proc ~ns:300_000;
        let p3 =
          mk "P3" 20 (fun () ->
              Pthread.busy proc ~ns:100_000;
              Mutex.lock proc m;
              Pthread.busy proc ~ns:300_000;
              Mutex.unlock proc m)
        in
        let p2 = mk "P2" 10 (fun () -> Pthread.busy proc ~ns:2_000_000) in
        List.iter (fun t -> ignore (Pthread.join proc t)) [ p1; p3; p2 ];
        0)
  in
  Pthread.start proc;
  (Pthread.trace_events proc, Pthread.stats proc)

(* ---------------- export validation ---------------- *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt

let num = function Some (Obs.Json.Num f) -> Some f | _ -> None

let validate_export doc =
  match Obs.Json.parse doc with
  | Error e -> fail "export does not parse: %s" e
  | Ok json -> (
      match Obs.Json.member "traceEvents" json with
      | Some (Obs.Json.Arr events) ->
          (* per-(pid,tid) timestamps must be monotone, metadata aside *)
          let last : (float * float, float) Hashtbl.t = Hashtbl.create 16 in
          List.iter
            (fun ev ->
              match Obs.Json.member "ph" ev with
              | Some (Obs.Json.Str "M") -> ()
              | _ -> (
                  match
                    ( num (Obs.Json.member "pid" ev),
                      num (Obs.Json.member "tid" ev),
                      num (Obs.Json.member "ts" ev) )
                  with
                  | Some pid, Some tid, Some ts ->
                      (match Hashtbl.find_opt last (pid, tid) with
                      | Some prev when ts < prev ->
                          fail "ts regressed on pid %g tid %g: %g < %g" pid tid
                            ts prev
                      | _ -> ());
                      Hashtbl.replace last (pid, tid) ts
                  | _ -> ()))
            events;
          List.length events
      | _ -> fail "no traceEvents array")

let check_slices_match_stats events =
  let sums : (int, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (s : Obs.Chrome_trace.slice) ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt sums s.s_tid) in
      Hashtbl.replace sums s.s_tid (prev + (s.s_end_ns - s.s_start_ns)))
    (Obs.Chrome_trace.running_slices events);
  List.iter
    (fun (r : Vm.Trace_stats.thread_report) ->
      let got = Option.value ~default:0 (Hashtbl.find_opt sums r.tid) in
      if got <> r.cpu_ns then
        fail "slice total for tid %d is %dns, Trace_stats says %dns" r.tid got
          r.cpu_ns)
    (Vm.Trace_stats.per_thread events)

let write_file path doc =
  let oc = open_out path in
  output_string oc doc;
  close_out oc;
  Printf.printf "wrote %s\n" path

(* ---------------- golden: a small deterministic scenario ---------------- *)

(* Two threads handing a token through one mutex + condvar: small enough
   to diff as a golden file yet exercising slices, flows and counters. *)
let small_events () =
  let proc =
    Pthread.make_proc ~trace:true (fun proc ->
        let m = Mutex.create proc ~name:"token" () in
        let c = Cond.create proc ~name:"handoff" () in
        let turn = ref 0 in
        let player me next =
          Pthread.create_unit proc
            ~attr:(Attr.with_name (Printf.sprintf "player%d" me) Attr.default)
            (fun () ->
              for _ = 1 to 2 do
                Mutex.lock proc m;
                while !turn <> me do
                  ignore (Cond.wait proc c m : Cond.wait_result)
                done;
                Pthread.busy proc ~ns:10_000;
                turn := next;
                Cond.broadcast proc c;
                Mutex.unlock proc m
              done)
        in
        let a = player 0 1 in
        let b = player 1 0 in
        ignore (Pthread.join proc a);
        ignore (Pthread.join proc b);
        0)
  in
  Pthread.start proc;
  Pthread.trace_events proc

(* ---------------- main ---------------- *)

let () =
  (match golden_dir with
  | Some dir ->
      let doc = Obs.Chrome_trace.export ~process_name:"small" (small_events ()) in
      ignore (validate_export doc : int);
      write_file (Filename.concat dir "small.trace.json") doc;
      exit 0
  | None -> ());

  let runs =
    List.map
      (fun (name, p) -> (name, figure5_events p))
      [ ("no-protocol", `None); ("inherit", `Inherit); ("ceiling", `Ceiling) ]
  in
  let doc =
    Obs.Chrome_trace.export_many
      (List.map (fun (name, (events, _)) -> ("figure5 " ^ name, events)) runs)
  in
  let n_events = validate_export doc in
  List.iter (fun (_, (events, _)) -> check_slices_match_stats events) runs;
  Printf.printf "figure5 x3 protocols: %d trace events exported and validated\n"
    n_events;

  let dir = Option.value ~default:"." out_dir in
  write_file (Filename.concat dir "figure5.trace.json") doc;

  let events_none, _stats_none = List.assoc "no-protocol" runs in
  let contention = Obs.Contention.of_events events_none in
  let latency = Obs.Latency.of_events events_none in
  if not smoke then begin
    Printf.printf "\nContention (no-protocol run):\n";
    Format.printf "%a@." Obs.Contention.pp contention;
    Printf.printf "Dispatch latency (no-protocol run):\n";
    Format.printf "%a@." Obs.Latency.pp latency
  end;

  (* the profiles must agree with the independent accountings *)
  let reports = Vm.Trace_stats.per_thread events_none in
  let blocked_total =
    List.fold_left
      (fun acc (r : Vm.Trace_stats.thread_report) -> acc + r.mutex_blocked_ns)
      0 reports
  in
  if Obs.Contention.total_wait_ns contention <> blocked_total then
    fail "contention wait %dns <> Trace_stats blocked %dns"
      (Obs.Contention.total_wait_ns contention)
      blocked_total;
  let dispatch_total =
    List.fold_left
      (fun acc (r : Vm.Trace_stats.thread_report) -> acc + r.dispatches)
      0 reports
  in
  if Obs.Histogram.count latency <> dispatch_total then
    fail "latency samples %d <> traced dispatches %d"
      (Obs.Histogram.count latency) dispatch_total;

  Printf.printf "BENCH_obs: %s\n"
    (Obs.Json.to_string
       (Obs.Json.Obj
          (("trace_events", Obs.Json.int n_events)
          :: Bench_record.obs_profile events_none)));
  print_endline "obs_demo OK"
