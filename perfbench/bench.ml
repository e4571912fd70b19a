(* The benchmark executable: runs one workload and prints its figures as
   one JSON object on the last line of standard output.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   With [--trace 0] a run is [rounds] rounds of S/rounds seconds.  Each
   round sets the workload up from scratch (boot, threads, binds,
   connects, warm-up: its [setup_s]) and then measures it untraced.  Every
   end-to-end figure is the median over the rounds, so one round disturbed
   by the host does not move it.  With [--trace 1] a run measures S/2
   seconds untraced and S/2 seconds traced: the per-layer figures come from
   the traced half, and the ratio of the two throughputs is the tracing
   overhead; the spans of the traced half are written to
   [perfbench/_out/W.spans.tsv], relative to the working directory.
   Figures are printed by name; [run.py] builds this, adds the
   units of BENCHMARK.json, checks and stamps the output. *)

let rounds = 10

(* Each runs one round: set up, warm up, measure for [seconds], drain,
   verify. *)
let workloads =
  [
    ("echo-unix", Echo_unix.run_once);
    ("sync-vm", Sync_vm.run_once);
    ("echo-vm-sharded", Echo_vm_sharded.run_once);
    ("spawn-sharded", Spawn_sharded.run_once);
  ]

let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let print_result ~name ~correct ~attempted ~failed ~metrics ~info =
  let kv (k, v) = Printf.sprintf "%S: %s" k (num v) in
  let iv (k, v) = Printf.sprintf "%S: %s" k v in
  Printf.printf
    "{\"workload\": %S, \"correct\": %b, \"attempted\": %d, \"failed\": %d, \
     \"metrics\": {%s}, \"info\": {%s}}\n%!"
    name correct attempted failed
    (String.concat ", " (List.map kv metrics))
    (String.concat ", " (List.map iv info))

let us sorted p = float_of_int (Meter.percentile sorted p) /. 1e3
let cpu_us_per_op (o : Meter.outcome) = float_of_int o.cpu_ns /. 1e3 /. float_of_int (max 1 o.ops)

(* A round's latency at the median and at every percentile
   [Meter.top_percentile] can pick, in us. *)
let percentiles = [ 50.0; 90.0; 99.0; 99.9; 99.99; 99.999 ]

type round = {
  o : Meter.outcome;  (** with its raw samples dropped *)
  n : int;  (** latency samples *)
  pct : (float * float) list;
}

(* Reduce a round to its figures at once, so that the raw samples of
   earlier rounds do not stay in this process's memory and in
   [peak_rss_mb]. *)
let summarize (o : Meter.outcome) =
  {
    o = { o with lat = [||] };
    n = Array.length o.lat;
    pct = List.map (fun p -> (p, us o.lat p)) percentiles;
  }

let at p r = List.assoc p r.pct

(* The sample count, and the highest percentile that has at least ten
   samples beyond it in every round, with its median over the rounds. *)
let latency_info rs =
  let top = Meter.top_percentile (List.fold_left (fun m r -> min m r.n) max_int rs) in
  [
    ("latency_samples", string_of_int (List.fold_left (fun n r -> n + r.n) 0 rs));
    ("latency_top_pct", num top);
    ("latency_top_us", num (median (List.map (at top) rs)));
  ]

let list f l = "[" ^ String.concat ", " (List.map (fun x -> num (f x)) l) ^ "]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0
  and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer figures)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let run_once =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        prerr_endline ("bench: unknown workload " ^ !workload);
        exit 2
  in
  let seed = !seed and seconds = !seconds in
  if !trace = 0 then begin
    let rs =
      List.init rounds (fun _ ->
          summarize
            (snd (run_once ~seed ~seconds:(seconds /. float_of_int rounds) ~traced:false)))
    in
    let failed = List.fold_left (fun n r -> n + r.o.failed) 0 rs in
    let shutdown_failed = List.fold_left (fun n r -> n + r.o.shutdown_failed) 0 rs in
    let ops = List.fold_left (fun n r -> n + r.o.ops) 0 rs in
    let correct = List.for_all (fun r -> r.o.correct) rs in
    let med f = median (List.map f rs) in
    let ops_per_s r = Meter.ops_per_s r.o and cpu r = cpu_us_per_op r.o in
    let setup r = float_of_int r.o.setup_ns /. 1e9 in
    print_result ~name:!workload ~correct ~attempted:(ops + failed) ~failed
      ~metrics:
        [
          ("ops_per_s", med ops_per_s);
          ("latency_p50_us", med (at 50.0));
          ("latency_p90_us", med (at 90.0));
          ("cpu_us_per_op", med cpu);
          ("setup_s", med setup);
          ("peak_rss_mb", Meter.peak_rss_mb ());
        ]
      ~info:
        ([
           ("ops", string_of_int ops);
           ("error_rate", num (Meter.share failed (ops + failed)));
           ("shutdown_failures", string_of_int shutdown_failed);
           ("rounds_ops_per_s", list ops_per_s rs);
           ("rounds_latency_p50_us", list (at 50.0) rs);
           ("rounds_latency_p90_us", list (at 90.0) rs);
           ("rounds_latency_p99_us", list (at 99.0) rs);
           ("rounds_cpu_us_per_op", list cpu rs);
           ("rounds_setup_s", list setup rs);
         ]
        @ latency_info rs)
  end
  else begin
    let half = seconds /. 2.0 in
    let _, plain = run_once ~seed ~seconds:half ~traced:false in
    let spans, o = run_once ~seed ~seconds:half ~traced:true in
    let out = Filename.concat "perfbench" "_out" in
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    Meter.Spans.write spans (Filename.concat out (!workload ^ ".spans.tsv"));
    let failed = plain.failed + o.failed in
    let attempted = plain.ops + o.ops + failed in
    print_result ~name:!workload ~correct:(plain.correct && o.correct) ~attempted ~failed
      ~metrics:
        (("trace.ops_ratio", Meter.ops_per_s o /. Meter.ops_per_s plain)
        :: ("error_rate", Meter.share failed attempted)
        :: ("shard.shutdown_failures", float_of_int (plain.shutdown_failed + o.shutdown_failed))
        :: o.layers)
      ~info:
        ([
           ("ops_per_s_untraced", num (Meter.ops_per_s plain));
           ("ops_per_s_traced", num (Meter.ops_per_s o));
         ]
        @ latency_info [ summarize o ])
  end
