(* Measurement kit shared by the workloads: host clocks, exact
   percentiles over raw samples, the span recorder of traced runs, and
   the result record every workload returns. *)

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]
(** Host monotonic clock, ns; comparable across processes of one host. *)

external cpu_ns : unit -> int = "perfbench_cpu_ns" [@@noalloc]
(** CPU time (user + system) of the calling process, all threads, ns. *)

external pin_here : unit -> unit = "perfbench_pin_here"
(** Pin the calling thread, and the processes it forks from now on, to the
    CPU it runs on, if the host lets it. *)

external unpin : unit -> unit = "perfbench_unpin"
(** Undo [pin_here]. *)

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) find in
  float_of_int kb /. 1024.0

(* A cheap, allocation-free integer hash (the splitmix64 finalizer, its
   constants cut to 63 bits): every seeded input is derived from it. *)
let mix a b =
  let z = (a * 0x1E3779B97F4A7C15) + b in
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  z lxor (z lsr 31)

(* ------------------------------------------------------------------ *)
(* Raw samples and exact percentiles                                   *)
(* ------------------------------------------------------------------ *)

module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let a = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  (* All samples of several buffers, sorted. *)
  let sorted_all ts =
    let a = Array.concat (List.map (fun t -> Array.sub t.a 0 t.n) ts) in
    Array.sort compare a;
    a

  let sorted t = sorted_all [ t ]
end

(* Nearest-rank percentile of a sorted array: the smallest sample with at
   least [p]% of the samples at or below it. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* The highest of the usual percentiles that still has at least ten
   samples beyond it (the median when none does). *)
let top_percentile n =
  List.fold_left
    (fun acc p -> if float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0 then p else acc)
    50.0
    [ 90.0; 99.0; 99.9; 99.99; 99.999 ]

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* A span is one timed call into a layer: name, op id, the name of the
   enclosing span of the same op (or none), start and end.  Every span
   feeds per-name aggregates (count, total, time covered by children);
   the first [keep] spans are also stored and written out when the run
   ends.  One recorder per domain: a recorder is not shared. *)
module Spans = struct
  let max_names = 64
  let names = Array.make max_names ""
  let n_names = ref 0

  type name = int

  (* Register at module initialisation only (not domain-safe). *)
  let name s =
    let i = !n_names in
    names.(i) <- s;
    incr n_names;
    i

  let no_parent = -1

  let keep = 100_000

  type t = {
    count : int array;
    total : int array;
    child : int array;  (* time of this name's spans covered by children *)
    mutable stored : int array;  (* 5 ints per span *)
    mutable n : int;
  }

  let create () =
    {
      count = Array.make max_names 0;
      total = Array.make max_names 0;
      child = Array.make max_names 0;
      stored = Array.make 1024 0;
      n = 0;
    }

  let store t nm id parent t0 t1 =
    if 5 * (t.n + 1) > Array.length t.stored then begin
      let a = Array.make (2 * Array.length t.stored) 0 in
      Array.blit t.stored 0 a 0 (5 * t.n);
      t.stored <- a
    end;
    let b = 5 * t.n in
    t.stored.(b) <- nm;
    t.stored.(b + 1) <- id;
    t.stored.(b + 2) <- parent;
    t.stored.(b + 3) <- t0;
    t.stored.(b + 4) <- t1;
    t.n <- t.n + 1

  let record t nm ~id ?(parent = no_parent) t0 t1 =
    let d = t1 - t0 in
    t.count.(nm) <- t.count.(nm) + 1;
    t.total.(nm) <- t.total.(nm) + d;
    if parent >= 0 then t.child.(parent) <- t.child.(parent) + d;
    if t.n < keep then store t nm id parent t0 t1

  let mean_ns t nm =
    if t.count.(nm) = 0 then 0.0
    else float_of_int t.total.(nm) /. float_of_int t.count.(nm)

  let merge_into dst src =
    for i = 0 to max_names - 1 do
      dst.count.(i) <- dst.count.(i) + src.count.(i);
      dst.total.(i) <- dst.total.(i) + src.total.(i);
      dst.child.(i) <- dst.child.(i) + src.child.(i)
    done;
    for k = 0 to src.n - 1 do
      let g j = src.stored.((5 * k) + j) in
      store dst (g 0) (g 1) (g 2) (g 3) (g 4)
    done

  (* Stored spans as TSV, then one aggregate line per name with its self
     time (total minus the part its children cover).  Written whole. *)
  let write t path =
    let oc = open_out path in
    output_string oc "# span\tname\top_id\tparent\tstart_ns\tend_ns\n";
    for k = 0 to t.n - 1 do
      let b = 5 * k in
      let p = t.stored.(b + 2) in
      Printf.fprintf oc "span\t%s\t%d\t%s\t%d\t%d\n" names.(t.stored.(b))
        t.stored.(b + 1)
        (if p < 0 then "-" else names.(p))
        t.stored.(b + 3) t.stored.(b + 4)
    done;
    output_string oc "# total\tname\tcount\ttotal_ns\tself_ns\n";
    for i = 0 to !n_names - 1 do
      if t.count.(i) > 0 then
        Printf.fprintf oc "total\t%s\t%d\t%d\t%d\n" names.(i) t.count.(i)
          t.total.(i)
          (t.total.(i) - t.child.(i))
    done;
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* Engine statistics over a window                                     *)
(* ------------------------------------------------------------------ *)

(* Counter deltas between two [Pthreads.stats] snapshots. *)
type counters = {
  switches : int;
  traps : int;
  trap_detail : (string * int) list;
  signals_posted : int;
  signals_lost : int;
  dispatches : int;
}

let zero_counters =
  {
    switches = 0;
    traps = 0;
    trap_detail = [];
    signals_posted = 0;
    signals_lost = 0;
    dispatches = 0;
  }

let snapshot proc =
  let s = Pthreads.stats proc in
  {
    switches = s.switches;
    traps = s.kernel_traps;
    trap_detail = s.trap_detail;
    signals_posted = s.signals_posted;
    signals_lost = s.signals_lost;
    dispatches = Pthreads.dispatch_count proc;
  }

(* Counter deltas [later - earlier]. *)
let diff later earlier =
  let get l k = Option.value ~default:0 (List.assoc_opt k l) in
  let keys =
    List.sort_uniq String.compare
      (List.map fst later.trap_detail @ List.map fst earlier.trap_detail)
  in
  {
    switches = later.switches - earlier.switches;
    traps = later.traps - earlier.traps;
    trap_detail =
      List.map (fun k -> (k, get later.trap_detail k - get earlier.trap_detail k)) keys;
    signals_posted = later.signals_posted - earlier.signals_posted;
    signals_lost = later.signals_lost - earlier.signals_lost;
    dispatches = later.dispatches - earlier.dispatches;
  }

(* ------------------------------------------------------------------ *)
(* What a workload run returns                                         *)
(* ------------------------------------------------------------------ *)

type outcome = {
  ops : int;  (** verified ops in the timed window *)
  failed : int;  (** failed ops (refused, reset, short or corrupt) *)
  shutdown_failed : int;  (** 1 if a pool deadlocked after its work was done *)
  correct : bool;  (** every output verified *)
  elapsed_ns : int;  (** host wall time of the timed window *)
  cpu_ns : int;  (** CPU of the library's process over the timed window *)
  setup_ns : int;  (** boot to the first timed op, warm-up included *)
  lat : int array;  (** per-op latency samples, ns, sorted *)
  layers : (string * float) list;  (** per-layer figures (traced runs) *)
}

let ops_per_s o =
  if o.elapsed_ns <= 0 then 0.0
  else float_of_int o.ops /. (float_of_int o.elapsed_ns /. 1e9)

let share num den = if den <= 0 then 0.0 else float_of_int num /. float_of_int den

(* Per-op kernel and engine figures from counter deltas over a window. *)
let counter_layers c ~ops =
  let trap k = Option.value ~default:0 (List.assoc_opt k c.trap_detail) in
  [
    ("kernel.traps_per_op", share c.traps ops);
    ("kernel.trap.sigsetmask_per_op", share (trap "sigsetmask") ops);
    ("kernel.trap.setitimer_per_op", share (trap "setitimer") ops);
    ("kernel.trap.sbrk_per_op", share (trap "sbrk") ops);
    ("sigio.signals_per_op", share c.signals_posted ops);
    ("sigio.lost_share", share c.signals_lost c.signals_posted);
    ("engine.switches_per_op", share c.switches ops);
    ("engine.dispatches_per_op", share c.dispatches ops);
  ]

(* ------------------------------------------------------------------ *)
(* Pools of shards                                                     *)
(* ------------------------------------------------------------------ *)

(* Run [f] as the root task of a pool of vm-backend shards.  A deadlock
   raised after [f] has returned is the pool failing to shut down: all
   work is done and verified by then, so no op failed.  It is returned as
   a shutdown failure (1) rather than aborting the run; the pool's
   outcome is lost with it. *)
let run_pool ~domains ~seed f =
  (* the root task runs on shard 0, which is the calling domain *)
  let root_done = ref false in
  match
    Pthreads.Shard.run_parallel ~domains
      ~backend_for:(fun _ -> Vm.Backend.virtual_ Vm.Cost_model.free)
      ~seed
      (fun proc ->
        let r = f proc in
        root_done := true;
        r)
  with
  | o -> (Some o, 0)
  | exception Pthreads.Types.Process_stopped (Pthreads.Types.Deadlock _)
    when !root_done ->
      (None, 1)

(* Per-layer figures of a pool run: whole-run counters per verified op or
   per task, and CPU use over the timed window.  Zero when the outcome was
   lost to a failed shutdown. *)
let pool_layers (o : Pthreads.Shard.outcome option) ~domains ~ops ~cpu_ns ~elapsed_ns =
  let pool f = match o with Some o -> f o | None -> 0.0 in
  let tasks (o : Pthreads.Shard.outcome) = Array.fold_left ( + ) 0 o.tasks in
  let c =
    match o with
    | None -> zero_counters
    | Some o ->
        {
          switches = o.stats.switches;
          traps = o.stats.kernel_traps;
          trap_detail = o.stats.trap_detail;
          signals_posted = o.stats.signals_posted;
          signals_lost = o.stats.signals_lost;
          dispatches = Array.fold_left ( + ) 0 o.dispatches;
        }
  in
  counter_layers c ~ops
  @ [
      ("shard.steals_per_task", pool (fun o -> share o.steals (tasks o)));
      ("shard.remote_wakes_per_task", pool (fun o -> share o.remote_wakes (tasks o)));
      ( "shard.dispatch_imbalance",
        pool (fun o ->
            share (Array.fold_left max 0 o.dispatches) (Array.fold_left min max_int o.dispatches)) );
      ( "process.cpu_util",
        float_of_int cpu_ns /. (float_of_int domains *. float_of_int (max 1 elapsed_ns)) );
    ]
