(* spawn-sharded: two domains running fork-join trees of short CPU tasks
   through [Shard.spawn] / [Shard.await].  A tree has fan-out 4 and depth
   4 (341 tasks); each task hashes for a seeded while, spawns its
   children, awaits them and returns its hash plus theirs.  The subtrees
   under two of the root's four children (which two is chosen by the seed)
   are all homed on shard 0, so shard 1 steals; the rest are spread
   round-robin.  Always two, so that the amount of stealing, and with it
   the task latency, does not depend on the seed.  One op is
   one task completed; every task's result is checked against a table
   computed before the pool starts. *)

open Pthreads
module S = Meter.Spans

let domains = 2
let fanout = 4
let depth = 4
let nodes = (int_of_float (float_of_int fanout ** float_of_int (depth + 1)) - 1) / (fanout - 1)

(* Trees vary by round, cycling through this many seeded variants. *)
let variants = 4
let work_rounds = 64
let warm_trees = 60

let sp_spawn = S.name "shard.spawn"
let sp_await = S.name "shard.await"

let work seed variant n =
  let h = ref (Meter.mix (Meter.mix seed variant) n) in
  for i = 1 to work_rounds do h := Meter.mix !h i done;
  !h land 0x3FFF_FFFF

let first_child n = (n * fanout) + 1
(* The pairs of the root's children (child [c] is at index [c - 1]). *)
let pairs = [| (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) |]

let pinned_subtree seed variant c =
  let a, b = pairs.((Meter.mix seed (variants + variant) land 0xFFFF) mod Array.length pairs) in
  c - 1 = a || c - 1 = b

(* Expected result of every node of every variant, bottom-up. *)
let expected_table seed =
  Array.init variants (fun v ->
      let e = Array.make nodes 0 in
      for n = nodes - 1 downto 0 do
        let acc = ref (work seed v n) in
        let f = first_child n in
        if f < nodes then for c = f to f + fanout - 1 do acc := !acc + e.(c) done;
        e.(n) <- !acc land 0x3FFF_FFFF
      done;
      e)

(* Per-shard state: only the threads of that shard write it. *)
type per_shard = { spans : S.t; lat : Meter.Samples.t; mutable failed : int }

type st = {
  seed : int;
  traced : bool;
  expected : int array array;
  done_at : int array;  (* completion time of each node of the current tree *)
  shards : per_shard array;
  mutable timing : bool;
}

(* Node [n] of tree number [tree] (variant [v]); its spans carry the op id
   [tree * nodes + n]. *)
let rec task st ~tree v n ~pinned proc =
  let me = st.shards.(Shard.shard_index proc) in
  let acc = ref (work st.seed v n) in
  let f = first_child n in
  if f < nodes then begin
    let kids =
      Array.init fanout (fun j ->
          let c = f + j in
          let pinned = pinned || (n = 0 && pinned_subtree st.seed v c) in
          let home = if pinned then Some 0 else None in
          let t0 = Meter.now_ns () in
          let h = Shard.spawn ?home proc (task st ~tree v c ~pinned) in
          if st.traced then
            S.record me.spans sp_spawn ~id:((tree * nodes) + c) t0 (Meter.now_ns ());
          (c, t0, h))
    in
    Array.iter
      (fun (c, t0, h) ->
        let t1 = if st.traced then Meter.now_ns () else 0 in
        let r = Shard.await proc h in
        if st.traced then
          S.record me.spans sp_await ~id:((tree * nodes) + c) t1 (Meter.now_ns ());
        if st.timing then Meter.Samples.add me.lat (st.done_at.(c) - t0);
        match r with
        | Types.Exited x when x = st.expected.(v).(c) -> acc := !acc + x
        | _ -> me.failed <- me.failed + 1)
      kids
  end;
  st.done_at.(n) <- Meter.now_ns ();
  !acc land 0x3FFF_FFFF

let run_once ~seed ~seconds ~traced =
  let st =
    {
      seed;
      traced;
      expected = expected_table seed;
      done_at = Array.make nodes 0;
      shards =
        Array.init domains (fun _ ->
            { spans = S.create (); lat = Meter.Samples.create (); failed = 0 });
      timing = false;
    }
  in
  let trees = ref 0 and failed_roots = ref 0 in
  let t_start = ref 0 and t_end = ref 0 and cpu_start = ref 0 and cpu_end = ref 0 in
  let timed_trees = ref 0 in
  let t_boot = Meter.now_ns () in
  (* one tree, its root homed on shard 0 *)
  let tree proc =
    let v = !trees mod variants in
    let h = Shard.spawn ~home:0 proc (task st ~tree:!trees v 0 ~pinned:false) in
    (match Shard.await proc h with
    | Types.Exited x when x = st.expected.(v).(0) -> ()
    | _ -> incr failed_roots);
    incr trees
  in
  let o, shutdown_failed =
    Meter.run_pool ~domains ~seed (fun proc ->
        for _ = 1 to warm_trees do tree proc done;
        t_start := Meter.now_ns ();
        cpu_start := Meter.cpu_ns ();
        let deadline = !t_start + int_of_float (seconds *. 1e9) in
        st.timing <- true;
        while Meter.now_ns () < deadline do
          tree proc;
          incr timed_trees
        done;
        st.timing <- false;
        t_end := Meter.now_ns ();
        cpu_end := Meter.cpu_ns ();
        0)
  in
  let spans = S.create () in
  Array.iter (fun s -> S.merge_into spans s.spans) st.shards;
  let failed =
    !failed_roots + Array.fold_left (fun n s -> n + s.failed) 0 st.shards
  in
  let elapsed_ns = !t_end - !t_start and cpu_ns = !cpu_end - !cpu_start in
  let layers =
    if not traced then []
    else
      [
        ("shard.spawn_ns", S.mean_ns spans sp_spawn);
        ("shard.await_ns", S.mean_ns spans sp_await);
      ]
      @ Meter.pool_layers o ~domains ~ops:(!trees * nodes) ~cpu_ns ~elapsed_ns
  in
  ( spans,
    {
      Meter.ops = !timed_trees * nodes;
      failed;
      shutdown_failed;
      correct = failed = 0;
      elapsed_ns;
      cpu_ns;
      setup_ns = !t_start - t_boot;
      lat = Meter.Samples.sorted_all (Array.to_list (Array.map (fun s -> s.lat) st.shards));
      layers;
    } )
