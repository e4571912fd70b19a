(* What the engine allocates on its fast paths and per waiter queue.  The
   fast paths are measured in OCaml minor-heap words inside one booted
   virtual engine with tracing off: each body runs once to warm up (lazily
   built levels, grown tables), then again under the counter. *)

open Tu
open Pthreads
open Pthreads.Types
module WQ = Pthreads.Wait_queue

let n = 1000

let words f =
  f ();
  let before = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. before)

(* Run [body] as main on the virtual backend and return its result. *)
let in_engine body =
  let result = ref None in
  ignore
    (run_main (fun proc ->
         result := Some (body proc);
         0)
      : int);
  Option.get !result

let test_checkpoint () =
  let w =
    in_engine (fun proc ->
        words (fun () ->
            for _ = 1 to n do
              Engine.checkpoint proc
            done))
  in
  check int "words for 1000 checkpoints" 0 w

let test_lock_unlock () =
  let w =
    in_engine (fun proc ->
        let m = Mutex.create proc () in
        words (fun () ->
            for _ = 1 to n do
              Mutex.lock proc m;
              Mutex.unlock proc m
            done))
  in
  check int "words for 1000 uncontended lock/unlock pairs" 0 w

(* A switch must capture the yielding thread's continuation: the
   continuation block [Effect.perform] allocates (two words) and the
   [Saved] box the TCB keeps it in (two words).  Nothing else — no handler
   closure, no option from the ready queue, no timer closure in the
   scheduler's signal poll. *)
let continuation_words = 4

let test_yield () =
  let w, switches =
    in_engine (fun proc ->
        let s0 = (Pthreads.stats proc).switches in
        let w =
          words (fun () ->
              for _ = 1 to n do
                Pthread.yield proc
              done)
        in
        (w, (Pthreads.stats proc).switches - s0))
  in
  (* [words] runs the loop twice: a warm-up round, then the counted one *)
  check int "every yield switched" (2 * n) switches;
  check int "words for 1000 yields" (n * continuation_words) w

let mk_tcb tid prio =
  Pthreads.Tcb.make ~tid ~name:(Printf.sprintf "t%d" tid) ~prio ~detached:false
    ~body:(fun () -> 0)
    ~deferred:false

let one_level q = Array.length q.pq_levels = 0

(* One priority at a time, even a different one each time the queue
   drains, keeps the queue on its single inline level, and after that
   level exists nothing allocates. *)
let test_single_priority_queue () =
  let q = WQ.create () in
  let ts = Array.init 8 (fun i -> mk_tcb (i + 1) 12) in
  let cycle () =
    for i = 0 to Array.length ts - 1 do
      WQ.push_tail q ts.(i)
    done;
    ignore (WQ.pop_highest q : tcb);
    WQ.push_head q ts.(0);
    WQ.remove q ts.(3);
    while WQ.pop_highest q != nil_tcb do
      ()
    done
  in
  check int "words per fill/drain after the first" 0 (words cycle);
  check bool "no bucket array" true (one_level q);
  Array.iter (fun t -> t.prio <- 20) ts;
  cycle ();
  check bool "another priority after draining: still one level" true
    (one_level q);
  WQ.push_tail q ts.(0);
  ts.(1).prio <- 5;
  WQ.push_tail q ts.(1);
  check bool "two priorities at once: buckets" false (one_level q);
  check (Alcotest.list int) "priority order kept" [ 1; 2 ]
    (List.map (fun t -> t.tid) (WQ.to_list q))

(* The queues a running program builds: every thread joined, a mutex and
   a condition variable contended by equal-priority threads. *)
let test_program_queues_stay_one_level () =
  let m, c, joined =
    in_engine (fun proc ->
        let m = Mutex.create proc () and c = Cond.create proc () in
        let ready = ref 0 in
        let tids =
          List.init 4 (fun _ ->
              Pthread.create_unit proc (fun () ->
                  Mutex.lock proc m;
                  incr ready;
                  while !ready < 4 do
                    ignore (Cond.wait proc c m : Cond.wait_result)
                  done;
                  Cond.broadcast proc c;
                  Pthread.yield proc;
                  Mutex.unlock proc m))
        in
        let joined = List.filter_map (Engine.find_thread proc) tids in
        List.iter (fun tid -> ignore (Pthread.join proc tid : exit_status)) tids;
        (m, c, joined))
  in
  check bool "the mutex was contended" true (Mutex.contention_count m > 0);
  check int "threads joined" 4 (List.length joined);
  List.iter (fun t -> check bool "joiners: one level" true (one_level t.joiners)) joined;
  check bool "mutex waiters: one level" true (one_level m.m_waiters);
  check bool "cond waiters: one level" true (one_level c.c_waiters)

let suite =
  [
    ( "footprint",
      [
        tc "checkpoint allocates nothing" test_checkpoint;
        tc "uncontended lock/unlock allocates nothing" test_lock_unlock;
        tc "yield allocates only its continuation" test_yield;
        tc "single-priority queue builds no buckets" test_single_priority_queue;
        tc "program queues stay one level" test_program_queues_stay_one_level;
      ] );
  ]
