(* sync-vm: the virtual backend on one domain, 16384 threads in groups of
   four producers and four consumers.  Each group shares one mutex and two
   condition variables around a four-slot bounded buffer (the contended
   handoff); every thread also takes a private mutex (the uncontended fast
   path), sleeps with [Pthread.delay] (timers) and yields, on a seeded
   schedule.  One op is one item consumed.  The item count and the sum of
   the item values are checked exactly against what the producers made. *)

open Pthreads
module S = Meter.Spans

let groups = 2048
let producers = 4
let consumers = 4
let capacity = 4
let threads = groups * (producers + consumers)

(* Items consumed before the clock starts: every thread has been
   dispatched a few times and the timing wheel holds live timers. *)
let warm_items = threads

let sp_put = S.name "sync.put"
let sp_take = S.name "sync.take"
let sp_lock_fast = S.name "mutex.lock.fast"
let sp_lock_cont = S.name "mutex.lock.contended"
let sp_unlock_fast = S.name "mutex.unlock.fast"
let sp_unlock_cont = S.name "mutex.unlock.contended"
let sp_wait = S.name "cond.wait"
let sp_signal = S.name "cond.signal"
let sp_yield = S.name "pthread.yield"
let sp_delay = S.name "pthread.delay"
let sp_create = S.name "pthread.create"
let sp_join = S.name "pthread.join"

type group = {
  lock : Types.mutex;
  not_empty : Types.cond;
  not_full : Types.cond;
  vals : int array;
  ids : int array;
  stamps : int array;
  mutable head : int;
  mutable count : int;
  mutable producers_left : int;
}

type phase = Warm | Timed | Stopped

type st = {
  seed : int;
  seconds : float;
  traced : bool;
  spans : S.t;
  t_boot : int;
  mutable phase : phase;
  mutable next_id : int;
  mutable consumed : int;
  mutable sum : int;
  produced : int array;
  mutable wakes : int;
  mutable useful_wakes : int;
  mutable armed_peak : int;
  lat : Meter.Samples.t;
  mutable deadline : int;
  mutable t_start : int;
  mutable t_end : int;
  mutable cpu_start : int;
  mutable cpu_end : int;
  mutable ops_start : int;
  mutable ops_end : int;
  mutable c_start : Meter.counters;
  mutable c_end : Meter.counters;
}

let value seed p k = Meter.mix (Meter.mix seed p) k land 0xFFFF_FFFF

(* ------------------------------------------------------------------ *)
(* Calls into the library, timed as spans in traced runs               *)
(* ------------------------------------------------------------------ *)

let lock st proc m ~id ~parent =
  if st.traced then begin
    let contended = Mutex.is_locked m in
    let t0 = Meter.now_ns () in
    Mutex.lock proc m;
    S.record st.spans
      (if contended then sp_lock_cont else sp_lock_fast)
      ~id ~parent t0 (Meter.now_ns ())
  end
  else Mutex.lock proc m

let unlock st proc m ~id ~parent =
  if st.traced then begin
    let contended = Mutex.waiter_count m > 0 in
    let t0 = Meter.now_ns () in
    Mutex.unlock proc m;
    S.record st.spans
      (if contended then sp_unlock_cont else sp_unlock_fast)
      ~id ~parent t0 (Meter.now_ns ())
  end
  else Mutex.unlock proc m

let timed st nm ~id ~parent f =
  if st.traced then begin
    let t0 = Meter.now_ns () in
    f ();
    S.record st.spans nm ~id ~parent t0 (Meter.now_ns ())
  end
  else f ()

(* A condition wait, counting whether the wakeup found its predicate. *)
let wait st proc c m ~ready ~id ~parent =
  timed st sp_wait ~id ~parent (fun () ->
      ignore (Cond.wait proc c m : Cond.wait_result));
  st.wakes <- st.wakes + 1;
  if ready () then st.useful_wakes <- st.useful_wakes + 1

(* Private work between handoffs: an uncontended lock/unlock pair, then a
   seeded sleep and a seeded yield. *)
let private_work st proc priv r ~id =
  lock st proc priv ~id ~parent:S.no_parent;
  unlock st proc priv ~id ~parent:S.no_parent;
  if r land 7 = 0 then
    timed st sp_delay ~id ~parent:S.no_parent (fun () ->
        Pthread.delay proc ~ns:(1_000 + ((r lsr 3) land 0xFFFF)));
  if (r lsr 20) land 7 = 0 then
    timed st sp_yield ~id ~parent:S.no_parent (fun () -> Pthread.yield proc)

(* ------------------------------------------------------------------ *)
(* Phases: warm-up, timed window, stop                                 *)
(* ------------------------------------------------------------------ *)

let check_phase st proc =
  let armed = (Pthreads.stats proc).timers_armed in
  if armed > st.armed_peak then st.armed_peak <- armed;
  match st.phase with
  | Warm when st.consumed >= warm_items ->
      st.t_start <- Meter.now_ns ();
      st.cpu_start <- Meter.cpu_ns ();
      st.ops_start <- st.consumed;
      st.c_start <- Meter.snapshot proc;
      st.phase <- Timed;
      st.deadline <- st.t_start + int_of_float (st.seconds *. 1e9)
  | Timed when Meter.now_ns () >= st.deadline ->
      st.t_end <- Meter.now_ns ();
      st.cpu_end <- Meter.cpu_ns ();
      st.ops_end <- st.consumed;
      st.c_end <- Meter.snapshot proc;
      st.phase <- Stopped
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Threads                                                             *)
(* ------------------------------------------------------------------ *)

let producer st proc g priv p () =
  let k = ref 0 in
  while st.phase <> Stopped do
    let r = Meter.mix (Meter.mix st.seed p) !k in
    let id = st.next_id in
    st.next_id <- id + 1;
    private_work st proc priv r ~id;
    let t0 = if st.traced then Meter.now_ns () else 0 in
    lock st proc g.lock ~id ~parent:sp_put;
    while g.count = capacity do
      wait st proc g.not_full g.lock ~id ~parent:sp_put ~ready:(fun () ->
          g.count < capacity)
    done;
    let slot = (g.head + g.count) mod capacity in
    g.vals.(slot) <- value st.seed p !k;
    g.ids.(slot) <- id;
    g.stamps.(slot) <- (if !k land 15 = 0 then Meter.now_ns () else 0);
    g.count <- g.count + 1;
    timed st sp_signal ~id ~parent:sp_put (fun () -> Cond.signal proc g.not_empty);
    (* sometimes give up the processor inside the critical section, so
       the group's other threads find the mutex held *)
    if (r lsr 24) land 15 = 0 then
      timed st sp_yield ~id ~parent:sp_put (fun () -> Pthread.yield proc);
    unlock st proc g.lock ~id ~parent:sp_put;
    if st.traced then S.record st.spans sp_put ~id t0 (Meter.now_ns ());
    incr k
  done;
  st.produced.(p) <- !k;
  Mutex.lock proc g.lock;
  g.producers_left <- g.producers_left - 1;
  if g.producers_left = 0 then Cond.broadcast proc g.not_empty;
  Mutex.unlock proc g.lock

let consumer st proc g priv c () =
  let k = ref 0 and go = ref true in
  (* the item's op id is known only once it is taken, so the spans before
     the take are noted and recorded after it *)
  let pre = ref [] in
  let clock () = if st.traced then Meter.now_ns () else 0 in
  let note nm a = if st.traced then pre := (nm, a, Meter.now_ns ()) :: !pre in
  while !go do
    pre := [];
    let t0 = clock () in
    let lock_span = if st.traced && Mutex.is_locked g.lock then sp_lock_cont else sp_lock_fast in
    Mutex.lock proc g.lock;
    note lock_span t0;
    while g.count = 0 && g.producers_left > 0 do
      let t = clock () in
      ignore (Cond.wait proc g.not_empty g.lock : Cond.wait_result);
      note sp_wait t;
      st.wakes <- st.wakes + 1;
      if g.count > 0 || g.producers_left = 0 then
        st.useful_wakes <- st.useful_wakes + 1
    done;
    if g.count = 0 then begin
      Mutex.unlock proc g.lock;
      go := false
    end
    else begin
      let h = g.head in
      let v = g.vals.(h) and id = g.ids.(h) and stamp = g.stamps.(h) in
      g.head <- (h + 1) mod capacity;
      g.count <- g.count - 1;
      List.iter (fun (nm, a, b) -> S.record st.spans nm ~id ~parent:sp_take a b) !pre;
      timed st sp_signal ~id ~parent:sp_take (fun () -> Cond.signal proc g.not_full);
      unlock st proc g.lock ~id ~parent:sp_take;
      if st.traced then S.record st.spans sp_take ~id t0 (Meter.now_ns ());
      st.sum <- st.sum + v;
      st.consumed <- st.consumed + 1;
      if stamp <> 0 && st.phase = Timed then
        Meter.Samples.add st.lat (Meter.now_ns () - stamp);
      if st.consumed land 1023 = 0 then check_phase st proc;
      private_work st proc priv (Meter.mix (Meter.mix st.seed (threads + c)) !k) ~id;
      incr k
    end
  done

(* ------------------------------------------------------------------ *)
(* One run: boot, create every thread, warm up, measure, drain, verify *)
(* ------------------------------------------------------------------ *)

let run_once ~seed ~seconds ~traced =
  let st =
    {
      seed;
      seconds;
      traced;
      spans = S.create ();
      t_boot = Meter.now_ns ();
      phase = Warm;
      next_id = 0;
      consumed = 0;
      sum = 0;
      produced = Array.make (groups * producers) 0;
      wakes = 0;
      useful_wakes = 0;
      armed_peak = 0;
      lat = Meter.Samples.create ();
      deadline = 0;
      t_start = 0;
      t_end = 0;
      cpu_start = 0;
      cpu_end = 0;
      ops_start = 0;
      ops_end = 0;
      c_start = Meter.zero_counters;
      c_end = Meter.zero_counters;
    }
  in
  let mutexes = ref [] in
  let status, _ =
    Pthreads.run ~backend:(vm_backend ()) ~seed (fun proc ->
        let mk_mutex () =
          let m = Mutex.create proc () in
          mutexes := m :: !mutexes;
          m
        in
        let tids = ref [] in
        let spawn f =
          let t0 = Meter.now_ns () in
          let tid = Pthread.create_unit proc f in
          if traced then S.record st.spans sp_create ~id:0 t0 (Meter.now_ns ());
          tids := tid :: !tids
        in
        for gi = 0 to groups - 1 do
          let g =
            {
              lock = mk_mutex ();
              not_empty = Cond.create proc ();
              not_full = Cond.create proc ();
              vals = Array.make capacity 0;
              ids = Array.make capacity 0;
              stamps = Array.make capacity 0;
              head = 0;
              count = 0;
              producers_left = producers;
            }
          in
          for j = 0 to producers - 1 do
            let priv = mk_mutex () in
            spawn (producer st proc g priv ((gi * producers) + j))
          done;
          for j = 0 to consumers - 1 do
            let priv = mk_mutex () in
            spawn (consumer st proc g priv ((gi * consumers) + j))
          done
        done;
        List.iter
          (fun tid ->
            let t0 = Meter.now_ns () in
            ignore (Pthread.join proc tid : Types.exit_status);
            if traced then S.record st.spans sp_join ~id:0 t0 (Meter.now_ns ()))
          (List.rev !tids);
        0)
  in
  (* verify: every item made was taken once, and the values add up *)
  let made = Array.fold_left ( + ) 0 st.produced in
  let expected = ref 0 in
  Array.iteri
    (fun p n -> for k = 0 to n - 1 do expected := !expected + value seed p k done)
    st.produced;
  let failed = abs (made - st.consumed) in
  let correct =
    failed = 0 && !expected = st.sum && status = Some (Types.Exited 0)
  in
  let ops = st.ops_end - st.ops_start in
  let layers =
    if not traced then []
    else begin
      let locks = List.fold_left (fun n m -> n + Mutex.lock_count m) 0 !mutexes in
      let cont = List.fold_left (fun n m -> n + Mutex.contention_count m) 0 !mutexes in
      let mean nm = S.mean_ns st.spans nm in
      Meter.counter_layers (Meter.diff st.c_end st.c_start) ~ops
      @ [
          ("pthread.create_ns", mean sp_create);
          ("pthread.join_ns", mean sp_join);
          ("pthread.yield_ns", mean sp_yield);
          ("pthread.delay_ns", mean sp_delay);
          ("timer.armed_peak", float_of_int st.armed_peak);
          ("mutex.lock_fast_ns", mean sp_lock_fast);
          ("mutex.lock_contended_ns", mean sp_lock_cont);
          ("mutex.unlock_fast_ns", mean sp_unlock_fast);
          ("mutex.unlock_contended_ns", mean sp_unlock_cont);
          ("mutex.contended_share", Meter.share cont locks);
          ("cond.wait_ns", mean sp_wait);
          ("cond.signal_ns", mean sp_signal);
          ("cond.useful_wake_share", Meter.share st.useful_wakes st.wakes);
        ]
    end
  in
  ( st.spans,
    {
      Meter.ops;
      failed;
      shutdown_failed = 0;
      correct;
      elapsed_ns = st.t_end - st.t_start;
      cpu_ns = st.cpu_end - st.cpu_start;
      setup_ns = st.t_start - st.t_boot;
      lat = Meter.Samples.sorted st.lat;
      layers;
    } )
