(* Ready-queue internals (exercised through a raw engine). *)

open Tu
open Pthreads
open Pthreads.Types
module RQ = Pthreads.Ready_queue

let mk_engine () =
  Engine.make (Engine.default_config Vm.Cost_model.sparc_ipx) ~main:(fun () -> 0)

let mk_tcb tid prio =
  Pthreads.Tcb.make ~tid ~name:(Printf.sprintf "t%d" tid) ~prio ~detached:false
    ~body:(fun () -> 0)
    ~deferred:false

let drain eng =
  let rec go acc =
    let t = RQ.pop_highest eng in
    if t == nil_tcb then List.rev acc else go (t.tid :: acc)
  in
  go []

let test_pop_highest_order () =
  let eng = mk_engine () in
  RQ.remove eng (Engine.current eng);
  (* clear main *)
  ignore (RQ.pop_highest eng);
  RQ.push_tail eng (mk_tcb 1 5);
  RQ.push_tail eng (mk_tcb 2 20);
  RQ.push_tail eng (mk_tcb 3 10);
  check (Alcotest.list int) "descending priority" [ 2; 3; 1 ] (drain eng)

let test_fifo_within_level () =
  let eng = mk_engine () in
  ignore (RQ.pop_highest eng);
  RQ.push_tail eng (mk_tcb 1 7);
  RQ.push_tail eng (mk_tcb 2 7);
  RQ.push_tail eng (mk_tcb 3 7);
  check (Alcotest.list int) "FIFO" [ 1; 2; 3 ] (drain eng)

let test_push_head () =
  let eng = mk_engine () in
  ignore (RQ.pop_highest eng);
  RQ.push_tail eng (mk_tcb 1 7);
  RQ.push_head eng (mk_tcb 2 7);
  check (Alcotest.list int) "head first" [ 2; 1 ] (drain eng)

let test_push_tail_lowest () =
  let eng = mk_engine () in
  ignore (RQ.pop_highest eng);
  let hi = mk_tcb 1 25 in
  RQ.push_tail_lowest eng hi;
  RQ.push_tail eng (mk_tcb 2 3);
  (* hi sits in the lowest queue despite its priority field *)
  check (Alcotest.list int) "positional demotion" [ 2; 1 ] (drain eng)

let test_remove () =
  let eng = mk_engine () in
  ignore (RQ.pop_highest eng);
  let a = mk_tcb 1 7 and b = mk_tcb 2 7 in
  RQ.push_tail eng a;
  RQ.push_tail eng b;
  RQ.remove eng a;
  check (Alcotest.list int) "removed" [ 2 ] (drain eng)

let test_size_iter () =
  let eng = mk_engine () in
  ignore (RQ.pop_highest eng);
  RQ.push_tail eng (mk_tcb 1 1);
  RQ.push_tail eng (mk_tcb 2 30);
  check int "size" 2 (RQ.size eng);
  let seen = ref 0 in
  RQ.iter eng (fun _ -> incr seen);
  check int "iter visits all" 2 !seen

let test_pop_random_deterministic () =
  let rng1 = Vm.Rng.create 9 and rng2 = Vm.Rng.create 9 in
  let run rng =
    let eng = mk_engine () in
    ignore (RQ.pop_highest eng);
    List.iter (fun i -> RQ.push_tail eng (mk_tcb i (i mod 4))) [ 1; 2; 3; 4; 5 ];
    let rec go acc =
      let t = RQ.pop_random eng rng in
      if t == nil_tcb then List.rev acc else go (t.tid :: acc)
    in
    go []
  in
  check (Alcotest.list int) "same seed, same order" (run rng1) (run rng2)

let test_pop_random_empty () =
  let eng = mk_engine () in
  ignore (RQ.pop_highest eng);
  check bool "none" true (RQ.pop_random eng (Vm.Rng.create 1) == nil_tcb)

let prop_pop_sorted =
  qcheck ~count:100 "pop_highest yields non-increasing priorities"
    QCheck2.Gen.(small_list (int_range 0 31))
    (fun prios ->
      let eng = mk_engine () in
      ignore (RQ.pop_highest eng);
      List.iteri (fun i p -> RQ.push_tail eng (mk_tcb i p)) prios;
      let rec go last =
        let t = RQ.pop_highest eng in
        t == nil_tcb || (t.prio <= last && go t.prio)
      in
      go max_prio)

(* ------------------------------------------------------------------ *)
(* Model-based property tests: the bitmap/intrusive implementation vs.
   the seed's naive list representation.                               *)
(* ------------------------------------------------------------------ *)

(* Reference model: level -> tid list, FIFO within a level — exactly the
   [tcb list array] the ready queue used to be. *)
module Model = struct
  type t = int list array

  let create () = Array.make n_prios []
  let push_tail m p tid = m.(p) <- m.(p) @ [ tid ]
  let push_head m p tid = m.(p) <- tid :: m.(p)
  let mem m tid = Array.exists (List.mem tid) m
  let remove m tid =
    Array.iteri (fun i l -> m.(i) <- List.filter (( <> ) tid) l) m

  let size m = Array.fold_left (fun a l -> a + List.length l) 0 m

  let pop_highest m =
    let rec go p =
      if p < min_prio then None
      else
        match m.(p) with
        | [] -> go (p - 1)
        | tid :: rest ->
            m.(p) <- rest;
            Some tid
    in
    go max_prio

  (* The seed's pop_random: one uniform draw over all queued threads,
     counted from the highest level down. *)
  let pop_random m rng =
    let n = size m in
    if n = 0 then None
    else begin
      let idx = Vm.Rng.int rng n in
      let seen = ref 0 and found = ref None and p = ref max_prio in
      while !found = None && !p >= min_prio do
        let l = m.(!p) in
        let len = List.length l in
        if idx < !seen + len then begin
          let tid = List.nth l (idx - !seen) in
          m.(!p) <- List.filter (( <> ) tid) l;
          found := Some tid
        end;
        seen := !seen + len;
        decr p
      done;
      !found
    end
end

let pool_size = 6

(* An op is (kind, thread index, priority); pushes of an already-queued
   thread are skipped on both sides, like the kernel's invariant that a
   thread occupies at most one queue. *)
let gen_ops =
  QCheck2.Gen.(
    list_size (int_range 1 60)
      (triple (int_range 0 4) (int_range 0 (pool_size - 1)) (int_range 0 31)))

let run_model_trace ops ~pop =
  let eng = mk_engine () in
  ignore (RQ.pop_highest eng);
  let model = Model.create () in
  let pool = Array.init pool_size (fun i -> mk_tcb (i + 1) 0) in
  let ok = ref true in
  let record_pop real_tid model_tid =
    if real_tid <> model_tid then ok := false
  in
  (* an empty queue pops [nil_tcb], whose tid is -1 *)
  let opt_tid (t : tcb) = t.tid in
  let model_tid = function Some tid -> tid | None -> -1 in
  List.iter
    (fun (kind, idx, prio) ->
      let t = pool.(idx) in
      let queued = t.q_in != Pthreads.Types.nil_pq in
      if queued <> Model.mem model t.tid then ok := false;
      match kind with
      | 0 ->
          if not queued then begin
            t.prio <- prio;
            RQ.push_tail eng t;
            Model.push_tail model prio t.tid
          end
      | 1 ->
          if not queued then begin
            t.prio <- prio;
            RQ.push_head eng t;
            Model.push_head model prio t.tid
          end
      | 2 ->
          if not queued then begin
            t.prio <- prio;
            RQ.push_tail_lowest eng t;
            Model.push_tail model min_prio t.tid
          end
      | 3 -> record_pop (opt_tid (pop eng)) (model_tid (Model.pop_highest model))
      | _ ->
          RQ.remove eng t;
          Model.remove model t.tid)
    ops;
  if RQ.size eng <> Model.size model then ok := false;
  (* drain both and require identical order *)
  let rec drain_both () =
    let r = opt_tid (pop eng) and m = model_tid (Model.pop_highest model) in
    record_pop r m;
    if r <> -1 || m <> -1 then drain_both ()
  in
  drain_both ();
  !ok

let prop_model_fifo =
  qcheck ~count:300 "bitmap queue = list model (Fifo/Rr pop order)" gen_ops
    (fun ops -> run_model_trace ops ~pop:RQ.pop_highest)

let prop_model_random =
  qcheck ~count:300
    "bitmap queue = list model (Random_switch pop order, paired RNG)"
    QCheck2.Gen.(pair gen_ops (int_range 0 10_000))
    (fun (ops, seed) ->
      (* same seed on both sides: the draws must line up exactly *)
      let rng_real = Vm.Rng.create seed and rng_model = Vm.Rng.create seed in
      let eng = mk_engine () in
      ignore (RQ.pop_highest eng);
      let model = Model.create () in
      let pool = Array.init pool_size (fun i -> mk_tcb (i + 1) 0) in
      let ok = ref true in
      List.iter
        (fun (kind, idx, prio) ->
          let t = pool.(idx) in
          let queued = t.q_in != Pthreads.Types.nil_pq in
          match kind with
          | 0 | 1 | 2 ->
              if not queued then begin
                t.prio <- prio;
                RQ.push_tail eng t;
                Model.push_tail model prio t.tid
              end
          | 3 ->
              let r =
                (RQ.pop_random eng rng_real).tid
              and m =
                match Model.pop_random model rng_model with
                | Some tid -> tid
                | None -> -1
              in
              if r <> m then ok := false
          | _ ->
              RQ.remove eng t;
              Model.remove model t.tid)
        ops;
      let rec drain () =
        let r =
          (RQ.pop_random eng rng_real).tid
        and m =
          match Model.pop_random model rng_model with
          | Some tid -> tid
          | None -> -1
        in
        if r <> m then ok := false;
        if r <> -1 || m <> -1 then drain ()
      in
      drain ();
      !ok)

(* Wait-queue model: the seed kept waiter lists sorted by descending
   priority (FIFO within a level) via [Tcb.insert_by_prio] and re-sorted
   with [List.stable_sort] after a priority change.  The bucketed queue
   must reproduce that order exactly, including after [reposition]. *)
module WQ = Pthreads.Wait_queue

let prop_wait_queue_model =
  qcheck ~count:300 "wait queue = insert_by_prio/stable_sort reference"
    QCheck2.Gen.(
      list_size (int_range 1 60)
        (triple (int_range 0 3) (int_range 0 (pool_size - 1)) (int_range 0 31)))
    (fun ops ->
      let q = WQ.create () in
      let pool = Array.init pool_size (fun i -> mk_tcb (i + 1) 0) in
      (* reference: (tid, prio) list, head = highest priority, oldest first
         within a level *)
      let model = ref [] in
      let ref_insert tid p =
        let rec go = function
          | ((_, p') as x) :: rest when p' >= p -> x :: go rest
          | rest -> (tid, p) :: rest
        in
        model := go !model
      in
      let ref_resort () =
        model :=
          List.stable_sort (fun (_, a) (_, b) -> compare b a) !model
      in
      let ok = ref true in
      let agree () =
        let real = List.map (fun (t : tcb) -> t.tid) (WQ.to_list q) in
        let expect = List.map fst !model in
        if real <> expect then ok := false
      in
      List.iter
        (fun (kind, idx, prio) ->
          let t = pool.(idx) in
          let queued = t.q_in != Pthreads.Types.nil_pq in
          (match kind with
          | 0 ->
              if not queued then begin
                t.prio <- prio;
                WQ.push_tail q t;
                ref_insert t.tid prio
              end
          | 1 ->
              WQ.remove q t;
              model := List.filter (fun (tid, _) -> tid <> t.tid) !model
          | 2 ->
              (* priority change of a queued waiter (inheritance/ceiling) *)
              if queued && t.prio <> prio then begin
                let old_prio = t.prio in
                t.prio <- prio;
                WQ.reposition q t ~old_prio;
                model :=
                  List.map
                    (fun (tid, p) -> if tid = t.tid then (tid, prio) else (tid, p))
                    !model;
                ref_resort ()
              end
          | _ -> (
              let r =
                (WQ.pop_highest q).tid
              and m =
                match !model with
                | (tid, _) :: rest ->
                    model := rest;
                    tid
                | [] -> -1
              in
              if r <> m then ok := false));
          agree ())
        ops;
      !ok)

(* The one-level queue against a per-level list reference, over every
   mutating operation at mixed priorities.  Priorities are drawn mostly
   from two values so runs stay on one level for a while, drain, reuse the
   level for another priority, and spread into buckets when a second
   priority joins the first.  Beyond the order, the property pins the
   representation: buckets exist exactly once two priorities were queued
   at the same time, and a bucket level exists only for a priority that
   was pushed. *)
let prop_one_level_model =
  qcheck ~count:500
    "wait queue = per-level list model (head/tail/remove/pop/reposition)"
    QCheck2.Gen.(
      list_size (int_range 1 80)
        (triple (int_range 0 4) (int_range 0 (pool_size - 1))
           (frequency [ (4, return 9); (3, return 14); (1, int_range 0 31) ])))
    (fun ops ->
      let q = WQ.create () in
      let pool = Array.init pool_size (fun i -> mk_tcb (i + 1) 0) in
      let model = Model.create () in
      let level_of = Array.make (pool_size + 1) 0 in
      let spread = ref false and used = Array.make n_prios false in
      let ok = ref true in
      let model_push ~head t p =
        if Array.exists (fun l -> l <> []) model
           && not (model.(p) <> [] && Model.size model = List.length model.(p))
        then spread := true;
        used.(p) <- true;
        level_of.(t.tid) <- p;
        if head then Model.push_head model p t.tid else Model.push_tail model p t.tid
      in
      let agree () =
        let real = List.map (fun (t : tcb) -> t.tid) (WQ.to_list q) in
        let expect = List.concat (List.rev (Array.to_list model)) in
        if real <> expect || WQ.size q <> Model.size model then ok := false;
        let buckets = Array.length q.pq_levels > 0 in
        if buckets <> !spread then ok := false;
        if buckets then
          Array.iteri
            (fun p l -> if l != nil_level && not used.(p) then ok := false)
            q.pq_levels;
        let best = Model.pop_highest (Array.copy model) in
        let expect_prio =
          match best with Some tid -> level_of.(tid) | None -> -1
        in
        if WQ.highest_prio q <> expect_prio then ok := false
      in
      List.iter
        (fun (kind, idx, prio) ->
          let t = pool.(idx) in
          let queued = t.q_in != nil_pq in
          (match kind with
          | 0 | 1 ->
              if not queued then begin
                t.prio <- prio;
                if kind = 0 then WQ.push_tail q t else WQ.push_head q t;
                model_push ~head:(kind = 1) t prio
              end
          | 2 ->
              WQ.remove q t;
              Model.remove model t.tid
          | 3 ->
              (* a queued waiter's priority changes: a rising thread goes
                 to the tail of its new level, a falling one to the head *)
              if queued && t.prio <> prio then begin
                let old_prio = t.prio in
                t.prio <- prio;
                WQ.reposition q t ~old_prio;
                Model.remove model t.tid;
                model_push ~head:(prio < old_prio) t prio
              end
          | _ ->
              let r = (WQ.pop_highest q).tid in
              let m =
                match Model.pop_highest model with Some tid -> tid | None -> -1
              in
              if r <> m then ok := false);
          agree ())
        ops;
      !ok)

let suite =
  [
    ( "ready_queue",
      [
        tc "pop highest" test_pop_highest_order;
        tc "FIFO within level" test_fifo_within_level;
        tc "push head" test_push_head;
        tc "push tail lowest" test_push_tail_lowest;
        tc "remove" test_remove;
        tc "size/iter" test_size_iter;
        tc "pop random deterministic" test_pop_random_deterministic;
        tc "pop random empty" test_pop_random_empty;
        prop_pop_sorted;
        prop_model_fifo;
        prop_model_random;
        prop_wait_queue_model;
        prop_one_level_model;
      ] );
  ]
