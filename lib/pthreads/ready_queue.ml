open Types
module Rng = Import.Rng

(* The ready structure is one [Wait_queue.pq]: intrusive FIFO deques per
   priority plus a bitmap of non-empty levels.  Every operation below is
   O(1) except [pop_random], which the perverted random policy pays O(n)
   for a single walk (it used to be O(n^2): List.nth + List.filter per
   level). *)

let push_tail eng t = Wait_queue.push_tail eng.ready t
let push_head eng t = Wait_queue.push_head eng.ready t
let push_tail_lowest eng t = Wait_queue.push_tail_at eng.ready t min_prio
let remove eng t = Wait_queue.remove eng.ready t
let highest_prio eng = Wait_queue.highest_prio eng.ready
let pop_highest eng = Wait_queue.pop_highest eng.ready
let size eng = Wait_queue.size eng.ready
let iter eng f = Wait_queue.iter eng.ready f

let pop_random eng rng =
  let q = eng.ready in
  let n = Wait_queue.size q in
  if n = 0 then nil_tcb
  else begin
    let idx = Rng.int rng n in
    (* Walk levels top-down counting until the chosen index — the same
       order the list implementation counted in, so identical seeds pick
       identical threads. *)
    let found = ref nil_tcb in
    let seen = ref 0 in
    let p = ref max_prio in
    while !found == nil_tcb && !p >= min_prio do
      let l = Wait_queue.level q !p in
      if idx < !seen + l.lv_len then begin
        let t = ref l.lv_head in
        for _ = 1 to idx - !seen do
          t := !t.q_next
        done;
        assert (!t != nil_tcb);
        Wait_queue.remove q !t;
        found := !t
      end
      else seen := !seen + l.lv_len;
      decr p
    done;
    !found
  end
