(* Hierarchical timing wheel.  See timer_wheel.mli for the design story.

   Geometry: 13 levels of 32 slots.  32 slots per level keeps each level's
   occupancy bitmap inside one OCaml int (63 usable bits), and 13 levels x
   5 bits = 65 bits of range, so any representable expiry fits without an
   overflow bucket.  Level [l] slots span [2^(5l)] ns; level 0 slots span a
   single nanosecond, which is what makes same-tick firing order exact.

   A timer at distance [delta] from the wheel's current time lives at the
   smallest level whose 32-slot window reaches it (delta < 2^(5(l+1))), in
   the slot indexed by its absolute expiry ([expiry >> 5l] mod 32).  Each
   occupied slot holds timers from a single 32-slot "lap": any two timers
   that hash to the same slot while both are armed provably share the same
   slot-start time, so we can store that deadline explicitly per slot and
   never solve the modular which-lap puzzle that plagues cursor-only
   wheels.  For level 0 the stored deadline is the exact expiry (every
   level-0 slot holds exactly one expiry value).

   [advance] repeatedly takes the earliest-deadline occupied slot — ties
   broken toward the *highest* level so that a bucket cascading at time
   [d] merges its expiry-[d] timers into the level-0 slot before that slot
   fires, preserving global (expiry, id) order — moves the wheel's time to
   that deadline, and either fires the bucket (level 0) or re-inserts its
   timers one level down.  Cascading strictly decreases a timer's level,
   so each timer is re-bucketed at most [levels] times in its life: O(1)
   amortized. *)

let slot_bits = 5
let slots_per_level = 1 lsl slot_bits
let slot_mask = slots_per_level - 1
let levels = 13

type 'a timer = {
  id : int;
  payload : 'a;
  mutable expiry : int;
  mutable interval : int;
  mutable t_next : 'a timer option;
  mutable t_prev : 'a timer option;
  mutable t_level : int;
  mutable t_slot : int;
}

type 'a t = {
  mutable current : int;
  mutable next_id : int;
  slots : 'a timer option array array;
  (* Slot-start deadline of each occupied slot; only meaningful where the
     level's bitmap bit is set. *)
  deadlines : int array array;
  bitmaps : int array;
  (* Earliest deadline among a level's occupied slots; [max_int] when the
     level is empty.  Kept exact: rescanned (32 reads) whenever the slot
     holding the minimum is consumed or emptied. *)
  level_min : int array;
  by_id : (int, 'a timer) Hashtbl.t;
  mutable n_armed : int;
  mutable peak : int;
  mutable n_cascades : int;
}

let create () =
  {
    current = 0;
    next_id = 1;
    slots = Array.init levels (fun _ -> Array.make slots_per_level None);
    deadlines = Array.init levels (fun _ -> Array.make slots_per_level 0);
    bitmaps = Array.make levels 0;
    level_min = Array.make levels max_int;
    by_id = Hashtbl.create 64;
    n_armed = 0;
    peak = 0;
    n_cascades = 0;
  }

let now w = w.current
let armed w = w.n_armed
let peak_armed w = w.peak
let cascades w = w.n_cascades

(* Smallest level whose window covers [delta]; the top level covers
   everything (its guard also keeps the shift below 63). *)
let level_for delta =
  let rec go l =
    if l = levels - 1 || delta < 1 lsl (slot_bits * (l + 1)) then l
    else go (l + 1)
  in
  go 0

let rescan_min w l =
  let bits = w.bitmaps.(l) and dl = w.deadlines.(l) in
  let m = ref max_int in
  for s = 0 to slots_per_level - 1 do
    if bits land (1 lsl s) <> 0 && dl.(s) < !m then m := dl.(s)
  done;
  w.level_min.(l) <- !m

let insert w r =
  let delta =
    let d = r.expiry - w.current in
    if d < 0 then 0 else d
  in
  let l = level_for delta in
  let shift = slot_bits * l in
  let s = (r.expiry lsr shift) land slot_mask in
  let sd = if l = 0 then r.expiry else (r.expiry lsr shift) lsl shift in
  r.t_level <- l;
  r.t_slot <- s;
  r.t_prev <- None;
  r.t_next <- w.slots.(l).(s);
  (match w.slots.(l).(s) with Some h -> h.t_prev <- Some r | None -> ());
  w.slots.(l).(s) <- Some r;
  w.bitmaps.(l) <- w.bitmaps.(l) lor (1 lsl s);
  w.deadlines.(l).(s) <- sd;
  if sd < w.level_min.(l) then w.level_min.(l) <- sd

let unlink w r =
  (match r.t_prev with
  | Some p -> p.t_next <- r.t_next
  | None -> w.slots.(r.t_level).(r.t_slot) <- r.t_next);
  (match r.t_next with Some n -> n.t_prev <- r.t_prev | None -> ());
  (match w.slots.(r.t_level).(r.t_slot) with
  | Some _ -> ()
  | None ->
      w.bitmaps.(r.t_level) <- w.bitmaps.(r.t_level) land lnot (1 lsl r.t_slot);
      if w.deadlines.(r.t_level).(r.t_slot) = w.level_min.(r.t_level) then
        rescan_min w r.t_level);
  r.t_level <- -1;
  r.t_next <- None;
  r.t_prev <- None

let arm w ~now ~after_ns ~interval_ns payload =
  let id = w.next_id in
  w.next_id <- id + 1;
  let floor = if now > w.current then now else w.current in
  let expiry =
    let e = now + after_ns in
    if e < floor then floor else e
  in
  let r =
    {
      id;
      payload;
      expiry;
      interval = interval_ns;
      t_next = None;
      t_prev = None;
      t_level = -1;
      t_slot = 0;
    }
  in
  Hashtbl.replace w.by_id id r;
  insert w r;
  w.n_armed <- w.n_armed + 1;
  if w.n_armed > w.peak then w.peak <- w.n_armed;
  id

let disarm w id =
  match Hashtbl.find_opt w.by_id id with
  | None -> false
  | Some r ->
      Hashtbl.remove w.by_id id;
      unlink w r;
      w.n_armed <- w.n_armed - 1;
      true

(* The level holding the earliest occupied-slot deadline ([-1] when the
   wheel is empty); its deadline is [level_min.(l)].  Scanning levels
   upward with [<=] makes the highest level win ties — the
   cascade-before-fire order that keeps same-deadline batches id-sorted. *)
let min_level w =
  let best_d = ref max_int and best_l = ref (-1) in
  for l = 0 to levels - 1 do
    let m = w.level_min.(l) in
    if m < max_int && m <= !best_d then begin
      best_d := m;
      best_l := l
    end
  done;
  !best_l

let next_expiry w =
  let l = min_level w in
  if l < 0 then None else Some w.level_min.(l)

let min_slot w l =
  let bits = w.bitmaps.(l) and dl = w.deadlines.(l) in
  let target = w.level_min.(l) in
  let found = ref (-1) in
  for s = 0 to slots_per_level - 1 do
    if !found < 0 && bits land (1 lsl s) <> 0 && dl.(s) = target then found := s
  done;
  !found

let detach_bucket w l s =
  let head = w.slots.(l).(s) in
  w.slots.(l).(s) <- None;
  w.bitmaps.(l) <- w.bitmaps.(l) land lnot (1 lsl s);
  if w.deadlines.(l).(s) = w.level_min.(l) then rescan_min w l;
  head

let rec cascade w = function
  | None -> ()
  | Some r ->
      let next = r.t_next in
      r.t_next <- None;
      r.t_prev <- None;
      w.n_cascades <- w.n_cascades + 1;
      insert w r;
      cascade w next

let fire_bucket w ~now ~fire head =
  let rec collect acc = function
    | None -> acc
    | Some r ->
        let next = r.t_next in
        r.t_next <- None;
        r.t_prev <- None;
        r.t_level <- -1;
        collect (r :: acc) next
  in
  let batch =
    List.sort
      (fun a b ->
        if a.expiry <> b.expiry then compare a.expiry b.expiry
        else compare a.id b.id)
      (collect [] head)
  in
  List.iter
    (fun r ->
      if r.interval > 0 then begin
        (* BSD catch-up: a slow consumer sees one firing per check, missed
           periods collapse; same formula the list-based kernel used. *)
        (if now >= r.expiry + r.interval then
           let missed = (now - r.expiry) / r.interval in
           r.expiry <- r.expiry + ((missed + 1) * r.interval)
         else r.expiry <- r.expiry + r.interval);
        insert w r
      end
      else begin
        Hashtbl.remove w.by_id r.id;
        w.n_armed <- w.n_armed - 1
      end;
      fire ~id:r.id r.payload)
    batch

let rec advance w ~now ~fire =
  let l = min_level w in
  if l >= 0 && w.level_min.(l) <= now then begin
    let d = w.level_min.(l) in
    let head = detach_bucket w l (min_slot w l) in
    if d > w.current then w.current <- d;
    if l = 0 then fire_bucket w ~now ~fire head else cascade w head;
    advance w ~now ~fire
  end
  else if now > w.current then w.current <- now
