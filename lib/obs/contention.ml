module Trace = Vm.Trace

type report = {
  c_name : string;
  acquisitions : int;
  contended : int;
  hold : Histogram.t;
  wait : Histogram.t;
}

type acc = {
  mutable a_acquisitions : int;
  mutable a_contended : int;
  a_hold : Histogram.t;
  a_wait : Histogram.t;
  (* (tid, t_ns) of the current holder's lock *)
  mutable held_since : (int * int) option;
  (* tid -> block timestamp, for waits still in progress *)
  blocked_since : (int, int) Hashtbl.t;
}

let of_events events =
  let mutexes : (string, acc) Hashtbl.t = Hashtbl.create 8 in
  let get name =
    match Hashtbl.find_opt mutexes name with
    | Some a -> a
    | None ->
        let a =
          {
            a_acquisitions = 0;
            a_contended = 0;
            a_hold = Histogram.create ();
            a_wait = Histogram.create ();
            held_since = None;
            blocked_since = Hashtbl.create 4;
          }
        in
        Hashtbl.replace mutexes name a;
        a
  in
  let last_t = ref 0 in
  List.iter
    (fun (e : Trace.event) ->
      last_t := max !last_t e.t_ns;
      match e.kind with
      | Trace.Mutex_block m ->
          let a = get m in
          if not (Hashtbl.mem a.blocked_since e.tid) then
            Hashtbl.replace a.blocked_since e.tid e.t_ns
      | Trace.Mutex_lock m ->
          let a = get m in
          a.a_acquisitions <- a.a_acquisitions + 1;
          (match Hashtbl.find_opt a.blocked_since e.tid with
          | Some t0 ->
              Hashtbl.remove a.blocked_since e.tid;
              a.a_contended <- a.a_contended + 1;
              Histogram.add a.a_wait (e.t_ns - t0)
          | None -> ());
          a.held_since <- Some (e.tid, e.t_ns)
      | Trace.Mutex_unlock m ->
          let a = get m in
          (match a.held_since with
          | Some (tid, t0) when tid = e.tid ->
              a.held_since <- None;
              Histogram.add a.a_hold (e.t_ns - t0)
          | _ -> ())
      | _ -> ())
    events;
  (* close what the trace left open — same horizon rule as Trace_stats *)
  let reports =
    Hashtbl.fold
      (fun name a out ->
        (match a.held_since with
        | Some (_, t0) -> Histogram.add a.a_hold (!last_t - t0)
        | None -> ());
        Hashtbl.iter
          (fun _tid t0 -> Histogram.add a.a_wait (!last_t - t0))
          a.blocked_since;
        {
          c_name = name;
          acquisitions = a.a_acquisitions;
          contended = a.a_contended;
          hold = a.a_hold;
          wait = a.a_wait;
        }
        :: out)
      mutexes []
  in
  List.sort
    (fun a b -> compare (Histogram.total b.wait) (Histogram.total a.wait))
    reports

let total_wait_ns reports =
  List.fold_left (fun acc r -> acc + Histogram.total r.wait) 0 reports

let top_offenders ?(limit = 3) reports =
  List.filteri (fun i _ -> i < limit) reports

let pp ppf reports =
  Format.fprintf ppf "@[<v>%-12s %6s %9s %12s %12s@ " "mutex" "acqs"
    "contended" "wait-ns" "hold-ns";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-12s %6d %9d %12d %12d@ " r.c_name r.acquisitions
        r.contended (Histogram.total r.wait) (Histogram.total r.hold))
    reports;
  (match reports with
  | worst :: _ when Histogram.count worst.wait > 0 ->
      Format.fprintf ppf "wait-time histogram of %s:@ %a@ " worst.c_name
        Histogram.pp worst.wait
  | _ -> ());
  Format.fprintf ppf "@]"

let to_json reports =
  Json.Arr
    (List.map
       (fun r ->
         Json.Obj
           [
             ("name", Json.Str r.c_name);
             ("acquisitions", Json.int r.acquisitions);
             ("contended", Json.int r.contended);
             ("hold", Histogram.to_json r.hold);
             ("wait", Histogram.to_json r.wait);
           ])
       reports)
