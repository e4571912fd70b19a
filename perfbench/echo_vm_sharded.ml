(* echo-vm-sharded: two domains, one echo instance homed on each shard
   (the shape of the serving benchmark's sharded sweep).  Each instance
   is a listener, an acceptor, a handler per connection and [clients]
   closed-loop clients, all on the vm backend's in-process [Net] pipes,
   with seeded virtual think times and bounded-Pareto virtual service
   times.  The shards spend most of their time idle on virtual timers.
   One op is one round trip whose echo came back byte for byte; host
   wall time is the clock. *)

open Pthreads
module S = Meter.Spans

let domains = 2
let clients = 32
let msg_len = 64
let think_ns = 1_000_000  (* mean virtual think time *)
let service_ns = 100_000  (* Pareto scale of the virtual service time *)

(* Round trips per client before the clock starts. *)
let warm_requests = 20

let sp_read = S.name "net.read"
let sp_write = S.name "net.write"
let sp_request = S.name "echo.request"
let sp_spawn = S.name "shard.spawn"
let sp_await = S.name "shard.await"

(* State of one instance: touched only by threads of its own shard. *)
type inst = {
  index : int;
  spans : S.t;
  lat : Meter.Samples.t;
  mutable failed : int;
  mutable corrupt : int;
  mutable reads : int;
  mutable blocked_reads : int;
  mutable served : int;
}

(* Shared by both shards. *)
type st = {
  seed : int;
  seconds : float;
  traced : bool;
  phase : int Atomic.t;  (* 0 warm-up, 1 timed, 2 stopped *)
  warm : int Atomic.t;  (* clients done warming up *)
  ops : int Atomic.t;  (* verified round trips, all phases *)
  t_start : int Atomic.t;
  deadline : int Atomic.t;
  t_end : int Atomic.t;
  cpu_start : int Atomic.t;
  cpu_end : int Atomic.t;
  ops_start : int Atomic.t;
  ops_end : int Atomic.t;
}

(* A request: its op id, then bytes derived from the seed and the id. *)
let fill_payload ~seed ~id buf =
  Bytes.set_int64_le buf 0 (Int64.of_int id);
  for i = 1 to (msg_len / 8) - 1 do
    Bytes.set_int64_le buf (8 * i) (Int64.of_int (Meter.mix (Meter.mix seed id) i))
  done

let op_id buf = Int64.to_int (Bytes.get_int64_le buf 0)

(* Bounded Pareto (shape 1.3, capped at 50 times the scale) from a hash. *)
let pareto r ~xm =
  let u = Float.max 1e-9 (float_of_int (r land 0xFFFFFF) /. 16777216.0) in
  int_of_float (Float.min (float_of_int xm /. (u ** (1.0 /. 1.3))) (50.0 *. float_of_int xm))

let traced_write st inst proc conn buf =
  if st.traced then begin
    let t0 = Meter.now_ns () in
    Net.write_all proc conn buf ~pos:0 ~len:msg_len;
    S.record inst.spans sp_write ~id:(op_id buf) ~parent:sp_request t0 (Meter.now_ns ())
  end
  else Net.write_all proc conn buf ~pos:0 ~len:msg_len

(* Read one whole message.  In traced runs every [Net.read] call is a
   span, recorded once the message (and so its op id) is in; a server read
   during which the engine dispatched another thread counts as blocked. *)
let read_exactly st inst proc conn buf ~server =
  let spans = ref [] in
  let rec go pos =
    if pos >= msg_len then true
    else begin
      let d0 = if st.traced then Pthreads.dispatch_count proc else 0 in
      let t0 = if st.traced then Meter.now_ns () else 0 in
      let n = Net.read proc conn buf ~pos ~len:(msg_len - pos) in
      if st.traced then spans := (t0, Meter.now_ns ()) :: !spans;
      if server then begin
        inst.reads <- inst.reads + 1;
        if st.traced && Pthreads.dispatch_count proc <> d0 then
          inst.blocked_reads <- inst.blocked_reads + 1
      end;
      if n = 0 then false else go (pos + n)
    end
  in
  let ok = go 0 in
  List.iter
    (fun (a, b) -> S.record inst.spans sp_read ~id:(op_id buf) ~parent:sp_request a b)
    !spans;
  ok

let handler st inst proc conn c () =
  let buf = Bytes.create msg_len in
  let rec serve k =
    if read_exactly st inst proc conn buf ~server:true then begin
      Pthread.delay proc ~ns:(pareto (Meter.mix (Meter.mix st.seed (-c - 1)) k) ~xm:service_ns);
      traced_write st inst proc conn buf;
      inst.served <- inst.served + 1;
      serve (k + 1)
    end
  in
  serve 0;
  Net.close proc conn

let start_window st =
  let now = Meter.now_ns () in
  Atomic.set st.t_start now;
  Atomic.set st.cpu_start (Meter.cpu_ns ());
  Atomic.set st.ops_start (Atomic.get st.ops);
  Atomic.set st.deadline (now + int_of_float (st.seconds *. 1e9));
  Atomic.set st.phase 1

let close_window st now =
  if Atomic.compare_and_set st.phase 1 2 then begin
    Atomic.set st.t_end now;
    Atomic.set st.cpu_end (Meter.cpu_ns ());
    Atomic.set st.ops_end (Atomic.get st.ops)
  end

let client st inst proc ~port c () =
  match Net.connect proc ~port with
  | exception Types.Error _ -> inst.failed <- inst.failed + 1
  | conn ->
      let tx = Bytes.create msg_len and rx = Bytes.create msg_len in
      let cid = (inst.index * clients) + c in
      let rec loop k =
        if Atomic.get st.phase <> 2 then begin
          let r = Meter.mix (Meter.mix st.seed cid) k in
          Pthread.delay proc ~ns:(1 + (r land 0xFFFFFF) mod (2 * think_ns));
          let id = (cid lsl 32) lor k in
          fill_payload ~seed:st.seed ~id tx;
          let timed = Atomic.get st.phase = 1 in
          let t0 = Meter.now_ns () in
          traced_write st inst proc conn tx;
          if not (read_exactly st inst proc conn rx ~server:false) then
            inst.failed <- inst.failed + 1
          else if not (Bytes.equal rx tx) then begin
            inst.corrupt <- inst.corrupt + 1;
            inst.failed <- inst.failed + 1
          end
          else begin
            let t1 = Meter.now_ns () in
            if st.traced then S.record inst.spans sp_request ~id t0 t1;
            if timed then Meter.Samples.add inst.lat (t1 - t0);
            Atomic.incr st.ops;
            if k + 1 = warm_requests
               && Atomic.fetch_and_add st.warm 1 = (domains * clients) - 1
            then start_window st;
            if Atomic.get st.phase = 1 && t1 >= Atomic.get st.deadline then
              close_window st t1;
            loop (k + 1)
          end
        end
      in
      loop 0;
      Net.close proc conn

let instance st inst proc =
  let lst = Net.listen proc ~port:0 () in
  let port = Net.port proc lst in
  let acceptor =
    Pthread.create_unit proc (fun () ->
        let hs =
          List.init clients (fun c ->
              let conn = Net.accept proc lst in
              Pthread.create_unit proc (handler st inst proc conn c))
        in
        List.iter (fun t -> ignore (Pthread.join proc t : Types.exit_status)) hs)
  in
  let cs = List.init clients (fun c -> Pthread.create_unit proc (client st inst proc ~port c)) in
  List.iter (fun t -> ignore (Pthread.join proc t : Types.exit_status)) cs;
  ignore (Pthread.join proc acceptor : Types.exit_status);
  Net.close_listener proc lst;
  0

let run_once ~seed ~seconds ~traced =
  let a () = Atomic.make 0 in
  let st =
    {
      seed; seconds; traced; phase = a (); warm = a (); ops = a ();
      t_start = a (); deadline = a (); t_end = a (); cpu_start = a ();
      cpu_end = a (); ops_start = a (); ops_end = a ();
    }
  in
  let insts =
    Array.init domains (fun index ->
        {
          index; spans = S.create (); lat = Meter.Samples.create (); failed = 0;
          corrupt = 0; reads = 0; blocked_reads = 0; served = 0;
        })
  in
  let root = S.create () in
  let t_boot = Meter.now_ns () in
  let o, shutdown_failed =
    Meter.run_pool ~domains ~seed (fun proc ->
        let hs =
          List.init domains (fun i ->
              let t0 = Meter.now_ns () in
              let h = Shard.spawn proc ~home:i (fun p -> instance st insts.(i) p) in
              if traced then S.record root sp_spawn ~id:i t0 (Meter.now_ns ());
              h)
        in
        List.iteri
          (fun i h ->
            let t0 = Meter.now_ns () in
            ignore (Shard.await proc h : Types.exit_status);
            if traced then S.record root sp_await ~id:i t0 (Meter.now_ns ()))
          hs;
        0)
  in
  Array.iter (fun i -> S.merge_into root i.spans) insts;
  let sum f = Array.fold_left (fun n i -> n + f i) 0 insts in
  let ops = Atomic.get st.ops_end - Atomic.get st.ops_start in
  let elapsed_ns = Atomic.get st.t_end - Atomic.get st.t_start in
  let cpu_ns = Atomic.get st.cpu_end - Atomic.get st.cpu_start in
  let layers =
    if not traced then []
    else
      [
        ("net.read_ns", S.mean_ns root sp_read);
        ("net.write_ns", S.mean_ns root sp_write);
        ("net.read_block_share", Meter.share (sum (fun i -> i.blocked_reads)) (sum (fun i -> i.reads)));
        ("net.reads_per_op", Meter.share (sum (fun i -> i.reads)) (sum (fun i -> i.served)));
        ("shard.spawn_ns", S.mean_ns root sp_spawn);
        ("shard.await_ns", S.mean_ns root sp_await);
      ]
      @ Meter.pool_layers o ~domains ~ops:(Atomic.get st.ops) ~cpu_ns ~elapsed_ns
  in
  ( root,
    {
      Meter.ops;
      failed = sum (fun i -> i.failed);
      shutdown_failed;
      correct = sum (fun i -> i.corrupt) = 0 && Atomic.get st.t_start > 0;
      elapsed_ns;
      cpu_ns;
      setup_ns = Atomic.get st.t_start - t_boot;
      lat = Meter.Samples.sorted_all (Array.to_list (Array.map (fun i -> i.lat) insts));
      layers;
    } )
