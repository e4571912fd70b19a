(* echo-unix: a real loopback TCP echo server, [Pthreads.run] on the
   unix backend on one domain, driven by an external closed-loop
   generator: [conns] connections (one per host core), 64-byte requests,
   no think time, no service delay.  The generator is a child process
   forked before each round, using plain sockets, so the library
   process's CPU time excludes it.  One op is one round trip whose echo
   came back byte for byte.

   For each round the server and the generator are pinned to one CPU,
   the one the server is on when the round starts, as on the paper's
   uniprocessor.  Left to the OS, the two processes sometimes share a CPU,
   so that the server finds both connections' requests waiting at once,
   and sometimes run on two, so that it wakes for each request alone.
   Which happens depends on the host's other load, and it spread the
   middle half of ten runs' throughput over up to half its median.
   Pinned, every round is the first case, and the other CPUs are left to
   the host.

   A request carries its op id and its send time (CLOCK_MONOTONIC, which
   both processes share), so a traced server can clip each request's
   server-side spans to the part after the request existed. *)

open Pthreads
module S = Meter.Spans

let msg_len = 64
let conns = max 1 (min 8 (Domain.recommended_domain_count ()))

(* Round trips per connection before the clock starts. *)
let warm_requests = 2_000

(* A request with no reply after this long has failed; its connection is
   abandoned for the rest of the round. *)
let reply_timeout_ns = 1_000_000_000

let sp_request = S.name "echo.request"
let sp_read = S.name "net.read"
let sp_write = S.name "net.write"

(* ------------------------------------------------------------------ *)
(* The generator (child process, no library)                           *)
(* ------------------------------------------------------------------ *)

(* What one round of the generator reports back through a pipe. *)
type gen_result = {
  g_ops : int;  (** verified round trips sent in the timed window *)
  g_failed : int;  (** refused or reset connections, corrupt echoes *)
  g_corrupt : int;
  g_elapsed_ns : int;
  g_lat : int array;  (** every timed round trip, ns, sorted *)
}

let payload ~seed ~id ~sent buf =
  Bytes.set_int64_le buf 0 (Int64.of_int id);
  Bytes.set_int64_le buf 8 (Int64.of_int sent);
  for i = 2 to (msg_len / 8) - 1 do
    Bytes.set_int64_le buf (8 * i) (Int64.of_int (Meter.mix (Meter.mix seed id) i))
  done

let connect port =
  let rec go tries =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
    | () ->
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        Ok fd
    | exception Unix.Unix_error (e, _, _) ->
        Unix.close fd;
        if tries <= 1 then Error e
        else begin
          Unix.sleepf 0.001;
          go (tries - 1)
        end
  in
  go 100

type gconn = {
  fd : Unix.file_descr;
  tx : Bytes.t;
  rx : Bytes.t;
  mutable got : int;
  mutable sent_at : int;
  mutable k : int;
  mutable busy : bool;  (* a request is in flight *)
}

(* One round: connect, warm up, then a closed loop until the deadline;
   every in-flight request is allowed to finish or time out. *)
let gen_round ~seed ~port ~seconds =
  let failed = ref 0 and corrupt = ref 0 and ops = ref 0 in
  let lat = Meter.Samples.create () in
  let cs =
    List.init conns (fun _ -> connect port)
    |> List.filter_map (function
         | Ok fd ->
             Some
               { fd; tx = Bytes.create msg_len; rx = Bytes.create msg_len;
                 got = 0; sent_at = 0; k = 0; busy = false }
         | Error _ ->
             incr failed;
             None)
    |> Array.of_list
  in
  let warm_left = ref (warm_requests * conns) in
  let t_start = ref max_int and deadline = ref max_int and t_last = ref 0 in
  let sending () =
    !warm_left > 0 || Meter.now_ns () < !deadline
  in
  let send ci c =
    let id = (ci lsl 32) lor c.k in
    c.k <- c.k + 1;
    c.sent_at <- Meter.now_ns ();
    payload ~seed ~id ~sent:c.sent_at c.tx;
    c.got <- 0;
    c.busy <- true;
    match Unix.write c.fd c.tx 0 msg_len with
    | n when n = msg_len -> ()
    | _ | (exception Unix.Unix_error _) ->
        incr failed;
        c.busy <- false
  in
  Array.iteri send cs;
  let live () = List.filter (fun c -> c.busy) (Array.to_list cs) in
  let rec loop () =
    let now = Meter.now_ns () in
    List.iter
      (fun c ->
        if now - c.sent_at >= reply_timeout_ns then begin
          incr failed;
          c.busy <- false
        end)
      (live ());
    match live () with
    | [] -> ()
    | l ->
        let first_due = List.fold_left (fun m c -> min m c.sent_at) max_int l in
        let timeout = float_of_int (first_due + reply_timeout_ns - now) /. 1e9 in
        let ready, _, _ =
          try Unix.select (List.map (fun c -> c.fd) l) [] [] (Float.max 0.0 timeout)
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        Array.iteri
          (fun ci c ->
            if c.busy && List.memq c.fd ready then
              match Unix.read c.fd c.rx c.got (msg_len - c.got) with
              | 0 | (exception Unix.Unix_error _) ->
                  incr failed;
                  c.busy <- false
              | n ->
                  c.got <- c.got + n;
                  if c.got = msg_len then begin
                    let now = Meter.now_ns () in
                    c.busy <- false;
                    if not (Bytes.equal c.rx c.tx) then begin
                      incr corrupt;
                      incr failed
                    end
                    else if c.sent_at >= !t_start then begin
                      incr ops;
                      Meter.Samples.add lat (now - c.sent_at);
                      t_last := now
                    end
                    else if !warm_left > 0 then begin
                      decr warm_left;
                      if !warm_left = 0 then begin
                        t_start := now;
                        deadline := now + int_of_float (seconds *. 1e9)
                      end
                    end;
                    if sending () then send ci c
                  end)
          cs;
        loop ()
  in
  loop ();
  Array.iter (fun c -> Unix.close c.fd) cs;
  {
    g_ops = !ops;
    g_failed = !failed;
    g_corrupt = !corrupt;
    g_elapsed_ns = (if !ops = 0 then 0 else !t_last - !t_start);
    g_lat = Meter.Samples.sorted lat;
  }

(* ------------------------------------------------------------------ *)
(* The generator process, forked for each round                        *)
(* ------------------------------------------------------------------ *)

type child = { pid : int; port_out : out_channel; result_in : in_channel }

(* The child reads the server's port from one pipe, runs the round and
   sends a marshalled [gen_result] back through the other. *)
let fork_generator ~seed ~seconds =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let port_r, port_w = Unix.pipe ~cloexec:true () in
  let res_r, res_w = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Unix.close port_w;
      Unix.close res_r;
      (try
         let port = int_of_string (input_line (Unix.in_channel_of_descr port_r)) in
         let oc = Unix.out_channel_of_descr res_w in
         Marshal.to_channel oc (gen_round ~seed ~port ~seconds) [];
         flush oc
       with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close port_r;
      Unix.close res_w;
      {
        pid;
        port_out = Unix.out_channel_of_descr port_w;
        result_in = Unix.in_channel_of_descr res_r;
      }

(* ------------------------------------------------------------------ *)
(* The server (this process)                                           *)
(* ------------------------------------------------------------------ *)

type srv = {
  traced : bool;
  spans : S.t;
  mutable echoed : int;
  mutable timing : bool;
  mutable t_ready : int;
  mutable eng_start : int;  (* engine clock over the timed window *)
  mutable eng_end : int;
  mutable cpu_start : int;
  mutable cpu_end : int;
  mutable echoed_start : int;
  mutable echoed_end : int;
  mutable c_start : Meter.counters;
  mutable c_end : Meter.counters;
  mutable reads : int;
  mutable blocked_reads : int;
  mutable covered_ns : int;
  mutable covered_n : int;
  mutable serving : Pthread.t list;  (* handlers still running *)
  mutable round_over : bool;  (* the generator has hung up *)
}

(* A handler waiting to read can miss its SIGIO doorbell: the library
   keeps one pending SIGIO, so when two readers' completions land
   together one signal is lost and one reader sleeps on with its data
   ready.  During a round the other connection's next completion rings
   again; once the generator hangs up nothing would, and the handler
   would never see the end of its stream.  So after the round, ring for
   the handlers still running every 20 ms until they have all ended. *)
let ring_until_done s proc () =
  while s.serving <> [] do
    Pthread.delay proc ~ns:20_000_000;
    List.iter
      (fun tid -> try Signal_api.kill proc tid Vm.Sigset.sigio with Types.Error _ -> ())
      s.serving
  done

(* One connection: read a whole request, echo it, until EOF. *)
let handler s proc conn () =
  let buf = Bytes.create msg_len in
  let reads = ref [] in
  let rec fill pos =
    if pos >= msg_len then true
    else begin
      let d0 = if s.traced then Pthreads.dispatch_count proc else 0 in
      let t0 = if s.traced then Meter.now_ns () else 0 in
      let n = Net.read proc conn buf ~pos ~len:(msg_len - pos) in
      if s.traced then begin
        let blocked = Pthreads.dispatch_count proc <> d0 in
        reads := (t0, Meter.now_ns ()) :: !reads;
        if s.timing then begin
          s.reads <- s.reads + 1;
          if blocked then s.blocked_reads <- s.blocked_reads + 1
        end
      end;
      if n = 0 then false else fill (pos + n)
    end
  in
  let rec serve () =
    reads := [];
    if fill 0 then begin
      let t_w = if s.traced then Meter.now_ns () else 0 in
      Net.write_all proc conn buf ~pos:0 ~len:msg_len;
      if s.traced then begin
        let t_end = Meter.now_ns () in
        let id = Int64.to_int (Bytes.get_int64_le buf 0) in
        let sent = Int64.to_int (Bytes.get_int64_le buf 8) in
        let t_req = List.fold_left (fun acc (a, _) -> min acc a) t_w !reads in
        List.iter (fun (a, b) -> S.record s.spans sp_read ~id ~parent:sp_request a b) !reads;
        S.record s.spans sp_write ~id ~parent:sp_request t_w t_end;
        S.record s.spans sp_request ~id t_req t_end;
        if s.timing then begin
          s.covered_ns <- s.covered_ns + (t_end - max t_req sent);
          s.covered_n <- s.covered_n + 1
        end
      end;
      s.echoed <- s.echoed + 1;
      if s.echoed = warm_requests * conns then begin
        s.t_ready <- Meter.now_ns ();
        s.timing <- true;
        s.cpu_start <- Meter.cpu_ns ();
        s.eng_start <- Pthread.now proc;
        s.echoed_start <- s.echoed;
        s.c_start <- Meter.snapshot proc
      end;
      serve ()
    end
    else begin
      if s.timing then begin
        (* the first end of stream closes the server's window *)
        s.timing <- false;
        s.cpu_end <- Meter.cpu_ns ();
        s.eng_end <- Pthread.now proc;
        s.echoed_end <- s.echoed;
        s.c_end <- Meter.snapshot proc
      end;
      if not s.round_over then begin
        s.round_over <- true;
        ignore (Pthread.create_unit proc (ring_until_done s proc) : Pthread.t)
      end
    end
  in
  serve ();
  Net.close proc conn;
  let self = Pthread.self proc in
  s.serving <- List.filter (fun t -> not (Pthread.equal t self)) s.serving

(* Exact Ready -> Dispatch_in delays from the engine trace, with the rule
   of [Obs.Latency]: a thread re-marked ready keeps its first timestamp.
   Only events of the server's timed window count, so the warm-up and the
   drain after the generator stops are left out. *)
let dispatch_latencies s events =
  let since = Hashtbl.create 16 in
  let out = Meter.Samples.create () in
  List.iter
    (fun (e : Vm.Trace.event) ->
      match e.kind with
      | Vm.Trace.Ready -> if not (Hashtbl.mem since e.tid) then Hashtbl.replace since e.tid e.t_ns
      | Vm.Trace.Dispatch_in -> (
          match Hashtbl.find_opt since e.tid with
          | Some t0 ->
              Hashtbl.remove since e.tid;
              Meter.Samples.add out (e.t_ns - t0)
          | None -> ())
      | _ -> ())
    (List.filter
       (fun (e : Vm.Trace.event) -> e.t_ns >= s.eng_start && e.t_ns <= s.eng_end)
       events);
  Meter.Samples.sorted out

let run_once ~seed ~seconds ~traced =
  Meter.pin_here ();
  let gen = fork_generator ~seed ~seconds in
  let s =
    {
      traced; spans = S.create (); echoed = 0; timing = false; t_ready = 0;
      eng_start = 0; eng_end = 0;
      cpu_start = 0; cpu_end = 0; echoed_start = 0; echoed_end = 0;
      c_start = Meter.zero_counters; c_end = Meter.zero_counters; reads = 0;
      blocked_reads = 0; covered_ns = 0; covered_n = 0; serving = [];
      round_over = false;
    }
  in
  let dispatch = ref [||] in
  let t_boot = Meter.now_ns () in
  let status, _ =
    Pthreads.run ~backend:(unix_backend ()) ~trace:traced (fun proc ->
        if traced then Vm.Trace.set_capacity proc.Types.trace (Some 400_000);
        let lst = Net.listen proc ~port:0 () in
        Printf.fprintf gen.port_out "%d\n" (Net.port proc lst);
        close_out gen.port_out;
        let cs = List.init conns (fun _ -> Net.accept proc lst) in
        s.serving <- List.map (fun c -> Pthread.create_unit proc (handler s proc c)) cs;
        List.iter
          (fun t -> ignore (Pthread.join proc t : Types.exit_status))
          s.serving;
        Net.close_listener proc lst;
        if traced then dispatch := dispatch_latencies s (Pthread.trace_events proc);
        0)
  in
  let g : gen_result = Marshal.from_channel gen.result_in in
  close_in gen.result_in;
  ignore (Unix.waitpid [] gen.pid : int * Unix.process_status);
  Meter.unpin ();
  let srv_ops = s.echoed_end - s.echoed_start in
  (* the server's CPU per echo, charged to each verified op *)
  let cpu_ns =
    if srv_ops <= 0 then 0
    else (s.cpu_end - s.cpu_start) * g.g_ops / srv_ops
  in
  let layers =
    if not traced then []
    else
      let client_mean =
        float_of_int (Array.fold_left ( + ) 0 g.g_lat)
        /. float_of_int (max 1 (Array.length g.g_lat))
      in
      let covered_mean = float_of_int s.covered_ns /. float_of_int (max 1 s.covered_n) in
      [
        ("net.read_ns", S.mean_ns s.spans sp_read);
        ("net.write_ns", S.mean_ns s.spans sp_write);
        ("net.read_block_share", Meter.share s.blocked_reads s.reads);
        ("net.reads_per_op", Meter.share s.reads srv_ops);
        ("engine.dispatch_latency_p50_ns", float_of_int (Meter.percentile !dispatch 50.0));
        ("engine.dispatch_latency_p99_ns", float_of_int (Meter.percentile !dispatch 99.0));
        ("echo.unattributed_share", 1.0 -. (covered_mean /. client_mean));
      ]
      @ Meter.counter_layers (Meter.diff s.c_end s.c_start) ~ops:srv_ops
  in
  ( s.spans,
    {
      Meter.ops = g.g_ops;
      failed = g.g_failed;
      shutdown_failed = 0;
      correct = g.g_corrupt = 0 && s.t_ready > 0 && status = Some (Types.Exited 0);
      elapsed_ns = g.g_elapsed_ns;
      cpu_ns;
      setup_ns = s.t_ready - t_boot;
      lat = g.g_lat;
      layers;
    } )
