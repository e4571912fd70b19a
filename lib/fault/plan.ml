module Errno = Pthreads.Errno

type action =
  | Spurious_wakeup of int
  | Preempt
  | Trap_fault of string * Errno.t
  | Signal_burst of { signo : int; count : int; thread : int option }
  | Cancel of int
  | Clock_jump of int

type injection = { at : int; act : action }
type t = injection list

let length = List.length
let equal (a : t) (b : t) = a = b

(* ------------------------------------------------------------------ *)
(* Random generation                                                   *)
(* ------------------------------------------------------------------ *)

type kinds = {
  spurious : bool;
  preempt : bool;
  trap_faults : bool;
  bursts : bool;
  cancels : bool;
  jumps : bool;
}

let no_kinds =
  {
    spurious = false;
    preempt = false;
    trap_faults = false;
    bursts = false;
    cancels = false;
    jumps = false;
  }

let all_kinds =
  {
    spurious = true;
    preempt = true;
    trap_faults = true;
    bursts = true;
    cancels = true;
    jumps = true;
  }

let safe_kinds = { all_kinds with cancels = false }

(* Jump magnitudes chosen to straddle typical timed-wait deadlines (tens
   of us to tens of ms in the scenarios). *)
let jump_sizes = [| 10_000; 100_000; 1_000_000; 10_000_000 |]

let menu_of_kinds kinds =
  let add cond gen acc = if cond then gen :: acc else acc in
  []
  |> add kinds.jumps (fun rng ->
         Clock_jump jump_sizes.(Vm.Rng.int rng (Array.length jump_sizes)))
  |> add kinds.cancels (fun rng -> Cancel (Vm.Rng.int rng 4))
  |> add kinds.bursts (fun rng ->
         let signo =
           if Vm.Rng.bool rng then Vm.Sigset.sigusr1 else Vm.Sigset.sigusr2
         in
         let thread =
           if Vm.Rng.bool rng then None else Some (Vm.Rng.int rng 4)
         in
         Signal_burst { signo; count = 1 + Vm.Rng.int rng 3; thread })
  |> add kinds.trap_faults (fun _ -> Trap_fault ("read", Errno.EINTR))
  |> add kinds.preempt (fun _ -> Preempt)
  |> add kinds.spurious (fun rng -> Spurious_wakeup (Vm.Rng.int rng 4))

let random ~seed ~points ~budget kinds =
  let menu = Array.of_list (menu_of_kinds kinds) in
  if Array.length menu = 0 || points <= 0 || budget <= 0 then []
  else begin
    let rng = Vm.Rng.create seed in
    let rec draw n acc =
      if n = 0 then acc
      else begin
        let at = Vm.Rng.int rng points in
        let gen = menu.(Vm.Rng.int rng (Array.length menu)) in
        let act = gen rng in
        draw (n - 1) ({ at; act } :: acc)
      end
    in
    List.stable_sort
      (fun a b -> compare a.at b.at)
      (List.rev (draw budget []))
  end

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let header = "# pthreads-fault plan v1"

let action_to_string = function
  | Spurious_wakeup n -> Printf.sprintf "spurious-wakeup %d" n
  | Preempt -> "preempt"
  | Trap_fault (name, e) ->
      Printf.sprintf "trap-fault %s %s" name (Errno.to_string e)
  | Signal_burst { signo; count; thread } ->
      Printf.sprintf "signal-burst %d %d %s" signo count
        (match thread with None -> "proc" | Some n -> "thread " ^ string_of_int n)
  | Cancel n -> Printf.sprintf "cancel %d" n
  | Clock_jump ns -> Printf.sprintf "clock-jump %d" ns

let to_string (t : t) =
  Obs.Line_codec.render ~header
    (List.map
       (fun { at; act } -> Printf.sprintf "@%d %s" at (action_to_string act))
       t)

let action_of_tokens =
  let int = Obs.Line_codec.int in
  function
  | [ "spurious-wakeup"; n ] -> Spurious_wakeup (int "thread index" n)
  | [ "preempt" ] -> Preempt
  | [ "trap-fault"; name; e ] -> (
      match Errno.of_string e with
      | Some e -> Trap_fault (name, e)
      | None -> Obs.Line_codec.fail "unknown errno: %s" e)
  | [ "signal-burst"; signo; count; "proc" ] ->
      Signal_burst
        { signo = int "signo" signo; count = int "count" count; thread = None }
  | [ "signal-burst"; signo; count; "thread"; n ] ->
      Signal_burst
        {
          signo = int "signo" signo;
          count = int "count" count;
          thread = Some (int "thread index" n);
        }
  | [ "cancel"; n ] -> Cancel (int "thread index" n)
  | [ "clock-jump"; ns ] -> Clock_jump (int "clock jump" ns)
  | toks ->
      Obs.Line_codec.fail "unrecognized action: %s" (String.concat " " toks)

let of_string =
  Obs.Line_codec.parse ~what:"fault plan" ~header
    (List.map (function
      | at :: toks ->
          {
            at = Obs.Line_codec.at "injection point" at;
            act = action_of_tokens toks;
          }
      | [] -> assert false (* the codec drops blank lines *)))

let pp ppf (t : t) =
  Format.fprintf ppf "[%s]"
    (String.concat "; "
       (List.map
          (fun { at; act } -> Printf.sprintf "@%d %s" at (action_to_string act))
          t))
