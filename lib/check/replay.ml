type report = {
  outcome : Explore.failure_kind option;
  steps : int;
  diverged_at : int option;
}

let run ?config mk sched =
  let outcome, steps, diverged_at = Explore.replay ?config mk sched in
  { outcome; steps; diverged_at }

let of_file ?config mk path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Schedule.of_string text with
  | Error e -> Error (path ^ ": " ^ e)
  | Ok sched -> Ok (run ?config mk sched)

let pp_report ppf r =
  Format.fprintf ppf "%s in %d steps%s"
    (match r.outcome with
    | Some k -> Explore.failure_kind_to_string k
    | None -> "completed cleanly")
    r.steps
    (match r.diverged_at with
    | None -> ""
    | Some k -> Printf.sprintf " (diverged at decision %d)" k)
