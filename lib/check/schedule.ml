type t = int array

let header = "# pthreads-explore schedule v1"

let of_list = Array.of_list
let to_list = Array.to_list
let length = Array.length
let equal (a : t) (b : t) = a = b

(* 20 decisions per line, so long schedules stay diffable *)
let to_string (t : t) =
  let n = Array.length t in
  let line k =
    Array.sub t (20 * k) (min 20 (n - (20 * k)))
    |> Array.to_list |> List.map string_of_int |> String.concat " "
  in
  Obs.Line_codec.render ~header (List.init ((n + 19) / 20) line)

let of_string =
  Obs.Line_codec.parse ~what:"schedule" ~header (fun records ->
      Array.of_list
        (List.concat_map (List.map (Obs.Line_codec.int "decision")) records))

let pp ppf (t : t) =
  Format.fprintf ppf "[%s]"
    (String.concat " " (List.map string_of_int (Array.to_list t)))
