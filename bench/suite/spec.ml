(* BENCHMARK.json: the metric names, units, directions and regression
   bounds that [compare] and the smoke test apply. *)

type metric = {
  name : string;
  unit_ : string;
  lower_is_better : bool;
  bound : float;  (** allowed worsening as a share of the parent median *)
}

type t = { end_to_end : metric list; per_layer : metric list }

let load path =
  let text =
    match Measure.read_file path with
    | Some s -> s
    | None -> failwith ("cannot read " ^ path)
  in
  let j =
    match Json_codec.parse text with
    | Ok j -> j
    | Error m -> failwith (path ^ ": " ^ m)
  in
  let metrics key =
    Option.bind (Json_codec.member key j) Json_codec.arr
    |> Option.value ~default:[]
    |> List.map (fun m ->
           {
             name = Option.value (Json_codec.mem_str m "name") ~default:"";
             unit_ = Option.value (Json_codec.mem_str m "unit") ~default:"";
             lower_is_better = Json_codec.mem_str m "better" <> Some "higher";
             bound =
               Option.value
                 (Option.bind (Json_codec.member "bound" m) Json_codec.num)
                 ~default:0.0;
           })
  in
  { end_to_end = metrics "end_to_end"; per_layer = metrics "per_layer" }
