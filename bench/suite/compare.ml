(* [benchmark.exe compare PARENT CHANGE]: a verdict per (workload,
   end-to-end metric) from runs of two commits, recorded alternately with
   [run --out] (one JSON line per workload run).

   - better: the change wins at least 9 in 10 of the index-paired runs
     (ties count for neither) and its median moved by more than the
     parent's interquartile range;
   - unresolved: either side's spread (IQR over median) is wider than
     the bound, unless every change run beats every parent run;
   - worse: the change median is worse than the parent's by more than
     the bound;
   - unchanged: otherwise. *)

(* Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so
   the spreads read the same as those computed by other tools. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

type side = {
  values : float list;
  q1 : float;
  med : float;
  q3 : float;
}

let side values =
  let q1, med, q3 = quartiles values in
  { values; q1; med; q3 }

let spread s = if s.med = 0.0 then 0.0 else (s.q3 -. s.q1) /. s.med

let verdict (m : Spec.metric) p c =
  let better x y = if m.Spec.lower_is_better then x < y else x > y in
  let pairs =
    List.combine
      (List.filteri (fun i _ -> i < List.length c.values) p.values)
      (List.filteri (fun i _ -> i < List.length p.values) c.values)
  in
  let wins = List.length (List.filter (fun (pv, cv) -> better cv pv) pairs) in
  let worse_by =
    if p.med = 0.0 then 0.0
    else
      (if m.Spec.lower_is_better then c.med -. p.med else p.med -. c.med)
      /. p.med
  in
  let all_better =
    List.for_all
      (fun cv -> List.for_all (fun pv -> better cv pv) p.values)
      c.values
  in
  if pairs <> []
     && 10 * wins >= 9 * List.length pairs
     && Float.abs (c.med -. p.med) > p.q3 -. p.q1
  then "better"
  else if spread p > m.Spec.bound || spread c > m.Spec.bound then
    if all_better then "unchanged" else "unresolved"
  else if worse_by > m.Spec.bound then "worse"
  else "unchanged"

(* Untraced and traced runs per workload, in file order. *)
let load path =
  let lines =
    match Measure.read_file path with
    | Some s ->
        String.split_on_char '\n' s
        |> List.filter (fun l -> String.trim l <> "")
    | None -> failwith ("cannot read " ^ path)
  in
  List.map
    (fun l ->
      match Json_codec.parse l with
      | Ok j -> j
      | Error e -> failwith (path ^ ": " ^ e))
    lines

let metric_value j name =
  Option.bind (Json_codec.member "metrics" j) (Json_codec.member name)
  |> Fun.flip Option.bind (Json_codec.member "value")
  |> Fun.flip Option.bind Json_codec.num

let runs_of rows ~workload ~traced =
  List.filter
    (fun j ->
      Json_codec.mem_str j "workload" = Some workload
      && Json_codec.mem_bool j "traced" = Some traced)
    rows

(* Median self time per layer over the traced runs of one workload. *)
let self_table rows ~workload =
  runs_of rows ~workload ~traced:true
  |> List.map (fun j ->
         Option.bind (Json_codec.member "self_ms" j) Json_codec.obj
         |> Option.value ~default:[]
         |> List.filter_map (fun (k, v) ->
                Option.map (fun v -> (k, v)) (Json_codec.num v)))
  |> Layers.median_by_name

(* Where the runs were recorded, from the first run of a file. *)
let host rows =
  match rows with
  | [] -> Json_codec.Null
  | j :: _ ->
      Json_codec.Obj
        (List.filter_map
           (fun k -> Option.map (fun v -> (k, v)) (Json_codec.member k j))
           [ "commit"; "nproc"; "ocaml"; "seconds" ])

let run (spec : Spec.t) ~parent ~change ~json_out =
  let pr = load parent and cr = load change in
  let workloads =
    List.filter_map (fun j -> Json_codec.mem_str j "workload") (pr @ cr)
    |> List.sort_uniq compare
  in
  let worse = ref false in
  let open Json_codec in
  let side_json s =
    Obj
      [
        ("runs", Num (float_of_int (List.length s.values)));
        ("q1", Num s.q1);
        ("median", Num s.med);
        ("q3", Num s.q3);
        ("spread", Num (spread s));
      ]
  in
  let per_workload =
    List.map
      (fun w ->
        let pv = runs_of pr ~workload:w ~traced:false
        and cv = runs_of cr ~workload:w ~traced:false in
        if List.length pv < 10 || List.length cv < 10 then
          Printf.eprintf
            "compare: %s has %d parent and %d change runs; a gain needs >= 10 \
             each\n"
            w (List.length pv) (List.length cv);
        let rows =
          List.filter_map
            (fun (m : Spec.metric) ->
              let vals rows =
                List.filter_map (fun j -> metric_value j m.Spec.name) rows
              in
              match (vals pv, vals cv) with
              | [], _ | _, [] -> None
              | a, b ->
                  let p = side a and c = side b in
                  let v = verdict m p c in
                  if v = "worse" then worse := true;
                  Printf.printf
                    "%-7s %-15s %-10s parent %.6g [%.6g..%.6g]  change %.6g \
                     [%.6g..%.6g]  spread %.1f%%/%.1f%%  bound %.1f%%\n"
                    w m.Spec.name v p.med p.q1 p.q3 c.med c.q1 c.q3
                    (100.0 *. spread p) (100.0 *. spread c)
                    (100.0 *. m.Spec.bound);
                  Some
                    ( m.Spec.name,
                      Obj
                        [
                          ("unit", Str m.Spec.unit_);
                          ("bound", Num m.Spec.bound);
                          ("verdict", Str v);
                          ("parent", side_json p);
                          ("change", side_json c);
                        ] ))
            spec.Spec.end_to_end
        in
        let table rows =
          Obj
            (List.map (fun (k, v) -> (k, Num v)) (self_table rows ~workload:w))
        in
        ( w,
          Obj
            [
              ("metrics", Obj rows);
              ("parent_self_ms", table pr);
              ("change_self_ms", table cr);
            ] ))
      workloads
  in
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc
        (to_string
           (Obj
              [
                ("parent", Str parent);
                ("parent_host", host pr);
                ("change", Str change);
                ("change_host", host cr);
                ("workloads", Obj per_workload);
              ]));
      output_char oc '\n';
      close_out oc)
    json_out;
  if !worse then 1 else 0
