(* Compare two suite results of perf.exe, one row per workload and
   end-to-end metric, against the regression bounds in BENCHMARK.json.

     compare.exe [--benchmark BENCHMARK.json] OLD.json NEW.json

   Verdicts follow the choosing-metrics rules:
   - improved: NEW wins at least nine tenths of the run pairs (run i of
     each side) and the medians differ by more than OLD's quartile
     distance;
   - unresolved: either side's quartile distance exceeds the bound, unless
     every NEW run reads better than every OLD run;
   - regressed: NEW's median is worse than OLD's by more than the bound;
   - unchanged: otherwise.
   Exits 1 if any row regressed. *)

type metric = { name : string; better_higher : bool; bound : float }

let read_json path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> (
      match Json.parse text with
      | Ok j -> j
      | Error e ->
          Printf.eprintf "compare: %s: %s\n" path e;
          exit 2)
  | exception Sys_error e ->
      Printf.eprintf "compare: %s\n" e;
      exit 2

let metrics_of_benchmark j =
  match Json.field "end_to_end" j with
  | Some (Json.Arr ms) ->
      List.filter_map
        (fun m ->
          match
            ( Option.bind (Json.field "name" m) Json.str,
              Option.bind (Json.field "better" m) Json.str,
              Option.bind (Json.field "bound" m) Json.num )
          with
          | Some name, Some better, Some bound ->
              Some { name; better_higher = better = "higher"; bound }
          | _ -> None)
        ms
  | _ -> []

type side = { median : float; q1 : float; q3 : float; runs : float list }

let side_of suite ~workload ~metric =
  let ( let* ) = Option.bind in
  let* ws = Json.field "workloads" suite in
  let* w = Json.field workload ws in
  let* e2e = Json.field "e2e" w in
  let* m = Json.field metric e2e in
  let num k = Option.bind (Json.field k m) Json.num in
  let* median = num "median" in
  let* q1 = num "q1" in
  let* q3 = num "q3" in
  let runs =
    match Json.field "runs" m with
    | Some (Json.Arr xs) -> List.filter_map Json.num xs
    | _ -> []
  in
  Some { median; q1; q3; runs }

let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> []

let verdict m old nw =
  let better a b = if m.better_higher then a > b else a < b in
  let pairs = zip old.runs nw.runs in
  let wins = List.length (List.filter (fun (o, n) -> better n o) pairs) in
  let all_better =
    old.runs <> [] && nw.runs <> []
    && List.for_all (fun n -> List.for_all (fun o -> better n o) old.runs) nw.runs
  in
  let spread s = (s.q3 -. s.q1) /. Float.abs s.median in
  let worse =
    (if m.better_higher then old.median -. nw.median else nw.median -. old.median)
    /. Float.abs old.median
  in
  if
    pairs <> []
    && float_of_int wins >= 0.9 *. float_of_int (List.length pairs)
    && better nw.median old.median
    && Float.abs (nw.median -. old.median) > old.q3 -. old.q1
  then "improved"
  else if (spread old > m.bound || spread nw > m.bound) && not all_better then
    "unresolved"
  else if worse > m.bound then "regressed"
  else "unchanged"

let () =
  let bench = ref "BENCHMARK.json" and files = ref [] in
  Arg.parse
    [ ("--benchmark", Arg.Set_string bench, "FILE bounds (default BENCHMARK.json)") ]
    (fun f -> files := !files @ [ f ])
    "compare.exe [--benchmark BENCHMARK.json] OLD.json NEW.json";
  match !files with
  | [ old_file; new_file ] ->
      let metrics = metrics_of_benchmark (read_json !bench) in
      let old_suite = read_json old_file and new_suite = read_json new_file in
      let workloads =
        match Json.field "workloads" new_suite with
        | Some (Json.Obj ws) -> List.map fst ws
        | _ -> []
      in
      Printf.printf "%-13s %-16s %12s %12s %10s %10s %8s  %s\n" "workload"
        "metric" "old median" "new median" "old IQR" "new IQR" "change" "verdict";
      let regressed = ref false in
      List.iter
        (fun workload ->
          List.iter
            (fun m ->
              match
                ( side_of old_suite ~workload ~metric:m.name,
                  side_of new_suite ~workload ~metric:m.name )
              with
              | Some o, Some n ->
                  let v = verdict m o n in
                  if v = "regressed" then regressed := true;
                  Printf.printf "%-13s %-16s %12.4g %12.4g %10.4g %10.4g %+7.1f%%  %s\n"
                    workload m.name o.median n.median (o.q3 -. o.q1) (n.q3 -. n.q1)
                    (100.0 *. (n.median -. o.median) /. Float.abs o.median)
                    v
              | _ -> Printf.printf "%-13s %-16s missing in one file\n" workload m.name)
            metrics)
        workloads;
      exit (if !regressed then 1 else 0)
  | _ ->
      prerr_endline "usage: compare.exe [--benchmark BENCHMARK.json] OLD.json NEW.json";
      exit 2
