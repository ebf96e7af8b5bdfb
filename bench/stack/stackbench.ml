(* stackbench: one end-to-end and per-layer benchmark over compile,
   execute and search. See README.md.

     stackbench [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                [--runs N] [--out results.json] [--smoke]
     stackbench compare A.json B.json

   Each workload runs in its own forked child and ends its report with one
   JSON line: the end-to-end metrics, or with --trace 1 the per-layer
   metrics. --smoke runs tiny models, one op per phase, traced. *)

(* The end-to-end metrics every workload reports, with tracing off. *)
let e2e = [ ("setup_s", "s"); ("op_ginstr", "Ginstr"); ("peak_rss_mb", "MB") ]

(* Per-layer metrics: those every workload records, then each workload's
   own. A traced run prints all of them; a layer the workload does not
   reach reads 0. *)
let per_layer =
  let shared =
    [
      ("op_ms_p50", "ms");
      ("op.samples", "samples");
      ("gc.minor_mwords", "Mwords");
      ("gc.major_collections", "collections");
      ("parallel.domains", "count");
      ("trace.overhead_ratio", "ratio");
    ]
  in
  List.fold_left
    (fun acc m -> if List.mem_assoc (fst m) acc then acc else acc @ [ m ])
    []
    (shared @ List.concat_map (fun (w : Workloads.t) -> w.Workloads.layers) Workloads.all)

type outcome = {
  workload : string;
  seed : int;
  attempted : int;
  failed : int;
  failures : string list;
  metrics : Run.metric list;
  trace_file : string option;
}

let out_dir = ".stackbench"

let mkdir_p dir = try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* Runs one workload in this process and returns its outcome. *)
let run_workload (ctx : Run.ctx) (w : Workloads.t) =
  if Float.is_nan (Perf.instructions ()) then
    if ctx.Run.smoke then prerr_endline "stackbench: no hardware instruction counter; op_ginstr reads 0"
    else failwith "no hardware instruction counter (perf_event_open), so op_ginstr cannot be measured";
  Span.reset ();
  let r = Run.create () in
  w.Workloads.run ctx r;
  Run.count r "parallel.domains" (Partir.Parallel.num_domains ());
  Run.add r "peak_rss_mb" "MB" (Run.peak_rss_mb ());
  let trace_file =
    if not ctx.Run.trace then None
    else begin
      let path =
        Filename.concat out_dir
          (Printf.sprintf "trace-%s-seed%d.json" w.Workloads.name ctx.Run.seed)
      in
      Json.write_file path
        (Span.to_chrome
           ~meta:
             [
               ("workload", Json.Str w.Workloads.name);
               ("seed", Json.Num (float_of_int ctx.Run.seed));
             ]
           ());
      Some path
    end
  in
  {
    workload = w.Workloads.name;
    seed = ctx.Run.seed;
    attempted = r.Run.attempted;
    failed = r.Run.failed;
    failures = List.rev r.Run.failures;
    metrics = List.rev r.Run.metrics;
    trace_file;
  }

(* Each workload runs in a forked child, so its peak RSS and heap are its
   own. *)
let run_forked ctx w =
  match Run.forked (fun () -> run_workload ctx w) with
  | o -> Ok o
  | exception Failure msg -> Error msg

let metric_value o name =
  List.find_map (fun (m : Run.metric) -> if m.Run.name = name then Some m.Run.value else None)
    o.metrics

let json_metric value unit = Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit) ]

(* The result line: [names] with the outcome's values (0 for a layer the
   workload does not reach). *)
let result_line o ~trace =
  let names = if trace then per_layer else e2e in
  Json.Obj
    [
      ("correct", Json.Bool (o.failed = 0));
      ("attempted", Json.Num (float_of_int o.attempted));
      ("failed", Json.Num (float_of_int o.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, unit) ->
               let v = Option.value ~default:0. (metric_value o name) in
               (name, json_metric (if Float.is_finite v then v else 0.) unit))
             names) );
    ]

let print_outcome o ~seconds ~trace =
  Printf.printf "== %s (seed %d, %g s, trace %s) ==\n" o.workload o.seed seconds
    (if trace then "on" else "off");
  let show (m : Run.metric) =
    Printf.printf "  %-40s %16.6g %s\n" m.Run.name m.Run.value m.Run.unit
  in
  let is_e2e (m : Run.metric) = List.mem_assoc m.Run.name e2e in
  List.iter show (List.filter is_e2e o.metrics);
  List.iter show
    (List.sort
       (fun (a : Run.metric) b -> String.compare a.Run.name b.Run.name)
       (List.filter (fun m -> not (is_e2e m)) o.metrics));
  Printf.printf "  ops: %d attempted, %d failed\n" o.attempted o.failed;
  List.iter (Printf.printf "  FAILED %s\n") o.failures;
  Option.iter (Printf.printf "  trace: %s\n") o.trace_file;
  flush stdout

let outcome_json o =
  Json.Obj
    [
      ("workload", Json.Str o.workload);
      ("seed", Json.Num (float_of_int o.seed));
      ("attempted", Json.Num (float_of_int o.attempted));
      ("failed", Json.Num (float_of_int o.failed));
      ("failures", Json.Arr (List.map (fun s -> Json.Str s) o.failures));
      ("trace_file", match o.trace_file with Some f -> Json.Str f | None -> Json.Null);
      ( "metrics",
        Json.Obj
          (List.filter_map
             (fun (m : Run.metric) ->
               if Float.is_finite m.Run.value then
                 Some (m.Run.name, json_metric m.Run.value m.Run.unit)
               else None)
             o.metrics) );
    ]

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

let load_runs path =
  List.map
    (fun run ->
      let str k = Json.to_str (Json.member k run) in
      let metrics =
        List.filter_map
          (fun (name, v) ->
            match (Json.to_num (Json.member "value" v), Json.to_str (Json.member "unit" v)) with
            | Some value, Some unit -> Some (name, (value, unit))
            | _ -> None)
          (Json.to_obj (Json.member "metrics" run))
      in
      let failed = Option.value ~default:0. (Json.to_num (Json.member "failed" run)) in
      (Option.value ~default:"?" (str "workload"), (int_of_float failed, metrics)))
    (Json.to_list (Json.member "runs" (Json.read_file path)))

let spread vals =
  match vals with
  | [] | [ _ ] -> 0.
  | _ ->
      let a = Array.of_list vals in
      (Array.fold_left Float.max neg_infinity a -. Array.fold_left Float.min infinity a)
      /. Run.median a

(* Per workload, first its failed ops: more in B than in A is a regression,
   whatever the timings say. Then one row per end-to-end metric: better,
   worse, unchanged, or unresolved when either side's run-to-run spread
   exceeds the bound (unless every new run beats every old one), with the
   bounds of BENCHMARK.json in the current directory. Then every count of
   work (unit "count" or "bytes") that differs; sample counts and GC
   collections vary with run length and heap timing and are not compared.
   Returns the number of regressions. *)
let compare_files a b =
  let bench = Json.read_file "BENCHMARK.json" in
  let bounds =
    List.filter_map
      (fun m ->
        match
          ( Json.to_str (Json.member "name" m),
            Json.to_str (Json.member "better" m),
            Json.to_num (Json.member "bound" m) )
        with
        | Some n, Some better, Some bound -> Some (n, (better = "lower", bound))
        | _ -> None)
      (Json.to_list (Json.member "end_to_end" bench))
  in
  let ra = load_runs a and rb = load_runs b in
  let workloads = List.sort_uniq String.compare (List.map fst ra) in
  let values runs w name =
    List.filter_map
      (fun (w', (_, ms)) -> if w' = w then Option.map fst (List.assoc_opt name ms) else None)
      runs
  in
  let failed runs w =
    List.fold_left (fun acc (w', (f, _)) -> if w' = w then acc + f else acc) 0 runs
  in
  let regressions = ref 0 in
  Printf.printf "%-14s %-12s %14s %14s %9s %7s %7s  %s\n" "workload" "metric" "A" "B"
    "change" "bound" "spread" "verdict";
  List.iter
    (fun w ->
      let fa = failed ra w and fb = failed rb w in
      Printf.printf "%-14s %-12s %14d %14d %9s %7s %7s  %s\n" w "failed_ops" fa fb "" "" ""
        (if fb > fa then begin
           incr regressions;
           "WORSE"
         end
         else if fb < fa then "better"
         else "unchanged");
      List.iter
        (fun (name, (lower, bound)) ->
          match (values ra w name, values rb w name) with
          | [], _ | _, [] -> ()
          | va, vb ->
              let ma = Run.median (Array.of_list va) and mb = Run.median (Array.of_list vb) in
              let change = (mb -. ma) /. ma in
              let gain = if lower then -.change else change in
              let sp = Float.max (spread va) (spread vb) in
              let beats x y = if lower then x < y else x > y in
              let all_better =
                List.for_all (fun y -> List.for_all (fun x -> beats y x) va) vb
              in
              let verdict =
                if sp > bound && not all_better then "unresolved"
                else if Float.abs change <= bound then "unchanged"
                else if gain > 0. then "better"
                else begin
                  incr regressions;
                  "WORSE"
                end
              in
              Printf.printf "%-14s %-12s %14.6g %14.6g %+8.2f%% %6.1f%% %6.1f%%  %s\n" w name
                ma mb (100. *. change) (100. *. bound) (100. *. sp) verdict)
        bounds)
    workloads;
  let counts runs w =
    List.concat_map
      (fun (w', (_, ms)) ->
        if w' <> w then []
        else List.filter (fun (_, (_, unit)) -> unit = "count" || unit = "bytes") ms)
      runs
  in
  let differing = ref 0 in
  List.iter
    (fun w ->
      let ca = counts ra w and cb = counts rb w in
      let names = List.sort_uniq String.compare (List.map fst (ca @ cb)) in
      List.iter
        (fun name ->
          let vals c = List.sort_uniq Float.compare (List.filter_map (fun (n, (v, _)) -> if n = name then Some v else None) c) in
          let va = vals ca and vb = vals cb in
          if List.length (List.sort_uniq Float.compare (va @ vb)) > 1 then begin
            if !differing = 0 then Printf.printf "\ncounts that differ:\n";
            incr differing;
            let show l = String.concat "," (List.map (Printf.sprintf "%.17g") l) in
            Printf.printf "  %-14s %-40s A=%s B=%s\n" w name (show va) (show vb)
          end)
        names)
    workloads;
  if !differing = 0 then Printf.printf "\nevery count repeats exactly\n";
  !regressions

(* ------------------------------------------------------------------ *)
(* command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: stackbench [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
     [--runs N] [--out FILE] [--smoke]\n\
    \       stackbench compare A.json B.json";
  exit 2

let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage ()

let main_run args =
  let workload = ref None and seed = ref 1 and seconds = ref 30. and trace = ref false in
  let runs = ref 1 and out = ref None and smoke = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := Some w; parse rest
    | "--seed" :: n :: rest -> seed := int_arg n; parse rest
    | "--seconds" :: s :: rest ->
        (seconds := match float_of_string_opt s with Some x when x > 0. -> x | _ -> usage ());
        parse rest
    | "--trace" :: t :: rest ->
        (trace := match t with "0" -> false | "1" -> true | _ -> usage ());
        parse rest
    | "--runs" :: n :: rest -> runs := max 1 (int_arg n); parse rest
    | "--out" :: f :: rest -> out := Some f; parse rest
    | "--smoke" :: rest -> smoke := true; trace := true; parse rest
    | _ -> usage ()
  in
  parse args;
  let selected =
    match !workload with
    | None -> Workloads.all
    | Some name -> (
        match List.find_opt (fun (w : Workloads.t) -> w.Workloads.name = name) Workloads.all with
        | Some w -> [ w ]
        | None ->
            Printf.eprintf "unknown workload %s (expected %s)\n" name
              (String.concat ", " (List.map (fun (w : Workloads.t) -> w.Workloads.name) Workloads.all));
            exit 2)
  in
  mkdir_p out_dir;
  let outcomes =
    List.concat_map
      (fun (w : Workloads.t) ->
        List.init !runs (fun _ ->
            let ctx = { Run.seed = !seed; seconds = !seconds; smoke = !smoke; trace = !trace } in
            match run_forked ctx w with
            | Ok o ->
                print_outcome o ~seconds:!seconds ~trace:!trace;
                print_endline (Json.to_string (result_line o ~trace:!trace));
                o
            | Error msg ->
                Printf.eprintf "stackbench: %s failed: %s\n" w.Workloads.name msg;
                exit 1))
      selected
  in
  Option.iter
    (fun path ->
      Json.write_file path
        (Json.Obj
           [
             ("benchmark", Json.Str "stackbench");
             ("seed", Json.Num (float_of_int !seed));
             ("seconds", Json.Num !seconds);
             ("trace", Json.Bool !trace);
             ("smoke", Json.Bool !smoke);
             ("runs", Json.Arr (List.map outcome_json outcomes));
           ]))
    !out

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; a; b ] -> if compare_files a b > 0 then exit 1
  | "compare" :: _ -> usage ()
  | args -> main_run args
