(* Smoke test of the benchmark: runs `stackbench --smoke` (tiny models, one
   traced op per phase and workload) and checks that every op passed, that
   each emitted trace parses and its spans nest, and that the metrics the
   program prints, by name and unit, are exactly those BENCHMARK.json
   declares.

     test_stackbench.exe STACKBENCH.exe BENCHMARK.json *)

let failures = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr failures;
        Printf.printf "FAIL %s\n%!" msg
      end)
    fmt

(* A metric as "name unit". *)
let declared section bench =
  List.filter_map
    (fun m ->
      match (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)) with
      | Some n, Some u -> Some (n ^ " " ^ u)
      | _ -> None)
    (Json.to_list (Json.member section bench))

let printed metrics =
  List.map
    (fun (n, v) -> n ^ " " ^ Option.value ~default:"?" (Json.to_str (Json.member "unit" v)))
    (Json.to_obj metrics)

module S = Set.Make (String)

(* Every span with a parent lies inside it and belongs to the same op. *)
let check_trace path =
  let events =
    Json.to_list (Json.member "traceEvents" (Json.read_file path))
  in
  let num k e = Option.value ~default:nan (Json.to_num (Json.member k e)) in
  let arg k e = num k (Json.member "args" e) in
  let by_id = Hashtbl.create 256 in
  List.iter (fun e -> Hashtbl.replace by_id (arg "id" e) e) events;
  check (events <> []) "%s has no spans" path;
  List.iter
    (fun e ->
      let parent = arg "parent" e in
      if parent >= 0. then
        match Hashtbl.find_opt by_id parent with
        | None -> check false "%s: span %g has no parent %g" path (arg "id" e) parent
        | Some p ->
            let eps = 1e-6 in
            check
              (num "ts" p <= num "ts" e +. eps
              && num "ts" e +. num "dur" e <= num "ts" p +. num "dur" p +. eps
              && arg "op" p = arg "op" e)
              "%s: span %g does not nest in %g" path (arg "id" e) parent)
    events

let () =
  let exe, benchmark =
    match Sys.argv with [| _; e; b |] -> (e, b) | _ -> failwith "usage: test_stackbench EXE BENCHMARK.json"
  in
  let bench = Json.read_file benchmark in
  let e2e = S.of_list (declared "end_to_end" bench)
  and layers = S.of_list (declared "per_layer" bench)
  and n_workloads = List.length (Json.to_list (Json.member "workloads" bench)) in
  let out = "smoke-results.json" in
  let t0 = Unix.gettimeofday () in
  let ic = Unix.open_process_args_in exe [| exe; "--smoke"; "--seed"; "1"; "--out"; out |] in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  check (Unix.close_process_in ic = Unix.WEXITED 0) "stackbench --smoke exited nonzero";
  let seconds = Unix.gettimeofday () -. t0 in
  check (seconds < 20.) "smoke run took %.1f s" seconds;
  (* The per-workload result lines of a traced run carry every per-layer
     metric BENCHMARK.json declares, and nothing else. *)
  let result_lines =
    List.filter_map
      (fun l ->
        if String.starts_with ~prefix:"{" l then Some (Json.member "metrics" (Json.parse l))
        else None)
      lines
  in
  check
    (List.length result_lines = n_workloads)
    "expected %d result lines, got %d" n_workloads (List.length result_lines);
  List.iter
    (fun m ->
      let keys = S.of_list (printed m) in
      check (S.equal keys layers) "result line metrics differ from BENCHMARK.json per_layer: %s"
        (String.concat " " (S.elements (S.union (S.diff keys layers) (S.diff layers keys)))))
    result_lines;
  let runs = Json.to_list (Json.member "runs" (Json.read_file out)) in
  let recorded = ref S.empty in
  List.iter
    (fun run ->
      let w = Option.value ~default:"?" (Json.to_str (Json.member "workload" run)) in
      let num k = Option.value ~default:nan (Json.to_num (Json.member k run)) in
      check (num "attempted" >= 1. && num "failed" = 0.) "%s: %g attempted, %g failed" w
        (num "attempted") (num "failed");
      let keys = S.of_list (printed (Json.member "metrics" run)) in
      check (S.subset e2e keys) "%s lacks end-to-end metrics %s" w
        (String.concat " " (S.elements (S.diff e2e keys)));
      recorded := S.union !recorded keys;
      match Json.to_str (Json.member "trace_file" run) with
      | Some path -> check_trace path
      | None -> check false "%s wrote no trace" w)
    runs;
  check (List.length runs = n_workloads) "expected %d runs, got %d" n_workloads (List.length runs);
  let declared = S.union e2e layers in
  check (S.equal !recorded declared) "recorded metrics differ from BENCHMARK.json: %s"
    (String.concat " " (S.elements (S.union (S.diff !recorded declared) (S.diff declared !recorded))));
  if !failures > 0 then exit 1;
  Printf.printf "stackbench smoke: %d workloads, %d metrics, spans nest (%.1f s)\n" n_workloads
    (S.cardinal declared) seconds
