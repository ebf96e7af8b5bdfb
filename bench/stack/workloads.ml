(* The four workloads. Each calls the layers' public functions directly,
   wraps every call in a span named after the layer, and checks every
   output it gets back. Why each workload exists, and what it should and
   should not move, is in README.md. *)

open Partir
module Zoo = Serve.Zoo
module T = Models.Transformer
module U = Models.Unet
module Train = Models.Train

type t = {
  name : string;  (** as in BENCHMARK.json, which says why it exists *)
  layers : (string * string) list;
      (** the per-layer metrics a traced run records: name, unit *)
  run : Run.ctx -> Run.t -> unit;
}

let rng (ctx : Run.ctx) salt = Random.State.make [| ctx.seed; salt |]

let permutation st n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let sum_int f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* Errors other than capacity verdicts: MC diagnostics say a schedule does
   not fit the device, which is an answer, not a broken pipeline. *)
let pipeline_errors diags =
  List.filter
    (fun (d : Diagnostic.t) ->
      Diagnostic.is_error d && not (String.starts_with ~prefix:"MC" d.Diagnostic.code))
    diags

let span_layers r ?root ?unit pairs =
  List.iter (fun (span, metric) -> Run.layer r ?root ?unit span metric) pairs

(* ------------------------------------------------------------------ *)
(* compile-paper: Fig 8's four paper-scale partitioning jobs           *)
(* ------------------------------------------------------------------ *)

type job = {
  prepared : Zoo.prepared;
  tactics : int;
  res : Schedule.result;
  jit_ms : float;
  diags : Diagnostic.t list;
  sim : Engine.outcome;
}

let compile_paper =
  let cases smoke =
    if smoke then
      [
        ("t32-small", "bp,mp,z3", [ ("batch", 4); ("model", 2) ]);
        ("unet-small", "bp,z3", [ ("batch", 2); ("model", 2) ]);
        ("gns-small", "es", [ ("batch", 4) ]);
        ("it32-small", "bp,mp", [ ("batch", 2); ("model", 2) ]);
      ]
    else
      [
        ("t32", "bp,mp,z3", [ ("batch", 16); ("model", 2) ]);
        ("unet", "bp,z3", [ ("batch", 8); ("model", 2) ]);
        ("gns", "es", [ ("batch", 8) ]);
        ("it32", "bp,mp", [ ("batch", 16); ("model", 2) ]);
      ]
  in
  let op_spans =
    [
      ("schedule.jit", "schedule.jit_s");
      ("analysis.verify", "analysis.verify_s");
      ("analysis.shard_check", "analysis.shard_check_s");
      ("analysis.collective_lint", "analysis.collective_lint_s");
      ("analysis.mem_check", "analysis.mem_check_s");
      ("sim.engine", "sim.engine_s");
    ]
  and probe_spans =
    [
      ("core.stage", "core.stage_s");
      ("spmd.lower", "spmd.lower_s");
      ("spmd.fusion", "spmd.fusion_s");
      ("spmd.comm_schedule", "spmd.comm_schedule_s");
      ("sim.cost_model", "sim.cost_model_s");
    ]
  in
  let run (ctx : Run.ctx) r =
    let hw = Hardware.tpu_v3 in
    let cases = cases ctx.smoke in
    let models =
      Run.setups ctx r ~n:15 (fun () ->
          Array.of_list
            (List.map
               (fun (m, s, axes) ->
                 let p = Span.with_ "models.build" (fun () -> Zoo.prepare m) in
                 (p, Zoo.tactics_of p hw 0 s, Mesh.create axes))
               cases))
    in
    let derived = ref [] in
    let op i =
      let order = permutation (rng ctx i) (Array.length models) in
      let jobs =
        Array.map
          (fun j ->
            let p, tactics, mesh = models.(j) in
            let res, jit_ms =
              Run.ms (fun () ->
                  Span.with_ "schedule.jit" (fun () ->
                      jit ~hardware:hw ~ties:p.Zoo.ties mesh p.Zoo.func tactics))
            in
            let prog = res.Schedule.program in
            let diags =
              Span.with_ "analysis.verify" (fun () ->
                  Verify.func ~mesh:prog.Lower.mesh prog.Lower.func)
              @ Span.with_ "analysis.shard_check" (fun () -> Shard_check.program prog)
              @ Span.with_ "analysis.collective_lint" (fun () ->
                    Collective_lint.program prog @ Collective_lint.schedule prog)
              @ Span.with_ "analysis.mem_check" (fun () ->
                    Mem_check.program ~hardware:hw prog)
            in
            let sim =
              Span.with_ "sim.engine" (fun () ->
                  Engine.simulate Cost_model.measured hw prog)
            in
            { prepared = p; tactics = List.length tactics; res; jit_ms; diags; sim })
          order
        |> Array.to_list
      in
      fun () ->
        let program j = j.res.Schedule.program in
        let census =
          List.fold_left
            (fun acc j -> Census.add acc (Census.of_program (program j)))
            Census.zero jobs
        in
        Run.count r "spmd.ops_fused" (sum_int (fun j -> Func.op_count (program j).Lower.func) jobs);
        List.iter
          (fun (k, v) -> Run.count r ("spmd.collectives." ^ k) v)
          [
            ("all_gather", census.Census.all_gather);
            ("all_reduce", census.Census.all_reduce);
            ("reduce_scatter", census.Census.reduce_scatter);
            ("all_to_all", census.Census.all_to_all);
            ("all_slice", census.Census.all_slice);
          ];
        Run.count r "schedule.lowerings" (sum_int (fun j -> j.tactics + 1) jobs);
        Run.count r "analysis.oom_verdicts"
          (sum_int
             (fun j ->
               List.length (List.filter Diagnostic.is_error j.diags)
               - List.length (pipeline_errors j.diags))
             jobs);
        let runtimes =
          List.map
            (fun j ->
              match j.sim with
              | Engine.Completed rep -> rep.Engine.estimate.Cost_model.runtime_ms
              | Engine.Failed _ -> nan)
            jobs
        in
        Run.add r "sim.runtime_ms" "ms-simulated" (List.fold_left ( +. ) 0. runtimes);
        (* The decomposed pipeline, measured beside each traced op: jit
           lowers and fuses once per tactic plus once at the end, and costs
           once per tactic; the rest of jit is tactics and propagation. *)
        if !Span.enabled then begin
          let lowered = ref 0 and op_derived = ref 0. in
          Span.with_ "probe" (fun () ->
              List.iter
                (fun j ->
                  let prog = program j and n = float_of_int j.tactics in
                  ignore
                    (Span.with_ "core.stage" (fun () ->
                         Staged.of_func prog.Lower.mesh j.prepared.Zoo.func));
                  let unfused, lower_ms =
                    Run.ms (fun () ->
                        Span.with_ "spmd.lower" (fun () ->
                            Lower.lower ~ties:j.prepared.Zoo.ties ~fuse:false
                              j.res.Schedule.staged))
                  in
                  let (_ : Func.t), fusion_ms =
                    Run.ms (fun () ->
                        Span.with_ "spmd.fusion" (fun () -> Fusion.run unfused.Lower.func))
                  in
                  ignore
                    (Span.with_ "spmd.comm_schedule" (fun () -> Comm_schedule.of_program prog));
                  let (_ : Cost_model.estimate), cost_ms =
                    Run.ms (fun () ->
                        Span.with_ "sim.cost_model" (fun () ->
                            Cost_model.run Cost_model.analytic hw prog))
                  in
                  lowered := !lowered + Func.op_count unfused.Lower.func;
                  op_derived :=
                    !op_derived +. j.jit_ms
                    -. ((n +. 1.) *. (lower_ms +. fusion_ms))
                    -. (n *. cost_ms))
                jobs);
          Run.count r "spmd.ops_lowered" !lowered;
          derived := (!op_derived /. 1e3) :: !derived
        end;
        let errors = List.concat_map (fun j -> pipeline_errors j.diags) jobs in
        if errors <> [] then Error (Diagnostic.list_to_string errors)
        else if not (List.for_all Float.is_finite runtimes) then
          Error "simulated step did not complete"
        else Ok ()
    in
    Run.measure ctx r op;
    if ctx.trace then begin
      span_layers r op_spans;
      span_layers r ~root:"probe" probe_spans;
      span_layers r ~root:"setup" [ ("models.build", "models.build_s") ];
      Run.add r "schedule.tactics_derived_s" "s" (Run.median (Array.of_list !derived))
    end
  in
  {
    name = "compile-paper";
    layers =
      List.map (fun (_, m) -> (m, "s")) (op_spans @ probe_spans)
      @ [
          ("models.build_s", "s");
          ("schedule.tactics_derived_s", "s");
          ("schedule.lowerings", "count");
          ("spmd.ops_lowered", "count");
          ("spmd.ops_fused", "count");
          ("spmd.collectives.all_gather", "count");
          ("spmd.collectives.all_reduce", "count");
          ("spmd.collectives.reduce_scatter", "count");
          ("spmd.collectives.all_to_all", "count");
          ("spmd.collectives.all_slice", "count");
          ("analysis.oom_verdicts", "count");
          ("sim.runtime_ms", "ms-simulated");
        ];
    run;
  }

(* ------------------------------------------------------------------ *)
(* train-exec: compiled SPMD plans of two mid-size training steps       *)
(* ------------------------------------------------------------------ *)

(* The partcheck oracle's tolerance: relative to the reference magnitude. *)
let within_tolerance (reference : Literal.t list) (got : Literal.t list) =
  List.length reference = List.length got
  && List.for_all2
       (fun (a : Literal.t) (b : Literal.t) ->
         let scale =
           Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0. a.Literal.data
         in
         Shape.equal a.Literal.shape b.Literal.shape
         && Literal.max_abs_diff a b <= 1e-4 *. (1. +. scale))
       reference got

(* Seeded arguments for a training step: token ids below [vocab], small
   floats elsewhere, non-negative second moments (the ".v" slots). *)
let step_args st ~vocab (f : Func.t) =
  List.map
    (fun (p : Value.t) ->
      let is_int = Dtype.is_integer p.Value.ty.Value.dtype in
      let non_negative = Filename.check_suffix p.Value.name ".v" in
      Literal.init p.Value.ty.Value.dtype p.Value.ty.Value.shape (fun _ ->
          if is_int then float_of_int (Random.State.int st vocab)
          else
            let x = Random.State.float st 0.2 -. 0.1 in
            if non_negative then Float.abs x else x))
    f.Func.params

let plan_counters =
  [
    ("instrs", "count", fun (s : Plan.stats) -> s.Plan.n_instrs);
    ("chains", "count", fun s -> s.Plan.n_chains);
    ("fused", "count", fun s -> s.Plan.n_fused);
    ("inplace", "count", fun s -> s.Plan.n_inplace);
    ("windows", "count", fun s -> s.Plan.n_windows);
    ("slots", "count", fun s -> s.Plan.n_slots);
    ("arena_bytes", "bytes", fun s -> s.Plan.arena_bytes);
    ("peak_bytes", "bytes", fun s -> s.Plan.peak_bytes);
  ]

let train_exec =
  let models smoke =
    let d a b = if smoke then a else b in
    let t32 =
      { T.layers = 2; d_model = d 32 64; heads = 4; vocab = d 64 256; batch = 4; seq = d 16 32 }
    in
    let unet = { U.tiny with U.base_channels = d 4 8; image = d 8 16 } in
    [
      ( "t32",
        t32.T.vocab,
        (fun () -> Train.training_step (T.forward t32)),
        [
          Strategies.bp ~axis:"batch" ~inputs:[ "tokens"; "targets" ] ();
          Strategies.transformer_mp ~axis:"model";
        ] );
      ( "unet",
        8,
        (fun () -> Train.training_step (U.forward unet)),
        [
          Strategies.bp ~axis:"batch" ~inputs:[ "x"; "temb"; "target" ] ();
          Strategies.unet_mp ~axis:"model";
        ] );
    ]
  in
  let n_inputs = 3 in
  let run (ctx : Run.ctx) r =
    let mesh = Mesh.create [ ("batch", 2); ("model", 2) ] in
    let models = models ctx.smoke in
    let compiled =
      Run.setups ctx r ~n:15 (fun () ->
          List.map
            (fun (name, vocab, build, tactics) ->
              let step = Span.with_ "models.build" build in
              let res =
                Span.with_ "schedule.jit" (fun () ->
                    jit ~ties:step.Train.ties mesh step.Train.func tactics)
              in
              let plan =
                Span.with_ ("plan.compile." ^ name) (fun () ->
                    Plan.Spmd.compile res.Schedule.program)
              in
              (name, vocab, step, plan))
            models)
    in
    (* Seeded inputs and their references from the unpartitioned step on
       the reference interpreter, computed once, outside any timing, in a
       child process: the interpreter's garbage is not the workload's
       memory. *)
    let cases =
      List.mapi
        (fun mi (name, vocab, step, plan) ->
          let args =
            Array.init n_inputs (fun k ->
                step_args (rng ctx ((mi * 100) + k)) ~vocab step.Train.func)
          in
          let references =
            Run.forked (fun () -> Array.map (Interp.run step.Train.func) args)
          in
          (name, step, plan, Array.map2 (fun a r -> (a, r)) args references, ref []))
        compiled
    in
    let op i =
      let outs =
        List.map
          (fun (name, _, plan, inputs, times) ->
            let args, reference = inputs.(i mod n_inputs) in
            let got, t =
              Run.ms (fun () ->
                  Span.with_ ("plan.step." ^ name) (fun () -> Plan.Spmd.run plan args))
            in
            times := t :: !times;
            (name, reference, got))
          cases
      in
      fun () ->
        match
          List.find_opt (fun (_, reference, got) -> not (within_tolerance reference got)) outs
        with
        | Some (name, _, _) -> Error (name ^ ": plan outputs differ from the interpreter")
        | None -> Ok ()
    in
    Run.measure ctx r op;
    List.iter
      (fun (name, step, plan, inputs, times) ->
        let times = Array.of_list !times in
        let step_p50 = Run.median times in
        Run.add r ("plan.step_ms_p50." ^ name) "ms" step_p50;
        Run.add r ("plan.step_ms_p90." ^ name) "ms" (Run.percentile times 0.9);
        Run.add r ("plan.step_samples." ^ name) "samples" (float_of_int (Array.length times));
        let stats = Plan.Spmd.stats plan in
        List.iter
          (fun (k, unit, f) ->
            Run.add r (Printf.sprintf "plan.%s.%s" k name) unit (float_of_int (f stats)))
          plan_counters;
        if ctx.trace then begin
          Run.layer r ~root:"setup" ~unit:"ms" ("plan.compile." ^ name)
            ("plan.compile_ms." ^ name);
          (* The kernel floor: the unpartitioned step as one compiled plan. *)
          let args, _ = inputs.(0) in
          let single = Plan.compile step.Train.func in
          let argv = Array.of_list args in
          ignore (Plan.execute single argv);
          let reps = if ctx.smoke then 2 else 10 in
          let single_ms =
            Array.init reps (fun _ -> snd (Run.ms (fun () -> Plan.execute single argv)))
          in
          let single_p50 = Run.median single_ms in
          Run.add r ("plan.single_step_ms." ^ name) "ms" single_p50;
          Run.add r ("plan.spmd_overhead_ratio." ^ name) "ratio" (step_p50 /. single_p50);
          let w0 = Gc.minor_words () in
          for _ = 1 to reps do
            ignore (Plan.Spmd.run plan args)
          done;
          Run.add r ("plan.minor_words_per_step." ^ name) "words"
            ((Gc.minor_words () -. w0) /. float_of_int reps)
        end)
      cases;
    if ctx.trace then
      span_layers r ~root:"setup"
        [ ("models.build", "models.build_s"); ("schedule.jit", "schedule.jit_s") ]
  in
  let per_model name =
    [
      ("plan.step_ms_p50." ^ name, "ms");
      ("plan.step_ms_p90." ^ name, "ms");
      ("plan.step_samples." ^ name, "samples");
      ("plan.compile_ms." ^ name, "ms");
      ("plan.single_step_ms." ^ name, "ms");
      ("plan.spmd_overhead_ratio." ^ name, "ratio");
      ("plan.minor_words_per_step." ^ name, "words");
    ]
    @ List.map (fun (k, unit, _) -> (Printf.sprintf "plan.%s.%s" k name, unit)) plan_counters
  in
  {
    name = "train-exec";
    layers =
      [ ("models.build_s", "s"); ("schedule.jit_s", "s") ]
      @ per_model "t32" @ per_model "unet";
    run;
  }

(* ------------------------------------------------------------------ *)
(* auto-search: two MCTS searches behind the transposition table        *)
(* ------------------------------------------------------------------ *)

(* Fig 11's two searches at a size that fits many rounds in a run: UNet at
   the paper's widths with 3 down blocks (5.8k ops, against 15.2k), and
   T32's dimensions with 8 layers (3.0k ops, against 11.7k) under a 56 GB
   limit, where the search keeps the shape of T32's at 192 GB: the
   all-skip baseline does not fit and 10 of its 17 evaluations are
   OOM-rejected. *)
let auto_search =
  let run (ctx : Run.ctx) r =
    let budget = if ctx.smoke then 8 else 128 in
    let unet_cfg, t_cfg, uaxes, taxes =
      if ctx.smoke then
        ( U.tiny,
          { T.tiny with T.layers = 4; batch = 8; heads = 4 },
          [ ("batch", 2); ("model", 2) ],
          [ ("batch", 4); ("model", 2) ] )
      else
        ( { U.paper with U.down_blocks = 3; up_blocks = 4; mid_blocks = 1 },
          { T.t32 with T.layers = 8 },
          [ ("batch", 8); ("model", 4) ],
          [ ("batch", 8); ("model", 4) ] )
    in
    let searches =
      Run.setups ctx r ~n:15 (fun () ->
          let ustep = Span.with_ "models.build" (fun () -> Train.training_step (U.forward unet_cfg)) in
          let tstep = Span.with_ "models.build" (fun () -> Train.training_step (T.forward t_cfg)) in
          let ubase =
            Span.with_ "core.stage" (fun () -> Staged.of_func (Mesh.create uaxes) ustep.Train.func)
          in
          let tbase =
            Span.with_ "schedule.jit" (fun () ->
                (jit ~ties:tstep.Train.ties (Mesh.create taxes) tstep.Train.func
                   [
                     Strategies.bp ~axis:"batch" ~inputs:[ "tokens"; "targets" ] ();
                     Strategies.transformer_mp ~axis:"model";
                     Strategies.transformer_z3 ~axis:"batch";
                   ])
                  .Schedule.staged)
          in
          (* A fixed search seed: the work of an MCTS run depends on its
             seed, so a seed-derived search would measure the seed, not the
             code. The workload seed orders the two searches instead. *)
          let opts = { Auto.default_options with hardware = Hardware.tpu_v3; budget; seed = 1 } in
          [|
            ("unet-mid", opts, ubase, ref None);
            ("t8", { opts with Auto.memory_limit_bytes = Some 56e9 }, tbase, ref None);
          |])
    in
    let axes = [ "batch"; "model" ] in
    let op i =
      let order = permutation (rng ctx i) (Array.length searches) in
      let outs =
        Array.map
          (fun j ->
            let name, opts, base, _ = searches.(j) in
            (* A fresh transposition table per search, as by default; kept
               so the probe below can find the best decision vector. *)
            let table = Hashtbl.create 256 in
            let staged = Span.with_ "core.copy" (fun () -> Staged.copy base) in
            let stats =
              Span.with_ ("auto.search." ^ name) (fun () ->
                  Auto.mcts_search { opts with Auto.table = Some table } staged ~axes)
            in
            (j, table, stats))
          order
      in
      (* Every round must find the first round's best schedule. *)
      let check (j, table, (stats : Auto.Stats.t)) =
        let name, _, _, first = searches.(j) in
        let best = stats.Auto.Stats.best_cost in
        match !first with
        | _ when not (Float.is_finite best) -> Error (name ^ ": no feasible schedule")
        | None ->
            first := Some (best, table, stats);
            Ok ()
        | Some (b, _, _) when b = best -> Ok ()
        | Some (b, _, _) ->
            Error (Printf.sprintf "%s: best cost %.17g, first round %.17g" name best b)
      in
      fun () -> Array.fold_left (fun acc o -> Result.bind acc (fun () -> check o)) (Ok ()) outs
    in
    Run.measure ctx r op;
    Array.iter
      (fun (name, opts, base, first) ->
        match !first with
        | None -> ()
        | Some (_, table, (s : Auto.Stats.t)) ->
            let open Auto.Stats in
            List.iter
              (fun (k, v) -> Run.count r (Printf.sprintf "auto.%s.%s" k name) v)
              [
                ("evaluations", s.evaluations);
                ("cache_lookups", s.cache_lookups);
                ("cache_hits", s.cache_hits);
                ("infeasible_oom", s.infeasible_oom);
                ("failed_evaluations", s.failed_evaluations);
                ("domains_used", s.domains_used);
              ];
            Run.add r ("auto.cache_hit_ratio." ^ name) "ratio"
              (float_of_int s.cache_hits /. float_of_int (max 1 s.cache_lookups));
            Run.add r ("auto.best_ms." ^ name) "ms-simulated" s.best_cost;
            if name = "unet-mid" then
              Run.add r "auto.baseline_ms.unet-mid" "ms-simulated" s.baseline_cost;
            if ctx.trace then begin
              Run.layer r ("auto.search." ^ name) ("auto.search_s." ^ name);
              (* One rollout evaluation of the best decision vector, done
                 as the search does each one: a fresh copy of the base, the
                 decisions' seeds, propagation, then Auto.evaluate (lower,
                 cost model, Mem_check). The vector is the cheapest key of
                 the search's transposition table, one character per
                 position: 's' skip, 'a' atomic, 'A' + d tile dim d. *)
              let key =
                Hashtbl.fold
                  (fun k c best ->
                    match best with
                    | Some (bk, bc) when bc < c || (bc = c && bk < k) -> best
                    | _ -> Some (k, c))
                  table None
                |> Option.get |> fst
              in
              let poss =
                Array.of_list (Auto.positions ~max_positions:opts.Auto.max_positions base axes)
              in
              let decide staged =
                String.iteri
                  (fun i c ->
                    let axis, value = poss.(i) in
                    match c with
                    | 's' -> ()
                    | 'a' -> ignore (Staged.atomic staged ~value ~axis)
                    | c -> ignore (Staged.tile staged ~value ~dim:(Char.code c - Char.code 'A') ~axis))
                  key
              in
              let source_flops = Func.flops (Staged.to_func base) in
              let reps = 3 in
              (* [f] runs [reps] times, on [setup ()] made untimed before each. *)
              let time span ?(setup = fun () -> base) f =
                let t =
                  Array.init reps (fun _ ->
                      let x = setup () in
                      snd (Run.ms (fun () -> Span.with_ span (fun () -> f x))))
                in
                Run.add r (Printf.sprintf "%s_ms.%s" span name) "ms" (Run.median t)
              in
              let rollout staged =
                decide staged;
                ignore (Propagate.run staged);
                staged
              in
              let cost = ref nan in
              Span.enabled := true;
              Span.with_ "probe" (fun () ->
                  time "auto.evaluate" (fun base ->
                      cost := Auto.evaluate ~source_flops opts (rollout (Staged.copy base)));
                  time "core.copy" (fun base -> ignore (Staged.copy base));
                  time "core.propagate"
                    ~setup:(fun () -> Staged.copy base)
                    (fun staged -> ignore (rollout staged));
                  let staged = rollout (Staged.copy base) in
                  let prog = Lower.lower ~source_flops staged in
                  time "spmd.lower" (fun _ -> ignore (Lower.lower ~source_flops staged));
                  time "analysis.mem_check" (fun _ -> ignore (Mem_check.analyze prog));
                  time "sim.cost_model" (fun _ ->
                      ignore (Cost_model.run Cost_model.analytic opts.Auto.hardware prog)));
              Span.enabled := false;
              if !cost <> s.best_cost then
                Run.fail r
                  (Printf.sprintf "%s: re-evaluating the best vector costs %.17g, search %.17g"
                     name !cost s.best_cost)
            end)
      searches;
    if ctx.trace then
      span_layers r ~root:"setup"
        [
          ("models.build", "models.build_s");
          ("core.stage", "core.stage_s");
          ("schedule.jit", "schedule.jit_s");
        ]
  in
  let per_search name =
    List.map
      (fun k -> (Printf.sprintf "auto.%s.%s" k name, "count"))
      [
        "evaluations";
        "cache_lookups";
        "cache_hits";
        "infeasible_oom";
        "failed_evaluations";
        "domains_used";
      ]
    @ [
        ("auto.cache_hit_ratio." ^ name, "ratio");
        ("auto.best_ms." ^ name, "ms-simulated");
        ("auto.search_s." ^ name, "s");
      ]
    @ List.map
        (fun span -> (Printf.sprintf "%s_ms.%s" span name, "ms"))
        [
          "auto.evaluate";
          "core.copy";
          "core.propagate";
          "spmd.lower";
          "analysis.mem_check";
          "sim.cost_model";
        ]
  in
  {
    name = "auto-search";
    layers =
      [
        ("models.build_s", "s");
        ("core.stage_s", "s");
        ("schedule.jit_s", "s");
        ("auto.baseline_ms.unet-mid", "ms-simulated");
      ]
      @ per_search "unet-mid" @ per_search "t8";
    run;
  }

let all = [ compile_paper; train_exec; auto_search ]
