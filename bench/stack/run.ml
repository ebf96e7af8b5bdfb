(* What every workload shares: the run context, the record of outcomes and
   metrics, timed set-ups, and the closed measurement loop. *)

type ctx = {
  seed : int;
  seconds : float;  (** measured time; split in half when tracing *)
  smoke : bool;  (** tiny models, one op per phase *)
  trace : bool;
}

type metric = { name : string; value : float; unit : string }

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** first few, newest first *)
  mutable metrics : metric list;  (** newest first *)
}

let create () = { attempted = 0; failed = 0; failures = []; metrics = [] }
let clock = Span.clock

let add r name unit value =
  r.metrics <- { name; value; unit } :: List.filter (fun m -> m.name <> name) r.metrics

let count r name value = add r name "count" (float_of_int value)

let fail r msg =
  r.failed <- r.failed + 1;
  if List.length r.failures < 8 then r.failures <- msg :: r.failures

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median a =
  let s = sorted a in
  match Array.length s with
  | 0 -> nan
  | n when n mod 2 = 1 -> s.(n / 2)
  | n -> (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile a p =
  let s = sorted a in
  match Array.length s with
  | 0 -> nan
  | n -> s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let ms f =
  let t0 = clock () in
  let v = f () in
  (v, 1e3 *. (clock () -. t0))

(* Runs [n] independent set-ups, each timed as one root span "setup"
   (traced when the run traces), and keeps only the last one's result.
   Records [setup_s] as their median. *)
let setups ctx r ~n setup =
  Span.enabled := ctx.trace;
  let times = Array.make n 0. in
  let rec go i =
    let v, t = ms (fun () -> Span.with_ "setup" setup) in
    times.(i) <- t /. 1e3;
    if i + 1 < n then go (i + 1) else v
  in
  let v = go 0 in
  Span.enabled := false;
  add r "setup_s" "s" (median times);
  v

(* What one op cost. *)
type cost = {
  op_ms : float;
  instructions : float;  (** nan without a hardware counter *)
  minor_words : float;
  major_collections : int;
}

(* Closed loop: one op at a time, each op issued when the previous one
   finished, until [seconds] have elapsed (at least one op, at most
   [max_ops]). An op is [op i] (timed; a root span "op" when tracing)
   returning a check that runs untimed and yields [Error msg] on a wrong
   output. Op indices continue from [first]. Returns the cost of each op
   that did not raise, in order. *)
let loop r ~seconds ~first ?(max_ops = max_int) op =
  let out = ref [] in
  let t_end = clock () +. seconds in
  let i = ref first in
  while (!i = first || clock () < t_end) && !i - first < max_ops do
    Span.set_op !i;
    r.attempted <- r.attempted + 1;
    let w0 = Gc.minor_words () and c0 = (Gc.quick_stat ()).Gc.major_collections in
    let n0 = Perf.instructions () in
    let t0 = clock () in
    (match Span.with_ "op" (fun () -> op !i) with
    | check -> (
        let t = 1e3 *. (clock () -. t0) in
        out :=
          {
            op_ms = t;
            instructions = Perf.instructions () -. n0;
            minor_words = Gc.minor_words () -. w0;
            major_collections = (Gc.quick_stat ()).Gc.major_collections - c0;
          }
          :: !out;
        match check () with
        | Ok () -> ()
        | Error msg -> fail r (Printf.sprintf "op %d: %s" !i msg))
    | exception e -> fail r (Printf.sprintf "op %d raised %s" !i (Printexc.to_string e)));
    incr i
  done;
  List.rev !out

(* Peak resident set (VmHWM) of this process, in MB. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
                Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
                  (fun kb -> float_of_int kb /. 1024.)
            | _ -> go ()
            | exception End_of_file -> nan
          in
          go ())

(* The phases of a run: untraced ops for the whole run or, when tracing,
   half the time untraced and half traced. Records the per-op metrics of
   the untraced phase and [trace.overhead_ratio] from the two. A smoke run
   makes one op per phase. *)
let measure ctx r op =
  let max_ops = if ctx.smoke then Some 1 else None in
  let seconds = if ctx.trace then ctx.seconds /. 2. else ctx.seconds in
  let plain = loop r ~seconds ~first:1 ?max_ops op in
  let traced =
    if not ctx.trace then []
    else begin
      Span.enabled := true;
      let l = loop r ~seconds ~first:(r.attempted + 1) ?max_ops op in
      Span.enabled := false;
      l
    end
  in
  let col ops f = Array.of_list (List.map f ops) in
  if plain <> [] then begin
    let n = float_of_int (List.length plain) in
    let p50 = median (col plain (fun c -> c.op_ms)) in
    (* The mean, so that work the GC defers from one op to a later one
       counts in full. *)
    let instructions = List.fold_left (fun acc c -> acc +. c.instructions) 0. plain /. n in
    add r "op_ginstr" "Ginstr" (if Float.is_nan instructions then 0. else instructions /. 1e9);
    add r "op_ms_p50" "ms" p50;
    add r "op.samples" "samples" n;
    add r "gc.minor_mwords" "Mwords" (median (col plain (fun c -> c.minor_words /. 1e6)));
    add r "gc.major_collections" "collections"
      (median (col plain (fun c -> float_of_int c.major_collections)));
    if traced <> [] then
      add r "trace.overhead_ratio" "ratio" (median (col traced (fun c -> c.op_ms)) /. p50)
  end

(* Per-op medians of a layer's self time over the root spans named
   [root] ("op", "setup" or "probe"), recorded in [unit] ("s" or "ms"). *)
let layer r ?(root = "op") ?(unit = "s") name metric =
  let sums = Array.of_list (Span.per_root ~root name) in
  let scale = if unit = "ms" then 1e3 else 1. in
  add r metric unit (scale *. median sums)

(* [f ()] computed in a forked child and marshalled back, so the memory
   it touches never counts toward this process's peak RSS. An exception
   in the child comes back as [Failure]. *)
let forked f =
  flush_all ();
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let v = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc v [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let v =
        match Marshal.from_channel ic with
        | v -> v
        | exception End_of_file -> Error "the child process died"
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match v with Ok v -> v | Error msg -> failwith msg)
