(* Spans recorded by the benchmark around its calls into each layer.

   Off by default: [with_ name f] is then a plain call. When enabled,
   every span keeps its name, start, stop, parent and the op it belongs
   to in memory; [write_chrome] dumps them as Chrome trace-event JSON
   (complete "X" events, which Perfetto and chrome://tracing nest by time
   on one thread) when the run ends. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  op : int;
  start : float;  (** seconds on the monotonic clock *)
  stop : float;
}

let enabled = ref false
let next_id = ref 0
let current_op = ref 0
let open_ : int list ref = ref []  (* ids of the spans now open *)
let finished : t list ref = ref []
let set_op n = current_op := n
let clock () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ with p :: _ -> p | [] -> -1 in
    let op = !current_op in
    let start = clock () in
    open_ := id :: !open_;
    Fun.protect
      ~finally:(fun () ->
        open_ := List.tl !open_;
        finished :=
          { id; name; parent; op; start; stop = clock () }
          :: !finished)
      f
  end

let all () = List.sort (fun a b -> Int.compare a.id b.id) !finished
let dur s = s.stop -. s.start

(* Self time: the span's duration minus the time its direct children
   cover (children never overlap: the benchmark is single-threaded). *)
let self_times spans =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s -> (s, dur s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    spans

(* For every root span named [root], in order: the summed self time (s)
   of the spans named [name] under it (the root included). *)
let per_root ~root name =
  let spans = all () in
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec root_of s =
    if s.parent < 0 then s else root_of (Hashtbl.find by_id s.parent)
  in
  let sums = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      if s.name = name then
        let r = root_of s in
        Hashtbl.replace sums r.id
          (self +. Option.value ~default:0. (Hashtbl.find_opt sums r.id)))
    (self_times spans);
  List.filter_map
    (fun s ->
      if s.parent < 0 && s.name = root then
        Some (Option.value ~default:0. (Hashtbl.find_opt sums s.id))
      else None)
    spans

let reset () =
  next_id := 0;
  current_op := 0;
  open_ := [];
  finished := []

let category name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let to_chrome ~meta () =
  let spans = all () in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let us x = Float.round ((x -. t0) *. 1e9) /. 1e3 in
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str (category s.name));
        ("ph", Json.Str "X");
        ("ts", Json.Num (us s.start));
        ("dur", Json.Num (us s.stop -. us s.start));
        ("pid", Json.Num 1.);
        ("tid", Json.Num 1.);
        ( "args",
          Json.Obj
            [
              ("id", Json.Num (float_of_int s.id));
              ("parent", Json.Num (float_of_int s.parent));
              ("op", Json.Num (float_of_int s.op));
            ] );
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr (List.map event spans));
      ("displayTimeUnit", Json.Str "ms");
      ("otherData", Json.Obj meta);
    ]
