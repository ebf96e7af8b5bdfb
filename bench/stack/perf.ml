(* Instructions retired in user space by this process and the threads and
   processes it starts, from the hardware counter (perf_event_open(2)).
   Unlike time, the count does not move when other tenants of a shared
   machine contend for its caches and memory. *)

external open_ : unit -> int = "stackbench_instructions_open"
external read : int -> int = "stackbench_instructions_read" [@@noalloc]

(* Opened on first use, in the process that reads it. *)
let fd = lazy (open_ ())

(* The count so far, or nan without a counter. *)
let instructions () =
  let fd = Lazy.force fd in
  if fd < 0 then nan
  else
    let n = read fd in
    if n < 0 then nan else float_of_int n
