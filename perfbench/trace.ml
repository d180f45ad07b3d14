(* In-memory span recorder for the traced run. Spans are taken from the
   outside, around the public calls into each layer: the benchmark
   operation itself, the client transport function, the backend router
   and the host's management calls. Each span has a name, start, end,
   parent and operation id; they stay in flat arrays until the run ends,
   when they are written out and reduced to per-layer self times (a
   span's duration minus the part covered by its children). *)

type name = Op | Transport | Route | Mgmt_export | Mgmt_import | Mgmt_save | State_restore

let names = [| "op"; "transport"; "route"; "export"; "import"; "save"; "restore" |]

let index = function
  | Op -> 0
  | Transport -> 1
  | Route -> 2
  | Mgmt_export -> 3
  | Mgmt_import -> 4
  | Mgmt_save -> 5
  | State_restore -> 6

let on = ref false

type t = {
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable op : int array;
  mutable n : int;
  mutable cur : int;  (** innermost open span, -1 at top level *)
  mutable op_id : int;
}

let st =
  let cap = 1 lsl 16 in
  {
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    op = Array.make cap 0;
    n = 0;
    cur = -1;
    op_id = 0;
  }

let grow () =
  let cap = 2 * Array.length st.name in
  let g a =
    let a' = Array.make cap 0 in
    Array.blit a 0 a' 0 st.n;
    a'
  in
  st.name <- g st.name;
  st.start <- g st.start;
  st.stop <- g st.stop;
  st.parent <- g st.parent;
  st.op <- g st.op

let open_span nm =
  if st.n = Array.length st.name then grow ();
  let i = st.n in
  st.n <- i + 1;
  st.name.(i) <- index nm;
  st.parent.(i) <- st.cur;
  st.op.(i) <- st.op_id;
  st.cur <- i;
  st.start.(i) <- Common.now_ns ();
  i

let close_span i =
  st.stop.(i) <- Common.now_ns ();
  st.cur <- st.parent.(i)

(* Time [f] as a span named [nm] when tracing is on; a plain call
   otherwise. Exceptions (a denial raised through the transport) close
   the span before propagating. *)
let span nm f =
  if not !on then f ()
  else begin
    if nm = Op then st.op_id <- st.op_id + 1;
    let i = open_span nm in
    match f () with
    | v ->
        close_span i;
        v
    | exception e ->
        close_span i;
        raise e
  end

(* A benchmark operation: timed by the closed loop, and one root span
   when tracing. *)
let op f = Common.timed (fun () -> span Op f)

(* Per span name: (count, total duration ns, total self time ns). *)
let summarize () =
  let k = Array.length names in
  let count = Array.make k 0 and dur = Array.make k 0 and self = Array.make k 0 in
  let child = Array.make st.n 0 in
  for i = 0 to st.n - 1 do
    let d = st.stop.(i) - st.start.(i) in
    let p = st.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + d
  done;
  for i = 0 to st.n - 1 do
    let d = st.stop.(i) - st.start.(i) in
    let nm = st.name.(i) in
    count.(nm) <- count.(nm) + 1;
    dur.(nm) <- dur.(nm) + d;
    self.(nm) <- self.(nm) + (d - child.(i))
  done;
  (count, dur, self)

(* Mean self time and mean duration of the spans named [nm], in us. *)
let self_us nm =
  let c, _, s = summarize () in
  let i = index nm in
  if c.(i) = 0 then 0.0 else float_of_int s.(i) /. 1e3 /. float_of_int c.(i)

let dur_us nm =
  let c, d, _ = summarize () in
  let i = index nm in
  if c.(i) = 0 then 0.0 else float_of_int d.(i) /. 1e3 /. float_of_int c.(i)

(* One line per span: op id, name, start, end (ns, relative to the first
   span), parent index. *)
let write_out path =
  let oc = open_out path in
  let base = if st.n > 0 then st.start.(0) else 0 in
  output_string oc "# index\top\tname\tstart_ns\tend_ns\tparent\n";
  for i = 0 to st.n - 1 do
    Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\n" i st.op.(i) names.(st.name.(i))
      (st.start.(i) - base) (st.stop.(i) - base) st.parent.(i)
  done;
  close_out oc
