(* Shared machinery of the wall-clock benchmark: the clock, the closed-loop
   latency recorder, the oracle log, metric bookkeeping and the JSON that
   run.py reads back. Nothing here calls into the program under test. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ns_to_us ns = float_of_int ns /. 1e3
let ns_to_s ns = float_of_int ns /. 1e9

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* --- Latency store -------------------------------------------------------------

   Latencies live in a growable Bigarray, outside the OCaml heap, so that
   keeping them does not inflate the heap the benchmark reports. *)

module Lat = struct
  open Bigarray

  type t = { mutable a : (float, float64_elt, c_layout) Array1.t; mutable n : int }

  let create () = { a = Array1.create float64 c_layout (1 lsl 16); n = 0 }

  let add b x =
    if b.n = Array1.dim b.a then begin
      let a' = Array1.create float64 c_layout (2 * b.n) in
      Array1.blit b.a (Array1.sub a' 0 b.n);
      b.a <- a'
    end;
    Array1.unsafe_set b.a b.n x;
    b.n <- b.n + 1

  let get b i = Array1.get b.a i
  let clear b = b.n <- 0
end

(* Nearest-rank quantile of an unsorted sample (copied, then sorted). *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))
  end

let median xs = quantile xs 0.5

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* --- Operation accounting --------------------------------------------------

   Every benchmark operation goes through [timed]: it is counted as
   attempted and, while a phase records, its wall-clock latency is kept.
   The check of its outcome runs after the call, outside the timed window,
   and reports a wrong outcome through [fail] — a correctly denied probe
   is a right outcome. *)

type counters = { mutable attempted : int; mutable failed : int; mutable problems : string list }

let counters = { attempted = 0; failed = 0; problems = [] }
let latencies = Lat.create ()
let recording = ref false

let fail fmt =
  Printf.ksprintf
    (fun m ->
      counters.failed <- counters.failed + 1;
      if List.length counters.problems < 20 then counters.problems <- m :: counters.problems)
    fmt

(* [f] runs the operation and returns the value the check consumes. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  if !recording then Lat.add latencies (float_of_int (t1 - t0) /. 1e3);
  counters.attempted <- counters.attempted + 1;
  r

(* Global invariants checked once, at the end of a run, that belong to
   no single operation. *)
let invariant_ok = ref true

let invariant cond fmt =
  Printf.ksprintf
    (fun m ->
      if not cond then begin
        invariant_ok := false;
        counters.problems <- ("invariant: " ^ m) :: counters.problems
      end)
    fmt

(* --- Oracle log ------------------------------------------------------------

   Line-oriented, hex-encoded facts the independent checker (oracle.py)
   recomputes without the program: extend inputs and outputs, PCR reads,
   final PCR values, public keys, quotes and signatures. Written through
   a channel as the run goes, so it never accumulates in the OCaml heap. *)

let oracle : out_channel option ref = ref None

(* Hex by hand rather than through the program's [Hex]: nothing the oracle
   reads passes through program code. *)
let hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let log fmt =
  Printf.ksprintf
    (fun line ->
      match !oracle with
      | Some oc ->
          output_string oc line;
          output_char oc '\n'
      | None -> ())
    fmt

(* --- Seeded input generation (independent of the program's own RNG) ---- *)

let rng = ref (Random.State.make [| 0 |])
let seed_inputs seed = rng := Random.State.make [| 0x5eed; seed |]
let rand_int n = Random.State.int !rng n
let rand_bytes n = String.init n (fun _ -> Char.chr (Random.State.int !rng 256))

let shuffle a =
  for i = Array.length a - 1 downto 1 do
    let j = rand_int (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* --- Metrics ---------------------------------------------------------------- *)

(* Every metric the benchmark reports, with its unit: the end-to-end ones
   (untraced runs) and the per-layer ones (traced runs). BENCHMARK.json
   lists the same names. *)
let end_to_end =
  [
    ("ops_s", "1/s");
    ("lat_p50_us", "us");
    ("lat_p99_us", "us");
    ("cpu_us_per_op", "us");
    ("setup_s", "s");
    ("heap_peak_mb", "MB");
  ]

let per_layer =
  [
    ("client.self_us", "us");
    ("client.exchanges_per_op", "count");
    ("driver.self_us", "us");
    ("driver.rings_scanned_per_req", "count");
    ("driver.wire_bytes_per_req", "bytes");
    ("monitor.route_us", "us");
    ("monitor.decide_us", "us");
    ("monitor.rules_scanned_per_req", "count");
    ("monitor.cache_hit_ratio", "ratio");
    ("monitor.gate_checks_per_req", "count");
    ("monitor.denied", "count");
    ("audit.append_us", "us");
    ("audit.entries_per_req", "count");
    ("audit.bytes_per_entry", "bytes");
    ("engine.exec_us", "us");
    ("crypto.rsa_sign_us", "us");
    ("crypto.hmac_sha1_us", "us");
    ("crypto.rsa_keygen_ms", "ms");
    ("manager.create_instance_ms", "ms");
    ("setup.create_guest_ms", "ms");
    ("setup.provision_ms", "ms");
    ("migration.export_us", "us");
    ("migration.import_us", "us");
    ("migration.stream_bytes", "bytes");
    ("migration.replays_refused", "count");
    ("state.save_us", "us");
    ("state.restore_us", "us");
    ("state.blob_bytes", "bytes");
    ("manager.instances", "count");
    ("sim.us_per_op", "us");
    ("gc.minor_words_per_op", "words");
    ("gc.promoted_words_per_op", "words");
    ("gc.major_collections", "count");
    ("trace.overhead_pct", "%");
  ]

let metrics : (string, float) Hashtbl.t = Hashtbl.create 64

let metric name v =
  if not (List.mem_assoc name end_to_end || List.mem_assoc name per_layer) then
    invalid_arg ("unknown metric " ^ name);
  Hashtbl.replace metrics name v

let json_float v = Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* [names] is the metric set of this run; a layer the workload does not
   exercise reads 0. *)
let result_json names =
  let ms =
    List.map
      (fun (name, unit) ->
        let v = Option.value ~default:0.0 (Hashtbl.find_opt metrics name) in
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name) (json_float v)
          (json_string unit))
      names
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}, \"problems\": [%s]}"
    !invariant_ok counters.attempted counters.failed (String.concat ", " ms)
    (String.concat ", " (List.rev_map json_string counters.problems))

(* --- Timed phases ------------------------------------------------------------

   A phase is cut into slices of [slice_s]. On a host with shared cores
   and caches the speed of one core drifts between states over seconds
   (see README.md); the end-to-end metrics pool the half of the slices
   with the higher median latency, so a run reports the usual, slower
   state even when part of it ran in a faster one. *)

let slice_s = 0.5

type slice = { s_ops : int; s_elapsed : float; s_cpu : float; s_lat : int * int }

type phase = {
  ops : int;
  elapsed_s : float;
  cpu_s : float;
  slices : slice list;
  sim_us : float;  (** simulated time the program's cost model charged *)
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

(* Closed loop: run whole rounds until [seconds] have passed. A round is
   the workload's unit of traffic (one operation per guest, or a fixed
   cycle of management operations), so every run attempts whole rounds
   and the share of any operation kind is the same in every run. *)
let run_phase ~seconds ~sim_now ~round =
  Lat.clear latencies;
  recording := true;
  let ops0 = counters.attempted in
  let sim0 = sim_now () in
  let g0 = Gc.quick_stat () in
  let c0 = cpu_s () in
  let t0 = now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let slices = ref [] in
  let s_t = ref t0 and s_c = ref c0 and s_ops = ref ops0 in
  while !s_t < deadline do
    let stop = min deadline (!s_t + int_of_float (slice_s *. 1e9)) in
    let lat0 = latencies.Lat.n in
    while now_ns () < stop do
      round ()
    done;
    let t = now_ns () and c = cpu_s () in
    slices :=
      {
        s_ops = counters.attempted - !s_ops;
        s_elapsed = ns_to_s (t - !s_t);
        s_cpu = c -. !s_c;
        s_lat = (lat0, latencies.Lat.n);
      }
      :: !slices;
    s_t := t;
    s_c := c;
    s_ops := counters.attempted
  done;
  let g1 = Gc.quick_stat () in
  recording := false;
  {
    ops = counters.attempted - ops0;
    elapsed_s = ns_to_s (!s_t - t0);
    cpu_s = !s_c -. c0;
    slices = List.rev !slices;
    sim_us = sim_now () -. sim0;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
  }

let ops_per_s p = float_of_int p.ops /. p.elapsed_s

(* Sum of two phases. *)
let merge a b =
  {
    ops = a.ops + b.ops;
    elapsed_s = a.elapsed_s +. b.elapsed_s;
    cpu_s = a.cpu_s +. b.cpu_s;
    slices = a.slices @ b.slices;
    sim_us = a.sim_us +. b.sim_us;
    minor_words = a.minor_words +. b.minor_words;
    promoted_words = a.promoted_words +. b.promoted_words;
    major_collections = a.major_collections + b.major_collections;
  }

let heap_peak_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.0

(* The six end-to-end metrics, from an untraced phase. *)
let report_end_to_end p ~setup_s ~heap_mb =
  let lat_of { s_lat = lo, hi; _ } = Array.init (hi - lo) (fun i -> Lat.get latencies (lo + i)) in
  let by_p50 =
    List.map (fun s -> (median (lat_of s), s)) p.slices
    |> List.sort (fun (a, _) (b, _) -> compare b a)
    |> List.map snd
  in
  let kept = List.filteri (fun i _ -> 2 * i < List.length by_p50) by_p50 in
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0.0 kept in
  let ops = sum (fun s -> float_of_int s.s_ops) in
  let lat = Array.concat (List.map lat_of kept) in
  metric "ops_s" (ops /. sum (fun s -> s.s_elapsed));
  metric "lat_p50_us" (median lat);
  metric "lat_p99_us" (quantile lat 0.99);
  metric "cpu_us_per_op" (sum (fun s -> s.s_cpu) *. 1e6 /. Float.max 1.0 ops);
  metric "setup_s" setup_s;
  metric "heap_peak_mb" heap_mb

let report_gc p =
  let per_op x = x /. float_of_int (max 1 p.ops) in
  metric "gc.minor_words_per_op" (per_op p.minor_words);
  metric "gc.promoted_words_per_op" (per_op p.promoted_words);
  metric "gc.major_collections" (float_of_int p.major_collections);
  metric "sim.us_per_op" (per_op p.sim_us)
