(* Wall-clock benchmark of the vTPM stack: one workload per process.

   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR

   With --trace 0 it sets up the workload's host(s), runs the closed loop
   for S seconds and reports the end-to-end metrics. With --trace 1 it
   alternates untraced and traced slices on the same host, S/2 seconds of
   each, and reports the per-layer metrics (spans, seam counters and
   replays) plus the tracing overhead. Either way it writes DIR/oracle-NAME.log for the
   independent checker and prints one JSON line last. *)

open Vtpm_access

type 'ctx workload = {
  setup : unit -> 'ctx;
  warmup : 'ctx -> unit;
  round : 'ctx -> unit -> unit;
  sim_now : 'ctx -> unit -> float;
  instrument : 'ctx -> unit;  (** install the traced run's probes *)
  finish : 'ctx -> unit;  (** end-of-run checks and final oracle facts *)
  layers : 'ctx -> traced:Common.phase -> unit;  (** per-layer metrics *)
  rsa_bits : int;
}

(* Set-up is repeated and its median reported: at least [min_setups]
   times, and until the set-ups add up to [setup_budget_s] (at most
   [max_setups]), so a set-up of a few milliseconds is not read from a
   handful of samples. The first host runs the traffic; the others are
   built after the timed phase (so they cannot disturb it) and discarded. *)
let min_setups = 5
let max_setups = 50
let setup_budget_s = 1.0

(* The traced run alternates this many untraced and traced slices. *)
let trace_slices = 5

let time_s f =
  let t0 = Common.now_ns () in
  let v = f () in
  (Common.ns_to_s (Common.now_ns () - t0), v)

(* Layers every workload exercises at set-up: key generation and
   instance creation, replayed on scratch state. Prime search makes single
   key generations vary a lot, so these are means over [samples]. *)
let setup_layers ~rsa_bits =
  let samples = 20 in
  let mean_ms f = 1e3 *. Common.mean (Array.init samples (fun _ -> fst (time_s f))) in
  let rng = Vtpm_util.Rng.create ~seed:0x6b6579 in
  Common.metric "crypto.rsa_keygen_ms"
    (mean_ms (fun () -> ignore (Vtpm_crypto.Rsa.generate ~bits:rsa_bits rng)));
  let mgr = Vtpm_mgr.Manager.create ~rsa_bits ~seed:77 ~cost:(Vtpm_util.Cost.create ()) () in
  Common.metric "manager.create_instance_ms"
    (mean_ms (fun () -> ignore (Vtpm_mgr.Manager.create_instance mgr)))

let run w ~seconds ~trace =
  let setup1, ctx = time_s w.setup in
  w.warmup ctx;
  if not trace then begin
    let p = Common.run_phase ~seconds ~sim_now:(w.sim_now ctx) ~round:(w.round ctx) in
    w.finish ctx;
    let heap_mb = Common.heap_peak_mb () in
    Option.iter close_out !Common.oracle;
    Common.oracle := None;
    let rec setups acc total n =
      if n >= max_setups || (n >= min_setups && total >= setup_budget_s) then acc
      else
        let dt = fst (time_s w.setup) in
        setups (dt :: acc) (total +. dt) (n + 1)
    in
    Common.report_end_to_end p ~heap_mb
      ~setup_s:(Common.median (Array.of_list (setups [ setup1 ] setup1 1)))
  end
  else begin
    w.instrument ctx;
    (* Untraced and traced slices alternate, so drift over the run (heap
       growth, audit rotation, throttling) lands on both sides equally. *)
    let slice = seconds /. float_of_int (2 * trace_slices) in
    let phase traced =
      Trace.on := traced;
      let p = Common.run_phase ~seconds:slice ~sim_now:(w.sim_now ctx) ~round:(w.round ctx) in
      Trace.on := false;
      p
    in
    let plain = ref (phase false) and traced = ref (phase true) in
    for _ = 2 to trace_slices do
      plain := Common.merge !plain (phase false);
      traced := Common.merge !traced (phase true)
    done;
    let plain = !plain and traced = !traced in
    w.finish ctx;
    Common.report_gc plain;
    Common.metric "trace.overhead_pct"
      (100.0 *. ((Common.ops_per_s plain /. Common.ops_per_s traced) -. 1.0));
    w.layers ctx ~traced;
    setup_layers ~rsa_bits:w.rsa_bits
  end

(* --- The workloads ----------------------------------------------------------- *)

(* Request-path layers, shared by pcr-fleet and attest: the probe
   counters start at the traced phase, so the monitor's counters are
   snapshotted when it begins. *)
let path_instrument host snap =
  Path.instrument host;
  let m = Host.monitor_exn host in
  snap := Some (Path.copy_stats (Monitor.stats m), Audit.length m.Monitor.audit)

let path_layers host snap ~(traced : Common.phase) =
  let stats0, audit0 = Option.get !snap in
  Path.report ~ops:traced.Common.ops ~stats0 ~audit0 host

let fleet ~mode =
  let snap = ref None in
  {
    setup = Fleet.setup ~mode;
    warmup = (fun ctx -> Fleet.round ~expect_denied:(mode = Host.Improved_mode) ctx ());
    round = Fleet.round ~expect_denied:(mode = Host.Improved_mode);
    sim_now = Fleet.sim_now;
    instrument = (fun ctx -> path_instrument ctx.Fleet.host snap);
    finish = Fleet.finish;
    layers =
      (fun ctx ~traced ->
        path_layers ctx.Fleet.host snap ~traced;
        Common.metric "setup.create_guest_ms" (Common.median ctx.Fleet.create_guest_ms);
        Common.metric "setup.provision_ms" (Common.mean ctx.Fleet.provision_ms));
    rsa_bits = Fleet.rsa_bits;
  }

let attest =
  let snap = ref None in
  {
    setup = Attest.setup;
    warmup = (fun ctx -> for _ = 1 to 25 do Attest.round ctx () done);
    round = Attest.round;
    sim_now = Attest.sim_now;
    instrument = (fun ctx -> path_instrument ctx.Attest.host snap);
    finish = Attest.finish;
    layers =
      (fun ctx ~traced ->
        path_layers ctx.Attest.host snap ~traced;
        Attest.replay_crypto ctx;
        (* Tenant.setup builds its own guest; time Host.create_guest on
           two extra guests instead, then tear them down. *)
        let host = ctx.Attest.host in
        let create =
          Array.init 2 (fun i ->
              let dt, g =
                time_s (fun () ->
                    Host.create_guest_exn host ~name:(Printf.sprintf "extra-%d" i) ~label:"tenant_x" ())
              in
              ignore (Host.destroy_guest host g);
              dt *. 1e3)
        in
        Common.metric "setup.create_guest_ms" (Common.median create);
        Common.metric "setup.provision_ms" (Common.mean ctx.Attest.provision_ms));
    rsa_bits = Attest.rsa_bits;
  }

let migrate =
  let instances = ref 0 in
  {
    setup = Migrate.setup;
    warmup = Migrate.warmup;
    round = Migrate.round;
    sim_now = Migrate.sim_now;
    instrument = (fun _ -> ());
    finish = (fun ctx -> instances := Migrate.finish ctx);
    layers =
      (fun ctx ~traced:_ ->
        Migrate.report ctx ~instances:!instances;
        let denied =
          Array.fold_left
            (fun a h -> a + (Monitor.stats (Host.monitor_exn h)).Monitor.denied)
            0 ctx.Migrate.hosts
        in
        Common.metric "monitor.denied" (float_of_int denied);
        Common.metric "setup.create_guest_ms" (Common.median ctx.Migrate.create_guest_ms);
        Common.metric "setup.provision_ms" (Common.mean ctx.Migrate.provision_ms));
    rsa_bits = Migrate.rsa_bits;
  }

(* --- Command line -------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out = ref "." in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "pcr-fleet | attest | migrate | pcr-fleet-baseline");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "timed phase length");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics; 1: per-layer metrics");
      ("--out", Arg.Set_string out, "directory for the oracle log and the spans");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench [options]";
  Common.seed_inputs !seed;
  Common.oracle := Some (open_out (Filename.concat !out ("oracle-" ^ !workload ^ ".log")));
  let trace = !trace = 1 and seconds = !seconds in
  (match !workload with
  | "pcr-fleet" -> run (fleet ~mode:Host.Improved_mode) ~seconds ~trace
  | "pcr-fleet-baseline" when not trace -> run (fleet ~mode:Host.Baseline_mode) ~seconds ~trace
  | "attest" -> run attest ~seconds ~trace
  | "migrate" -> run migrate ~seconds ~trace
  | w ->
      prerr_endline ("unknown workload (or one without a traced run) " ^ w);
      exit 2);
  Option.iter close_out !Common.oracle;
  if trace then Trace.write_out (Filename.concat !out ("spans-" ^ !workload ^ ".tsv"));
  print_endline
    (Common.result_json (if trace then Common.per_layer else Common.end_to_end))
