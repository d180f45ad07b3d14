(* Benchmark harness: regenerates every table and figure of the
   reconstructed evaluation (see DESIGN.md) and runs a Bechamel
   micro-benchmark suite with one test per table/figure covering its
   critical code path.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- table1 fig2  # selected sections
     dune exec bench/main.exe -- micro        # only Bechamel

   Experiment latencies are simulated microseconds (deterministic); the
   Bechamel section reports real wall-clock of this implementation.
   Sections with invariants pass them through one gate: every requested
   section runs, then the failed checks are listed and the run exits
   non-zero. *)

(* The bare clock, for the paired fig14 timings; [Toolkit] below shadows
   the name. *)
module Clock = Monotonic_clock

open Bechamel
open Toolkit

let say fmt = Format.printf fmt

let show rendered =
  print_string rendered;
  print_newline ()

(* --- Artifacts and the gate ------------------------------------------------------ *)

(* The BENCH_PR*.json artifacts share one value type and one printer.
   Numbers are formatted where they are built, so each field keeps its
   own precision; a NaN becomes [null]. *)
type json =
  | Null
  | Bool of bool
  | Int of int
  | Num of string
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let fixed digits v = if Float.is_nan v then Null else Num (Printf.sprintf "%.*f" digits v)
let opt_fixed digits = function Some v -> fixed digits v | None -> Null

let series_json ~digits series =
  Obj
    (List.map
       (fun (name, points) ->
         ( name,
           Arr (List.map (fun (x, y) -> Arr [ Num (Printf.sprintf "%g" x); fixed digits y ]) points)
         ))
       series)

let checks_json checks = Obj (List.map (fun (name, ok) -> (name, Bool ok)) checks)

(* Objects and arrays of objects take one member per line; other arrays
   (series points, scalars) stay on one line. *)
let rec add_json buf indent v =
  let block opening closing items add_item =
    Buffer.add_string buf opening;
    let inner = indent ^ "  " in
    List.iteri
      (fun i item ->
        Buffer.add_string buf (if i = 0 then "\n" else ",\n");
        Buffer.add_string buf inner;
        add_item inner item)
      items;
    Buffer.add_string buf ("\n" ^ indent ^ closing)
  in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Num s -> Buffer.add_string buf s
  | Str s -> Buffer.add_string buf (Printf.sprintf "%S" s)
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      block "{" "}" fields (fun inner (k, v) ->
          Buffer.add_string buf (Printf.sprintf "%S: " k);
          add_json buf inner v)
  | Arr items when List.exists (function Obj _ -> true | _ -> false) items ->
      block "[" "]" items (add_json buf)
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ", ";
          add_json buf indent item)
        items;
      Buffer.add_char buf ']'

let emit ~pr ~figure ~unit ~x_label fields =
  let file = Printf.sprintf "BENCH_PR%d.json" pr in
  let buf = Buffer.create 4096 in
  add_json buf ""
    (Obj
       (("pr", Int pr) :: ("figure", Str figure) :: ("unit", Str unit)
       :: ("x_label", Str x_label) :: fields));
  Buffer.add_char buf '\n';
  Out_channel.with_open_text file (fun oc -> Out_channel.output_string oc (Buffer.contents buf));
  say "wrote %s@." file

(* (section, check) of every failed check so far; the driver lists them
   and exits non-zero once every requested section has run. *)
let failed : (string * string) list ref = ref []

let gate ~section checks =
  List.iter
    (fun (name, ok) ->
      say "%s check %-46s %s@." section name (if ok then "PASS" else "FAIL");
      if not ok then failed := (section, name) :: !failed)
    checks

let point series name x = Option.bind (List.assoc_opt name series) (List.assoc_opt x)

let ratio_at series ~over name x =
  match (point series over x, point series name x) with
  | Some d, Some n when d > 0.0 -> Some (n /. d)
  | _ -> None

(* --- Experiment sections ----------------------------------------------------- *)

(* A section that only prints its rendered table or figure. *)
let plain f () = show (snd (f ()))

let run_table2 () =
  let battery mode = Vtpm_attacks.Attack.run_battery ~mode in
  let baseline = battery Vtpm_access.Host.Baseline_mode in
  let improved = battery Vtpm_access.Host.Improved_mode in
  let rows =
    List.map2
      (fun (b : Vtpm_attacks.Attack.outcome) (i : Vtpm_attacks.Attack.outcome) ->
        let cell (o : Vtpm_attacks.Attack.outcome) = if o.succeeded then "RETRIEVED" else "blocked" in
        [ b.attack; cell b; cell i; i.detail ])
      baseline improved
  in
  show
    (Vtpm_sim.Table.render
       ~title:"Table 2: attack outcomes, baseline vs improved (RETRIEVED = attacker wins)"
       ~header:[ "attack"; "baseline"; "improved"; "improved detail" ]
       ~rows)

let run_table5 () =
  plain Vtpm_sim.Experiments.table5 ();
  show (Vtpm_sim.Experiments.render_wedge_drill (Vtpm_sim.Experiments.wedge_drill ~seed:97 ()))

(* fig8 also emits BENCH_PR4.json so CI and regression tooling can diff
   the lane-scaling numbers without scraping the rendered table. *)
let run_fig8 () =
  let series, rendered = Vtpm_sim.Experiments.fig8 () in
  show rendered;
  emit ~pr:4 ~figure:"fig8" ~unit:"simulated ops/s" ~x_label:"vms"
    [
      ("series", series_json ~digits:1 series);
      ( "speedup_8lane_vs_1lane_at_32_vms",
        opt_fixed 2 (ratio_at series ~over:"1-lane" "8-lane" 32.0) );
    ]

(* --- Bechamel micro-benchmarks ------------------------------------------------- *)

(* One test per table/figure, benchmarking the code path that dominates it. *)

let data_4k = String.init 4096 (fun i -> Char.chr (i land 0xff))

(* table1: the full monitored request round trip (PCRRead, improved). *)
let bench_roundtrip () =
  let host, tenants =
    Vtpm_sim.Workload.make_host_with_tenants ~mode:Vtpm_access.Host.Improved_mode ~n:1 ~seed:7 ()
  in
  let tenant = List.hd tenants in
  Test.make ~name:"table1/monitored-pcr-read"
    (Staged.stage (fun () ->
         match Vtpm_sim.Tenant.run_op tenant Vtpm_sim.Tenant.Op_pcr_read with
         | Ok () -> ()
         | Error e -> invalid_arg e
         | exception _ -> ignore host))

(* table2: the monitor's denial path (unbound sender). *)
let bench_denial () =
  let host, _ =
    Vtpm_sim.Workload.make_host_with_tenants ~mode:Vtpm_access.Host.Improved_mode ~n:1 ~seed:8 ()
  in
  let monitor = Vtpm_access.Host.monitor_exn host in
  let router = Vtpm_access.Monitor.router monitor in
  let wire = Vtpm_tpm.Wire.encode_request (Vtpm_tpm.Cmd.Pcr_read { pcr = 0 }) in
  Test.make ~name:"table2/denied-request"
    (Staged.stage (fun () ->
         match router ~sender:999 ~claimed_instance:1 ~wire with
         | Ok _ -> invalid_arg "should deny"
         | Error _ -> ()))

(* table3: sealed state save of a provisioned instance. *)
let bench_sealed_save () =
  let host, tenants =
    Vtpm_sim.Workload.make_host_with_tenants ~mode:Vtpm_access.Host.Improved_mode ~n:1 ~seed:9 ()
  in
  let tenant = List.hd tenants in
  let mgr = host.Vtpm_access.Host.mgr in
  let inst =
    match Vtpm_mgr.Manager.find mgr tenant.Vtpm_sim.Tenant.guest.Vtpm_access.Host.vtpm_id with
    | Ok i -> i
    | Error _ -> invalid_arg "no instance"
  in
  Test.make ~name:"table3/sealed-state-save"
    (Staged.stage (fun () ->
         match Vtpm_mgr.Stateproc.save mgr inst ~format:Vtpm_mgr.Stateproc.Sealed with
         | Ok _ -> ()
         | Error e -> invalid_arg e))

(* table4: v2 frame integrity (version byte + CRC) on the request hot path. *)
let bench_frame_crc () =
  let wire = Vtpm_tpm.Wire.encode_request (Vtpm_tpm.Cmd.Pcr_read { pcr = 0 }) in
  Test.make ~name:"table4/frame-encode-decode"
    (Staged.stage (fun () ->
         let f = Vtpm_mgr.Proto.encode_request ~claimed_instance:1 wire in
         match Vtpm_mgr.Proto.decode_request f with
         | Ok _ -> ()
         | Error e -> invalid_arg e))

(* fig1: one mixed-workload operation end to end. *)
let bench_mixed_op () =
  let host, tenants =
    Vtpm_sim.Workload.make_host_with_tenants ~mode:Vtpm_access.Host.Improved_mode ~n:1 ~seed:10 ()
  in
  let tenant = List.hd tenants in
  let rng = Vtpm_util.Rng.create ~seed:3 in
  ignore host;
  Test.make ~name:"fig1/mixed-op"
    (Staged.stage (fun () ->
         let op = Vtpm_sim.Workload.pick_op rng Vtpm_sim.Workload.mixed in
         match Vtpm_sim.Tenant.run_op tenant op with Ok () -> () | Error _ -> ()))

(* fig2: pure policy evaluation over a large rule list. *)
let bench_policy_eval () =
  let policy = Vtpm_access.Policy.synthetic ~n:4096 in
  let subject = Vtpm_access.Subject.Guest 3 in
  Test.make ~name:"fig2/policy-eval-4096"
    (Staged.stage (fun () ->
         ignore
           (Vtpm_access.Policy.eval policy ~subject ~label:"tenant_x"
              ~ordinal:Vtpm_tpm.Types.ord_pcr_read
              ~measured_ok:(fun () -> true))))

(* fig9: the same decision through the compiled first-match index. *)
let bench_policy_eval_indexed () =
  let index = Vtpm_access.Policy.compile (Vtpm_access.Policy.synthetic ~n:4096) in
  let subject = Vtpm_access.Subject.Guest 3 in
  Test.make ~name:"fig9/policy-eval-indexed-4096"
    (Staged.stage (fun () ->
         ignore
           (Vtpm_access.Policy.eval_indexed index ~subject ~label:"tenant_x"
              ~ordinal:Vtpm_tpm.Types.ord_pcr_read
              ~measured_ok:(fun () -> true))))

(* fig9: the per-entry chain digest alone (binary encoder, reused SHA-256
   context) — the pure wall-clock residue of every audited request. *)
let bench_audit_digest () =
  let prev = Vtpm_crypto.Sha256.digest "bench-prev" in
  Test.make ~name:"fig9/audit-entry-digest"
    (Staged.stage (fun () ->
         ignore
           (Vtpm_access.Audit.entry_digest ~seq:42 ~time_us:123456.789 ~subject:"guest:3"
              ~operation:"TPM_Extend" ~instance:(Some 1) ~allowed:true ~reason:"rule@4"
              ~prev_hash:prev)))

(* fig3: audit append (per-request bookkeeping that shapes tail latency). *)
let bench_audit () =
  let cost = Vtpm_util.Cost.create () in
  let audit = Vtpm_access.Audit.create ~cost in
  Test.make ~name:"fig3/audit-append"
    (Staged.stage (fun () ->
         Vtpm_access.Audit.append audit ~subject:"guest:3" ~operation:"TPM_Extend"
           ~instance:(Some 1) ~allowed:true ~reason:"rule@4"))

(* fig4: protected migration export. *)
let bench_migrate () =
  let host, tenants =
    Vtpm_sim.Workload.make_host_with_tenants ~mode:Vtpm_access.Host.Improved_mode ~n:1 ~seed:12 ()
  in
  let dest = Vtpm_access.Host.create ~mode:Vtpm_access.Host.Improved_mode ~seed:13 ~rsa_bits:256 () in
  let dest_key = Vtpm_mgr.Migration.bind_pubkey dest.Vtpm_access.Host.mgr in
  let tenant = List.hd tenants in
  let mgr = host.Vtpm_access.Host.mgr in
  let inst =
    match Vtpm_mgr.Manager.find mgr tenant.Vtpm_sim.Tenant.guest.Vtpm_access.Host.vtpm_id with
    | Ok i -> i
    | Error _ -> invalid_arg "no instance"
  in
  Test.make ~name:"fig4/protected-export"
    (Staged.stage (fun () ->
         match
           Vtpm_mgr.Migration.export mgr inst ~mode:Vtpm_mgr.Migration.Protected
             ~dest_key:(Some dest_key)
         with
         | Ok _ -> ()
         | Error e -> invalid_arg e))

(* Substrate primitives, for context in the report. *)
let bench_primitives () =
  let rng = Vtpm_util.Rng.create ~seed:99 in
  let key = Vtpm_crypto.Rsa.generate ~bits:512 rng in
  let digest = Vtpm_crypto.Sha1.digest "bench" in
  [
    Test.make ~name:"prim/sha1-4KiB"
      (Staged.stage (fun () -> ignore (Vtpm_crypto.Sha1.digest data_4k)));
    Test.make ~name:"prim/sha256-4KiB"
      (Staged.stage (fun () -> ignore (Vtpm_crypto.Sha256.digest data_4k)));
    (* Pre-overhaul Int32 implementations, frozen in [Sha_ref]: measured in
       the same process so the before/after ratio is box-speed independent. *)
    Test.make ~name:"prim/sha1-4KiB-ref"
      (Staged.stage (fun () -> ignore (Sha_ref.Sha1_ref.digest data_4k)));
    Test.make ~name:"prim/sha256-4KiB-ref"
      (Staged.stage (fun () -> ignore (Sha_ref.Sha256_ref.digest data_4k)));
    Test.make ~name:"prim/hmac-sha1"
      (Staged.stage (fun () -> ignore (Vtpm_crypto.Hmac.sha1_mac ~key:"k" "message")));
    Test.make ~name:"prim/sha1-4KiB-stream"
      (Staged.stage (fun () ->
           (* Chunked feed: exercises the zero-copy block path. *)
           let ctx = Vtpm_crypto.Sha1.init () in
           let chunk = 512 in
           for i = 0 to (String.length data_4k / chunk) - 1 do
             Vtpm_crypto.Sha1.feed_sub ctx data_4k ~off:(i * chunk) ~len:chunk
           done;
           ignore (Vtpm_crypto.Sha1.finalize ctx)));
    Test.make ~name:"prim/rsa512-sign"
      (Staged.stage (fun () -> ignore (Vtpm_crypto.Rsa.sign key ~digest)));
    Test.make ~name:"prim/rsa512-sign-nocrt"
      (Staged.stage (fun () -> ignore (Vtpm_crypto.Rsa.sign_no_crt key ~digest)));
    Test.make ~name:"prim/rsa512-sign-schoolbook"
      (Staged.stage
         (* The full pre-overhaul path: one full-width schoolbook
            exponentiation (one Knuth-D division per product), no CRT. *)
         (let em = Vtpm_crypto.Rsa.pad_signature key.Vtpm_crypto.Rsa.pub digest in
          let m = Vtpm_crypto.Bignum.of_bytes_be em in
          fun () ->
            ignore
              (Vtpm_crypto.Bignum.mod_pow_schoolbook
                 ~modulus:key.Vtpm_crypto.Rsa.pub.Vtpm_crypto.Rsa.n m
                 key.Vtpm_crypto.Rsa.d)));
    Test.make ~name:"prim/modpow-montgomery"
      (Staged.stage
         (let modulus = key.Vtpm_crypto.Rsa.pub.Vtpm_crypto.Rsa.n in
          let base = Vtpm_crypto.Bignum.rem (Vtpm_crypto.Bignum.of_bytes_be data_4k) modulus in
          let exp = key.Vtpm_crypto.Rsa.d in
          fun () -> ignore (Vtpm_crypto.Bignum.mod_pow ~modulus base exp)));
    Test.make ~name:"prim/modpow-schoolbook"
      (Staged.stage
         (let modulus = key.Vtpm_crypto.Rsa.pub.Vtpm_crypto.Rsa.n in
          let base = Vtpm_crypto.Bignum.rem (Vtpm_crypto.Bignum.of_bytes_be data_4k) modulus in
          let exp = key.Vtpm_crypto.Rsa.d in
          fun () -> ignore (Vtpm_crypto.Bignum.mod_pow_schoolbook ~modulus base exp)));
    Test.make ~name:"prim/xtea-ctr-4KiB"
      (Staged.stage
         (let xk = Vtpm_crypto.Xtea.key_of_string (String.sub data_4k 0 16) in
          fun () -> ignore (Vtpm_crypto.Xtea.ctr_transform xk ~nonce:1 data_4k)));
  ]

(* Run a list of Bechamel tests and return sorted (name, ns/run) rows. *)
let measure_tests tests : (string * float) list =
  let grouped = Test.make_grouped ~name:"vtpm" tests in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with Some (v :: _) -> v | _ -> Float.nan
      in
      rows := (name, ns) :: !rows)
    results;
  List.sort (fun (a, _) (b, _) -> Stdlib.compare a b) !rows

let render_micro rows =
  print_string
    (Vtpm_sim.Table.render ~title:"" ~header:[ "benchmark"; "ns/run"; "us/run" ]
       ~rows:
         (List.map
            (fun (name, ns) ->
              [ name; Printf.sprintf "%.0f" ns; Printf.sprintf "%.2f" (ns /. 1000.0) ])
            rows));
  print_newline ()

let run_micro () =
  say "Bechamel micro-benchmarks (real wall-clock of this implementation)@.";
  let tests =
    [
      bench_roundtrip ();
      bench_denial ();
      bench_sealed_save ();
      bench_frame_crc ();
      bench_mixed_op ();
      bench_policy_eval ();
      bench_policy_eval_indexed ();
      bench_audit ();
      bench_audit_digest ();
      bench_migrate ();
    ]
    @ bench_primitives ()
  in
  render_micro (measure_tests tests)
(* fig9 also emits BENCH_PR5.json: the lane-scaling series under a large
   guarded policy (the linear reference and the production monitor), the
   fig2 series showing the flattened policy-size curve, and real
   wall-clock Bechamel numbers for the audit/crypto fast paths. Its gate
   requires the production monitor to beat the linear reference at every
   VM count. *)
let run_fig9 () =
  let series, rendered = Vtpm_sim.Experiments.fig9 () in
  show rendered;
  say "fig2 (simulated us)@.";
  let fig2_series, fig2_rendered = Vtpm_sim.Experiments.fig2 () in
  show fig2_rendered;
  say "residue micro-benchmarks (real wall-clock)@.";
  let micro =
    measure_tests
      ([
         bench_policy_eval ();
         bench_policy_eval_indexed ();
         bench_audit ();
         bench_audit_digest ();
       ]
      @ bench_primitives ())
  in
  render_micro micro;
  emit ~pr:5 ~figure:"fig9" ~unit:"simulated ops/s" ~x_label:"vms"
    [
      ("series", series_json ~digits:2 series);
      ( "speedup_production_vs_linear_at_32_vms",
        opt_fixed 2 (ratio_at series ~over:"linear" "production" 32.0) );
      ( "fig2_compiled",
        Obj
          [
            ("unit", Str "simulated us");
            ("x_label", Str "rules");
            ("series", series_json ~digits:2 fig2_series);
          ] );
      ("micro_ns_per_run", Obj (List.map (fun (name, ns) -> (name, fixed 1 ns)) micro));
    ];
  gate ~section:"fig9"
    [
      ( "production_beats_linear_at_every_vm_count",
        match (List.assoc_opt "linear" series, List.assoc_opt "production" series) with
        | Some linear, Some production ->
            List.length linear = List.length production
            && List.for_all2 (fun (_, l) (_, p) -> p > l) linear production
        | _ -> false );
    ]

(* table6/fig10: the migration drill. fig10 also emits BENCH_PR6.json —
   the goodput series plus every drill invariant and the two new attack
   rows — so CI can diff the rollback/replay defenses without scraping
   rendered tables. *)

let run_table6 () =
  let drill, rendered = Vtpm_sim.Experiments.table6 () in
  show rendered;
  show (Vtpm_sim.Experiments.render_migration_drill drill)

let run_fig10 () =
  let series, rendered = Vtpm_sim.Experiments.fig10 () in
  show rendered;
  let drill, table_rendered = Vtpm_sim.Experiments.table6 () in
  show table_rendered;
  (* The drill's hard invariants: a violation is a regression, not a data
     point. *)
  let open Vtpm_sim.Experiments in
  let checks =
    [
      ("zero_lost_in_flight", drill.md_lost_in_flight = 0);
      ("zero_bypass_windows", drill.md_bypass_windows = 0);
      ("quarantine_held", drill.md_quarantine_held);
      ("freshness_monotone", drill.md_fresh_monotone);
      ("replay_blocked", drill.md_replay_blocked);
      ("replay_audited", drill.md_replay_audited);
      ("anchor_src_ok", drill.md_anchor_src_ok);
      ("anchor_dst_ok", drill.md_anchor_dst_ok);
      ("source_resumed_on_failures", drill.md_failed_attempts >= 2);
    ]
  in
  gate ~section:"fig10" checks;
  (* The two rollback/replay attack rows, both modes. *)
  let attack_rows =
    List.map
      (fun (name, attack) ->
        let run mode =
          let f = Vtpm_attacks.Attack.setup ~mode ~seed:53 () in
          (attack f : Vtpm_attacks.Attack.outcome).Vtpm_attacks.Attack.succeeded
        in
        (name, run Vtpm_access.Host.Baseline_mode, run Vtpm_access.Host.Improved_mode))
      [
        ("rollback-replay", Vtpm_attacks.Attack.rollback_replay);
        ("stale-quote-replay", Vtpm_attacks.Attack.stale_quote_replay);
      ]
  in
  List.iter
    (fun (name, base_won, imp_won) ->
      say "attack %-20s baseline %s, improved %s@." name
        (if base_won then "RETRIEVED" else "blocked")
        (if imp_won then "RETRIEVED" else "blocked"))
    attack_rows;
  emit ~pr:6 ~figure:"fig10" ~unit:"migrant goodput %" ~x_label:"flood x"
    [
      ("series", series_json ~digits:1 series);
      ( "drill",
        Obj
          [
            ("flood_x", Int drill.md_flood_x);
            ("attempts", Int drill.md_attempts);
            ("failed_attempts", Int drill.md_failed_attempts);
            ("drained", Int drill.md_drained);
            ("lost_in_flight", Int drill.md_lost_in_flight);
            ("bypass_windows", Int drill.md_bypass_windows);
            ("migrant_goodput_pct", fixed 1 drill.md_migrant_goodput_pct);
            ("victim_goodput_pct", fixed 1 drill.md_victim_goodput_pct);
          ] );
      ("checks", checks_json checks);
      ( "attacks",
        Obj
          (List.map
             (fun (name, base_won, imp_won) ->
               ( name,
                 Obj [ ("baseline_retrieved", Bool base_won); ("improved_retrieved", Bool imp_won) ]
               ))
             attack_rows) );
    ]

(* table7/fig11: the adversarial interleaving fuzzer. fig11 also runs the
   headline 1000-trace deterministic soak and emits BENCH_PR7.json — the
   goodput-vs-attack-fraction series, the per-adversary matrix and every
   bundle invariant — so CI fails loudly on any fuzzer-visible
   regression. *)

let run_table7 () =
  let s, rendered = Vtpm_sim.Experiments.table7 () in
  show rendered;
  List.iter
    (fun (i, vs) ->
      say "table7 soak: trace %d violated the bundle: %s@." i (String.concat "; " vs))
    s.Vtpm_attacks.Fuzz.sk_failures;
  gate ~section:"table7" [ ("zero_bundle_violations", s.Vtpm_attacks.Fuzz.sk_failures = []) ]

let run_fig11 () =
  let open Vtpm_attacks in
  let series, rendered, sweep = Vtpm_sim.Experiments.fig11 () in
  show rendered;
  (* The headline soak: >= 1000 seeded deterministic traces, the full
     invariant bundle asserted after every one. *)
  let soak_traces = 1000 in
  let t0 = Sys.time () in
  let soak = Fuzz.soak ~seed:71 ~traces:soak_traces () in
  let dt = Sys.time () -. t0 in
  say "soak: %d traces (%d ops, %d attack ops) in %.1fs cpu (%.2fs/trace)@."
    soak.Fuzz.sk_traces soak.Fuzz.sk_ops soak.Fuzz.sk_attacks dt
    (dt /. float_of_int (max 1 soak.Fuzz.sk_traces));
  let sweep_failures = List.concat_map (fun (_, s) -> s.Fuzz.sk_failures) sweep in
  let sweep_traces = List.fold_left (fun a (_, s) -> a + s.Fuzz.sk_traces) 0 sweep in
  let wins_total = List.fold_left (fun a (_, n) -> a + n) 0 soak.Fuzz.sk_wins_by_kind in
  let checks =
    [
      ("soak_traces_at_least_1000", soak.Fuzz.sk_traces >= 1000);
      ("zero_bundle_violations", soak.Fuzz.sk_failures = [] && sweep_failures = []);
      ("zero_bypass_windows", soak.Fuzz.sk_bypasses = 0);
      ("zero_adversary_wins", wins_total = 0);
      ("every_adversary_exercised", List.length soak.Fuzz.sk_attempts_by_kind >= 7);
      ("tampers_detected_and_audited", soak.Fuzz.sk_tampers > 0);
      ("migrations_attempted", soak.Fuzz.sk_migrations > 0);
      ("audit_rotation_survived", soak.Fuzz.sk_rotations > 0);
      ("requests_conserved", soak.Fuzz.sk_served_ok <= soak.Fuzz.sk_submitted);
    ]
  in
  gate ~section:"fig11" checks;
  emit ~pr:7 ~figure:"fig11" ~unit:"percent" ~x_label:"attack-op fraction"
    [
      ("series", series_json ~digits:1 series);
      ( "soak",
        Obj
          [
            ("traces", Int soak.Fuzz.sk_traces);
            ("sweep_traces", Int sweep_traces);
            ("ops", Int soak.Fuzz.sk_ops);
            ("submitted", Int soak.Fuzz.sk_submitted);
            ("served_ok", Int soak.Fuzz.sk_served_ok);
            ("attack_ops", Int soak.Fuzz.sk_attacks);
            ("bypasses", Int soak.Fuzz.sk_bypasses);
            ("tampers", Int soak.Fuzz.sk_tampers);
            ("migrations", Int soak.Fuzz.sk_migrations);
            ("rotations", Int soak.Fuzz.sk_rotations);
            ( "violations",
              Int (List.length soak.Fuzz.sk_failures + List.length sweep_failures) );
            ( "attempts_by_kind",
              Obj (List.map (fun (kind, n) -> (kind, Int n)) soak.Fuzz.sk_attempts_by_kind) );
            ("wins_total", Int wins_total);
          ] );
      ("checks", checks_json checks);
    ]

(* table8/fig12: the hardware-TPM fault domain. fig12 also re-runs the
   boundary drill + fault storm and emits BENCH_PR8.json — torn-anchor
   counts (must be zero), storm/recovery evidence and the Merkle-vs-naive
   catch-up series — so CI fails loudly if crash consistency or the
   batched catch-up regresses. *)

let run_table8 () =
  let open Vtpm_sim.Experiments in
  let rows, storm, rendered = table8 () in
  show rendered;
  gate ~section:"table8"
    [
      ("zero_torn_anchors", List.fold_left (fun a r -> a + r.t8_torn) storm.as_torn rows = 0);
      ( "anchor_verifies_after_recovery",
        List.for_all (fun r -> r.t8_verify_ok) rows && storm.as_verify_ok );
    ]

let run_fig12 () =
  let open Vtpm_sim.Experiments in
  let points, rendered = fig12 () in
  show rendered;
  let rows, storm, _ = table8 () in
  let drill_torn = List.fold_left (fun a r -> a + r.t8_torn) 0 rows in
  let checks =
    [
      ("zero_torn_anchors_boundary_drill", drill_torn = 0);
      ("zero_torn_anchors_fault_storm", storm.as_torn = 0);
      ( "anchor_verifies_after_recovery",
        List.for_all (fun r -> r.t8_verify_ok) rows && storm.as_verify_ok );
      ("no_hard_errors_leaked", storm.as_hard_errors = 0);
      ("storm_actually_stormed", storm.as_deferred > 0 && storm.as_breaker_opens > 0);
      ("chip_power_cycled_under_storm", storm.as_power_cycles > 0);
      ("backlog_caught_up_batched", storm.as_catchup_entries > 0);
      ("merkle_speedup_at_least_10x", List.for_all (fun p -> p.f12_speedup >= 10.0) points);
      ("inclusion_proofs_verify", List.for_all (fun p -> p.f12_proofs_ok) points);
    ]
  in
  gate ~section:"fig12" checks;
  emit ~pr:8 ~figure:"fig12" ~unit:"anchors per simulated second" ~x_label:"backlog size"
    [
      ( "series",
        Arr
          (List.map
             (fun p ->
               Obj
                 [
                   ("batch", Int p.f12_batch);
                   ("naive_us", fixed 1 p.f12_naive_us);
                   ("merkle_us", fixed 1 p.f12_merkle_us);
                   ("speedup", fixed 1 p.f12_speedup);
                   ("proofs_ok", Bool p.f12_proofs_ok);
                 ])
             points) );
      ( "table8",
        Obj
          [
            ( "boundaries",
              Arr
                (List.map
                   (fun r ->
                     Obj
                       [
                         ("boundary", Str r.t8_boundary);
                         ("crashes", Int r.t8_crashes);
                         ("repaired", Int r.t8_repaired);
                         ("completed", Int r.t8_completed);
                         ("torn", Int r.t8_torn);
                         ("verify_ok", Bool r.t8_verify_ok);
                       ])
                   rows) );
            ( "storm",
              Obj
                [
                  ("commits", Int storm.as_commits);
                  ("committed", Int storm.as_committed);
                  ("deferred", Int storm.as_deferred);
                  ("hard_errors", Int storm.as_hard_errors);
                  ("breaker_opens", Int storm.as_breaker_opens);
                  ("retries", Int storm.as_retries);
                  ("stalls", Int storm.as_stalls);
                  ("power_cycles", Int storm.as_power_cycles);
                  ("repairs", Int storm.as_repairs);
                  ("catchup_batches", Int storm.as_catchup_batches);
                  ("catchup_entries", Int storm.as_catchup_entries);
                  ("recovery_us", fixed 1 storm.as_recovery_us);
                  ("torn", Int storm.as_torn);
                  ("verify_ok", Bool storm.as_verify_ok);
                ] );
          ] );
      ("checks", checks_json checks);
    ]

(* fig13/table9: lane placement and manager sharding. fig13 also runs the
   cross-group flood drill and emits BENCH_PR9.json — the
   throughput-vs-VMs series per placement policy, the drill rows and the
   acceptance checks (>= 3x fixed-hash at 64 VMs, sharded curve still
   rising at 256 VMs, 100% victim-group goodput under a 10x cross-group
   flood) — so CI fails loudly if placement or isolation regresses. *)

let run_fig13 () =
  let open Vtpm_sim.Experiments in
  let series, rendered = fig13 () in
  show rendered;
  let rows, t9_rendered = table9 () in
  show t9_rendered;
  let ratio name = ratio_at series ~over:"fixed-hash 8-lane" name 64.0 in
  let ll_64 = ratio "least-loaded" and sh_64 = ratio "sharded" in
  let sharded_rising =
    match (point series "sharded" 128.0, point series "sharded" 256.0) with
    | Some a, Some b -> b > a
    | _ -> false
  in
  let row name = List.find_opt (fun r -> r.config = name) rows in
  let goodput name = match row name with Some r -> r.victim_goodput_pct | None -> 0.0 in
  let ge3 = function Some r -> r >= 3.0 | None -> false in
  let checks =
    [
      ("placement_3x_fixed_at_64_vms", ge3 ll_64 || ge3 sh_64);
      ("sharded_rising_at_256_vms", sharded_rising);
      ("sharded_victim_goodput_100pct", goodput "sharded" >= 100.0);
      ( "group_quota_caps_flooder",
        match row "sharded+group-quota" with
        | Some r -> r.attacker_rejected > 0 && r.victim_goodput_pct >= 100.0
        | None -> false );
    ]
  in
  gate ~section:"fig13" checks;
  emit ~pr:9 ~figure:"fig13" ~unit:"simulated ops/s" ~x_label:"vms"
    [
      ("series", series_json ~digits:1 series);
      ("least_loaded_vs_fixed_at_64_vms", opt_fixed 2 ll_64);
      ("sharded_vs_fixed_at_64_vms", opt_fixed 2 sh_64);
      ( "table9",
        Arr
          (List.map
             (fun r ->
               Obj
                 [
                   ("config", Str r.config);
                   ("flood_x", Int r.flood_x);
                   ("victim_sent", Int r.victim_sent);
                   ("victim_good", Int r.victim_good);
                   ("victim_goodput_pct", fixed 1 r.victim_goodput_pct);
                   ("victim_p99_us", fixed 1 r.victim_p99_us);
                   ("attacker_served", Int r.attacker_served);
                   ("attacker_rejected", Int r.attacker_rejected);
                 ])
             rows) );
      ("checks", checks_json checks);
    ]

(* --- fig14: crypto-throughput section (PR 10) --------------------------------
   Emits BENCH_PR10.json: real wall-clock micros for the overhauled
   primitives next to the frozen pre-overhaul references (same process,
   so the ratios are box-speed independent), the derived Cost constants,
   and the fig14 quote-path series per quote-cost profile. Hard
   invariants fail the run if the overhaul regresses. *)

(* Speedup of [fast] over [slow] measured in one window: [paired_rounds]
   rounds, each timing a batch of about [paired_batch_ns] of each (the
   order alternating between rounds), so both sides of a round see the
   same throttle state; the median of the per-round ratios drops the
   rounds a throttle step split. *)
let paired_rounds = 15
let paired_batch_ns = 20e6

let paired_speedup ~slow ~fast =
  let ns_per_call n f =
    let t0 = Clock.now () in
    for _ = 1 to n do
      f ()
    done;
    Int64.to_float (Int64.sub (Clock.now ()) t0) /. float_of_int n
  in
  (* Calls of [f] that take about [paired_batch_ns]. *)
  let rec calls n f =
    let per = ns_per_call n f in
    if per *. float_of_int n >= 1e6 then max 1 (int_of_float (paired_batch_ns /. per)) else calls (2 * n) f
  in
  let n_slow = calls 1 slow and n_fast = calls 1 fast in
  let ratios =
    Array.init paired_rounds (fun r ->
        if r land 1 = 0 then
          let s = ns_per_call n_slow slow in
          s /. ns_per_call n_fast fast
        else
          let f = ns_per_call n_fast fast in
          ns_per_call n_slow slow /. f)
  in
  Array.sort Float.compare ratios;
  ratios.(paired_rounds / 2)

let run_fig14 () =
  let series, rendered = Vtpm_sim.Experiments.fig14 () in
  show rendered;
  say "crypto micro-benchmarks, new vs frozen pre-overhaul (real wall-clock)@.";
  let wanted suffix (name, _) =
    String.length name >= String.length suffix
    && String.sub name (String.length name - String.length suffix) (String.length suffix)
       = suffix
  in
  let micro = measure_tests (bench_primitives ()) in
  render_micro micro;
  let find suffix =
    match List.find_opt (wanted suffix) micro with Some (_, ns) -> ns | None -> Float.nan
  in
  let ratio slow fast =
    let s = find slow and f = find fast in
    if Float.is_nan s || Float.is_nan f || f <= 0.0 then Float.nan else s /. f
  in
  (* The gated speedups are measured pair by pair, not read off the
     Bechamel table: the box throttles in bursts, and two tests run 0.3 s
     apart can land in different states. *)
  let rng = Vtpm_util.Rng.create ~seed:99 in
  let key = Vtpm_crypto.Rsa.generate ~bits:512 rng in
  let digest = Vtpm_crypto.Sha1.digest "bench" in
  let m = Vtpm_crypto.Bignum.of_bytes_be (Vtpm_crypto.Rsa.pad_signature key.Vtpm_crypto.Rsa.pub digest) in
  let sha1_x =
    paired_speedup
      ~slow:(fun () -> ignore (Sha_ref.Sha1_ref.digest data_4k))
      ~fast:(fun () -> ignore (Vtpm_crypto.Sha1.digest data_4k))
  in
  let sha256_x =
    paired_speedup
      ~slow:(fun () -> ignore (Sha_ref.Sha256_ref.digest data_4k))
      ~fast:(fun () -> ignore (Vtpm_crypto.Sha256.digest data_4k))
  in
  let rsa_x =
    paired_speedup
      ~slow:(fun () ->
        ignore
          (Vtpm_crypto.Bignum.mod_pow_schoolbook ~modulus:key.Vtpm_crypto.Rsa.pub.Vtpm_crypto.Rsa.n m
             key.Vtpm_crypto.Rsa.d))
      ~fast:(fun () -> ignore (Vtpm_crypto.Rsa.sign key ~digest))
  in
  say "paired speedups (median of %d alternating rounds): sha1 %.2fx, sha256 %.2fx, rsa512 sign %.2fx@."
    paired_rounds sha1_x sha256_x rsa_x;
  let modpow_x = ratio "prim/modpow-schoolbook" "prim/modpow-montgomery" in
  (* End-to-end effect: quote-path throughput per profile at 64 VMs. *)
  let beats slow fast =
    match (point series slow 64.0, point series fast 64.0) with
    | Some slow, Some fast -> fast > slow
    | _ -> false
  in
  let fig14_x =
    Option.value ~default:Float.nan
      (ratio_at series ~over:"measured-schoolbook" "measured-crt" 64.0)
  in
  let checks =
    [
      (* Acceptance floors. sha1 and rsa are the hard ISSUE targets; the
         sha256 floor is the honest plateau of the word-level rewrite on
         this register-starved target (see EXPERIMENTS.md fig14 notes),
         not the 3x sha1 reaches. *)
      ("sha1_4kib_ge_3x_vs_frozen_ref", sha1_x >= 3.0);
      ("sha256_4kib_ge_1_3x_vs_frozen_ref", sha256_x >= 1.3);
      ("rsa512_sign_ge_8x_vs_schoolbook_same_process", rsa_x >= 8.0);
      ( "rsa512_sign_ge_10x_vs_recorded_cost_constants",
        Vtpm_util.Cost.rsa_sign_schoolbook_us /. Vtpm_util.Cost.rsa_sign_us >= 10.0 );
      (* The derived constant must still equal the seed's hand-waved one,
         or every pre-existing figure silently shifts. *)
      ("tpm_quote_us_derivation_exact", Vtpm_util.Cost.tpm_quote_us = 38_000.0);
      ("fig14_measured_crt_beats_schoolbook", beats "measured-schoolbook" "measured-crt");
      ("fig14_measured_beats_2010_model", beats "model-2010" "measured-crt");
    ]
  in
  gate ~section:"fig14" checks;
  let module C = Vtpm_util.Cost in
  emit ~pr:10 ~figure:"fig14" ~unit:"simulated ops/s" ~x_label:"vms"
    [
      ("series", series_json ~digits:1 series);
      ("sha1_4kib_speedup_vs_frozen_ref", fixed 2 sha1_x);
      ("sha256_4kib_speedup_vs_frozen_ref", fixed 2 sha256_x);
      ("rsa512_sign_speedup_vs_schoolbook_same_process", fixed 2 rsa_x);
      ("modpow_montgomery_speedup_vs_schoolbook", fixed 2 modpow_x);
      ("fig14_throughput_x_measured_crt_vs_schoolbook_at_64_vms", fixed 2 fig14_x);
      ( "cost_constants_us",
        Obj
          [
            ("rsa_sign_schoolbook_us", fixed 1 C.rsa_sign_schoolbook_us);
            ("rsa_sign_us", fixed 1 C.rsa_sign_us);
            ("sha_block_us", fixed 2 C.sha_block_us);
            ("quote_hw_scale_2010", fixed 1 C.quote_hw_scale_2010);
            ("quote_digest_overhead_us", fixed 1 C.quote_digest_overhead_us);
            ("tpm_quote_us", fixed 1 C.tpm_quote_us);
          ] );
      ("micro_ns_per_run", Obj (List.map (fun (name, ns) -> (name, fixed 1 ns)) micro));
      ("checks", checks_json checks);
    ]

(* --- Driver ---------------------------------------------------------------------- *)

let sections : (string * (unit -> unit)) list =
  let open Vtpm_sim.Experiments in
  [
    ("table1", plain table1);
    ("table2", run_table2);
    ("table3", plain table3);
    ("table4", plain table4);
    ("table5", run_table5);
    ("table6", run_table6);
    ("fig1", plain fig1);
    ("fig2", plain fig2);
    ("fig3", plain fig3);
    ("fig4", plain fig4);
    ("fig5", plain fig5);
    ("fig6", plain fig6);
    ("fig7", plain fig7);
    ("fig8", run_fig8);
    ("fig9", run_fig9);
    ("fig10", run_fig10);
    ("table7", run_table7);
    ("fig11", run_fig11);
    ("table8", run_table8);
    ("fig12", run_fig12);
    ("table9", plain table9);
    ("fig13", run_fig13);
    ("fig14", run_fig14);
    ("micro", run_micro);
  ]

(* Every requested section runs, even after a failed check or an
   exception in an earlier one; the failures are listed at the end and
   turn into a non-zero exit. *)
let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> args
    | _ -> List.map fst sections
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> (
          say "=== %s ===@." name;
          try f () with e -> failed := (name, "raised " ^ Printexc.to_string e) :: !failed)
      | None ->
          say "unknown section %s; available: %s@." name
            (String.concat " " (List.map fst sections)))
    requested;
  match List.rev !failed with
  | [] -> ()
  | failures ->
      say "@.%d failed check(s):@." (List.length failures);
      List.iter (fun (section, check) -> say "  %s: %s@." section check) failures;
      exit 1
