(* Tests for the evaluation harness itself: metrics math, workload
   generation and small-scale runs of each experiment (the full-size runs
   live in bench/main.exe). *)

open Vtpm_access

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_f = Alcotest.(check (float 1e-6))

(* --- Metrics -------------------------------------------------------------------- *)

let metrics_of values =
  let m = Vtpm_sim.Metrics.create () in
  List.iter (Vtpm_sim.Metrics.add m) values;
  m

let test_metrics_mean () =
  let m = metrics_of [ 1.0; 2.0; 3.0; 4.0 ] in
  check_f "mean" 2.5 (Vtpm_sim.Metrics.mean m);
  check_i "count" 4 (Vtpm_sim.Metrics.count m)

let test_metrics_empty () =
  let s = Vtpm_sim.Metrics.summarize (metrics_of []) in
  check_i "n" 0 s.Vtpm_sim.Metrics.n;
  check_f "mean" 0.0 s.Vtpm_sim.Metrics.mean;
  check_f "p99" 0.0 s.Vtpm_sim.Metrics.p99

let test_metrics_single () =
  let s = Vtpm_sim.Metrics.summarize (metrics_of [ 7.0 ]) in
  check_f "p50" 7.0 s.Vtpm_sim.Metrics.p50;
  check_f "max" 7.0 s.Vtpm_sim.Metrics.max

let test_metrics_percentiles () =
  let s = Vtpm_sim.Metrics.summarize (metrics_of (List.init 100 (fun i -> float_of_int (i + 1)))) in
  check_b "p50 near median" true (abs_float (s.Vtpm_sim.Metrics.p50 -. 50.5) < 1.0);
  check_b "p90 near 90" true (abs_float (s.Vtpm_sim.Metrics.p90 -. 90.1) < 1.0);
  check_f "max" 100.0 s.Vtpm_sim.Metrics.max;
  check_b "ordering" true
    (s.Vtpm_sim.Metrics.p50 <= s.Vtpm_sim.Metrics.p90
    && s.Vtpm_sim.Metrics.p90 <= s.Vtpm_sim.Metrics.p99
    && s.Vtpm_sim.Metrics.p99 <= s.Vtpm_sim.Metrics.max)

let test_metrics_cdf () =
  let m = metrics_of (List.init 200 (fun i -> float_of_int i)) in
  let cdf = Vtpm_sim.Metrics.cdf ~points:10 m in
  check_b "nonempty" true (cdf <> []);
  check_b "fractions monotone" true
    (let fracs = List.map snd cdf in
     List.sort Float.compare fracs = fracs);
  check_f "ends at 1" 1.0 (snd (List.nth cdf (List.length cdf - 1)))

let prop_percentile_bounded =
  QCheck.Test.make ~name:"percentiles within sample range" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (QCheck.float_bound_inclusive 1000.0))
    (fun values ->
      let s = Vtpm_sim.Metrics.summarize (metrics_of values) in
      let lo = List.fold_left min infinity values and hi = List.fold_left max neg_infinity values in
      s.Vtpm_sim.Metrics.p50 >= lo -. 1e-9
      && s.Vtpm_sim.Metrics.p99 <= hi +. 1e-9
      && s.Vtpm_sim.Metrics.max = hi)

(* --- Table rendering ---------------------------------------------------------------- *)

let test_table_render_alignment () =
  let out =
    Vtpm_sim.Table.render ~title:"T" ~header:[ "a"; "bb" ] ~rows:[ [ "xxx"; "y" ]; [ "z"; "wwww" ] ]
  in
  let lines = String.split_on_char '\n' out in
  check_b "title first" true (List.hd lines = "T");
  (* All data lines share the same width. *)
  let widths =
    List.filter_map
      (fun l -> if String.length l > 0 && l.[0] <> 'T' then Some (String.length l) else None)
      lines
  in
  check_b "aligned" true (List.sort_uniq Stdlib.compare widths |> List.length <= 2)

(* --- Workload ------------------------------------------------------------------------ *)

let test_pick_op_respects_weights () =
  let rng = Vtpm_util.Rng.create ~seed:1 in
  let mix = [ (Vtpm_sim.Tenant.Op_extend, 1); (Vtpm_sim.Tenant.Op_quote, 0) ] in
  for _ = 1 to 100 do
    check_b "zero-weight never drawn" true (Vtpm_sim.Workload.pick_op rng mix = Vtpm_sim.Tenant.Op_extend)
  done

let test_pick_op_covers_mix () =
  let rng = Vtpm_util.Rng.create ~seed:2 in
  let drawn = Hashtbl.create 8 in
  for _ = 1 to 2000 do
    Hashtbl.replace drawn (Vtpm_sim.Workload.pick_op rng Vtpm_sim.Workload.mixed) true
  done;
  check_i "all seven ops appear" 7 (Hashtbl.length drawn)

let test_tenant_ops_all_succeed_improved () =
  let host, tenants = Vtpm_sim.Workload.make_host_with_tenants ~mode:Host.Improved_mode ~n:1 () in
  ignore host;
  let tenant = List.hd tenants in
  List.iter
    (fun op ->
      match Vtpm_sim.Tenant.run_op tenant op with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s failed: %s" (Vtpm_sim.Tenant.op_name op) e)
    Vtpm_sim.Tenant.all_ops

let test_tenant_ops_all_succeed_baseline () =
  let host, tenants = Vtpm_sim.Workload.make_host_with_tenants ~mode:Host.Baseline_mode ~n:1 () in
  ignore host;
  let tenant = List.hd tenants in
  List.iter
    (fun op ->
      match Vtpm_sim.Tenant.run_op tenant op with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s failed: %s" (Vtpm_sim.Tenant.op_name op) e)
    Vtpm_sim.Tenant.all_ops

let test_workload_run_counts () =
  let host, tenants = Vtpm_sim.Workload.make_host_with_tenants ~mode:Host.Improved_mode ~n:2 () in
  let r = Vtpm_sim.Workload.run host ~tenants ~mix:Vtpm_sim.Workload.mixed ~ops_per_tenant:10 () in
  check_i "ops run" 20 r.Vtpm_sim.Workload.ops_run;
  check_i "no failures" 0 r.Vtpm_sim.Workload.failures;
  check_b "positive throughput" true (r.Vtpm_sim.Workload.throughput_ops_s > 0.0);
  check_i "overall count" 20 r.Vtpm_sim.Workload.overall.Vtpm_sim.Metrics.n

let test_workload_weighted_shares () =
  (* vTPM service time follows the credit-scheduler weights. *)
  let host, tenants = Vtpm_sim.Workload.make_host_with_tenants ~mode:Host.Improved_mode ~n:2 ~seed:31 () in
  let heavy, light = (List.nth tenants 0, List.nth tenants 1) in
  let result =
    Vtpm_sim.Workload.run_weighted host
      ~tenants:[ (heavy, 512); (light, 256) ]
      ~mix:Vtpm_sim.Workload.mixed ~total_ops:600 ()
  in
  let service t = List.assq t result in
  let ratio = service heavy /. service light in
  check_b (Printf.sprintf "2:1 service ratio (got %.2f)" ratio) true (ratio > 1.5 && ratio < 2.6)

let test_workload_deterministic () =
  let run () =
    let host, tenants = Vtpm_sim.Workload.make_host_with_tenants ~mode:Host.Improved_mode ~n:2 ~seed:9 () in
    let r = Vtpm_sim.Workload.run host ~tenants ~mix:Vtpm_sim.Workload.mixed ~ops_per_tenant:10 () in
    r.Vtpm_sim.Workload.elapsed_us
  in
  check_f "same simulated time" (run ()) (run ())

(* --- Experiments (small-scale smoke; full scale in bench) -------------------------------- *)

let test_experiment_table1_shape () =
  let rows, rendered = Vtpm_sim.Experiments.table1 ~reps:10 () in
  check_i "one row per op" (List.length Vtpm_sim.Tenant.all_ops) (List.length rows);
  List.iter
    (fun (r : Vtpm_sim.Experiments.table1_row) ->
      check_b "baseline positive" true (r.Vtpm_sim.Experiments.baseline_us > 0.0);
      check_b "improved >= baseline" true
        (r.Vtpm_sim.Experiments.improved_us >= r.Vtpm_sim.Experiments.baseline_us);
      (* The monitor adds small constant work: overhead below 25% even for
         the cheapest command. *)
      check_b "overhead bounded" true (r.Vtpm_sim.Experiments.overhead_pct < 25.0))
    rows;
  check_b "rendered mentions quote" true
    (String.length rendered > 0
    && String.length (String.concat "" (String.split_on_char 'q' rendered)) < String.length rendered)

let test_experiment_fig2_shape () =
  let series, _ = Vtpm_sim.Experiments.fig2 ~rule_counts:[ 1; 512 ] ~reps:40 () in
  let get name = List.assoc name series in
  let slope pts =
    match pts with
    | [ (_, y1); (_, y2) ] -> y2 -. y1
    | _ -> Alcotest.fail "expected two points"
  in
  check_b "cache flat" true (slope (get "cache-on") < 5.0);
  check_b "no-cache grows" true (slope (get "cache-off") > 50.0)

let test_experiment_fig4_shape () =
  let series, _ = Vtpm_sim.Experiments.fig4 ~state_kibs:[ 4; 32 ] () in
  let plain = List.assoc "plaintext" series and prot = List.assoc "protected" series in
  List.iter2
    (fun (_, p) (_, q) -> check_b "protected costs more" true (q > p))
    plain prot;
  (* Both grow with state size. *)
  check_b "plaintext grows" true (snd (List.nth plain 1) > snd (List.nth plain 0));
  check_b "protected grows" true (snd (List.nth prot 1) > snd (List.nth prot 0))

(* --- Seed-figure freeze ---------------------------------------------------
   Work on the transport, the cost model or the crypto must not move a
   byte of a rendered table or figure. fig1 and fig8 are hashed at full
   size; every other simulated table and figure at reduced sizes where
   the full run is slow. Table 2 is rendered by bench/main.exe from the
   attack battery, so its rows are hashed here. The hashes were taken
   before the change each guards; a figure that moves on purpose is
   re-baselined in EXPERIMENTS.md with its reason, never re-frozen
   silently. [Cost.tpm_quote_us] is derived and must equal the seed's
   constant exactly. *)
let frozen_renders : (string * string * (unit -> string)) list =
  let module E = Vtpm_sim.Experiments in
  let table2 () =
    let battery mode = Vtpm_attacks.Attack.run_battery ~mode in
    List.map2
      (fun (b : Vtpm_attacks.Attack.outcome) (i : Vtpm_attacks.Attack.outcome) ->
        Printf.sprintf "%s|%b|%b|%s\n" b.attack b.succeeded i.succeeded i.detail)
      (battery Vtpm_access.Host.Baseline_mode)
      (battery Vtpm_access.Host.Improved_mode)
    |> String.concat ""
  in
  [
    ( "table1",
      "cdf8d1e5e9e9ab659a14df7a723baf044f5fd5f13b38667c0a9ac5212870e7cb",
      fun () -> snd (E.table1 ~reps:50 ()) );
    ( "table2",
      "1a99f0c10b0ef88cbacf6cf4a080ebef82b701c300f52b5f151431ece90a40d1",
      table2 );
    ( "table3",
      "baf2ffc48ae365054ce885f5fdc4dc04aa4637de2015776d75872becd5cd6df5",
      fun () -> snd (E.table3 ()) );
    ( "table4",
      "ab6f08935c5c186d61cf9755b8c44d1c6cb0c4043c394a4fc39f5471a8b29326",
      fun () -> snd (E.table4 ~requests:200 ()) );
    ( "table5",
      "b209a0d61dd8997dc7188d0fe5ddabb1a2f446d22898d39778d0b121cb4e64b6",
      fun () ->
        snd (E.table5 ~victim_ops:60 ())
        ^ E.render_wedge_drill (E.wedge_drill ~requests:60 ~seed:97 ()) );
    ( "table6",
      "146136c3323e5acdbec6849a10e0284caadbbbcbd120fe532e695f4e577c6aba",
      fun () ->
        let drill, rendered = E.table6 () in
        rendered ^ E.render_migration_drill drill );
    ( "table7",
      "0b814e55f2866921a6cb86fec1a73693ad689c4aba7dcea7001d21bd8b02e563",
      fun () -> snd (E.table7 ~traces:12 ()) );
    ( "table8",
      "3774df9a60c0c90d44cf57828fdcf7987b660796f18231bf7a2fe3221cb9fa0a",
      fun () ->
        let _, _, rendered = E.table8 () in
        rendered );
    ( "table9",
      "7f2a15b4879c94d57e1ca732f0d40d448910636715be65339a910f9a8e5305df",
      fun () -> snd (E.table9 ~victim_ops:60 ()) );
    ( "fig2",
      "fd76229e85ff77f43a86b12b999c8668b99dfbcf08cba5a1feba4a6797b31fb4",
      fun () -> snd (E.fig2 ~reps:50 ~include_compiled:true ()) );
    ( "fig3",
      "30f2b1aff9cd7b8953a9e6aacbf6cac4b844a98f57279bbb51ac32eb7124aeae",
      fun () -> snd (E.fig3 ~ops_per_tenant:60 ()) );
    ( "fig4",
      "6171f8b88587f8c0a575482e46d4383f89e030ef9bffaf15efdc917cb57aa01d",
      fun () -> snd (E.fig4 ()) );
    ( "fig5",
      "d74c590cf234b5ffaed2d8f4202932a995dfd85eb8d03a51f45be790a8ef504a",
      fun () -> snd (E.fig5 ~reps:50 ()) );
    ( "fig6",
      "5db1652f3b74ef61ac283bc37e051fbc7b7825acfe65d4789be47d0566426cfb",
      fun () -> snd (E.fig6 ~requests:100 ()) );
    ( "fig7",
      "0b241604d8cf985c2501e2cd4abd4f7e739c399d7cfbfdce21e5d75e4f92c5c3",
      fun () -> snd (E.fig7 ~victim_ops:40 ()) );
    ( "fig9",
      "85154e6298b66c825cc6153955d328de30064c063fae1b232c4e70e120394b9a",
      fun () -> snd (E.fig9 ~vm_counts:[ 1; 4; 16 ] ~total_ops:480 ()) );
    ( "fig10",
      "f8a1e48ecf85c4c64e38094a7f90764592ea43f84d1a0225dedd6b57f83fe5de",
      fun () -> snd (E.fig10 ~flood_xs:[ 1; 5 ] ~migrant_ops:40 ()) );
    ( "fig11",
      "43ebaa0f76ba1ba23ddbc275b64cbeebec78826b7330ccc83aac00cf2a59be20",
      fun () ->
        let _, rendered, _ = E.fig11 ~traces:4 () in
        rendered );
    ( "fig12",
      "248676002c5ed08f4b538712ed9893c3e7bc5859108be38a01b14aefeaada3e2",
      fun () -> snd (E.fig12 ()) );
    ( "fig13",
      "49c7cb4aacd649354772a2be8aeee69dd940474c8dbfcc4e22794a4c5e00f31e",
      fun () -> snd (E.fig13 ~vm_counts:[ 8; 16 ] ~total_ops:256 ()) );
    ( "fig14",
      "191172195a06da04f76483b716c6414966facc10e0b7355b1c7749177f7a948d",
      fun () -> snd (E.fig14 ~vm_counts:[ 4; 8 ] ~rules:64 ~total_ops:64 ()) );
  ]

let test_seed_figures_frozen () =
  check_f "tpm_quote_us derivation exact" 38_000.0 Vtpm_util.Cost.tpm_quote_us;
  check_b "default profile is the 2010 model" true
    (Vtpm_util.Cost.current_quote_profile () = Vtpm_util.Cost.Quote_model_2010);
  let _, fig1 = Vtpm_sim.Experiments.fig1 () in
  let _, fig8 = Vtpm_sim.Experiments.fig8 () in
  Alcotest.(check string)
    "fig1 rendered table unchanged"
    "dbf90e2bbdb55ba6c1f20bad0d1dfa0ac096cdcf938298cf18da41b81a14e2a5"
    (Vtpm_crypto.Sha256.hexdigest fig1);
  Alcotest.(check string)
    "fig8 rendered table unchanged"
    "8770cc791e1108fa57b5d2593a7089b4b3f2306b257915461bbbf8c1bb1dd99b"
    (Vtpm_crypto.Sha256.hexdigest fig8);
  List.iter
    (fun (name, expected, render) ->
      Alcotest.(check string)
        (name ^ " rendered table unchanged")
        expected
        (Vtpm_crypto.Sha256.hexdigest (render ())))
    frozen_renders;
  (* The reduced fig11 is only a guard for the transport if its schedules
     still tamper with grants. *)
  let _, _, soaks = Vtpm_sim.Experiments.fig11 ~traces:4 () in
  let drawn kind =
    List.exists
      (fun (_, (s : Vtpm_attacks.Fuzz.soak)) -> List.mem_assoc kind s.sk_attempts_by_kind)
      soaks
  in
  check_b "reduced fig11 draws grant remaps" true (drawn "grant-remap");
  check_b "reduced fig11 draws grant revokes" true (drawn "grant-force-revoke")

let test_fig14_shape () =
  (* Small-scale: the measured-crt series must dominate, and the profile
     switch must be restored afterwards. *)
  let series, rendered =
    Vtpm_sim.Experiments.fig14 ~vm_counts:[ 4; 8 ] ~rules:64 ~total_ops:64 ()
  in
  check_b "default profile restored" true
    (Vtpm_util.Cost.current_quote_profile () = Vtpm_util.Cost.Quote_model_2010);
  let get name = List.assoc name series in
  List.iter2
    (fun (_, slow) (_, fast) -> check_b "measured-crt beats 2010 model" true (fast > slow))
    (get "model-2010") (get "measured-crt");
  List.iter2
    (fun (_, slow) (_, fast) -> check_b "measured-crt beats schoolbook" true (fast > slow))
    (get "measured-schoolbook") (get "measured-crt");
  check_b "rendered non-empty" true (String.length rendered > 0)

let suite =
  [
    Alcotest.test_case "metrics mean" `Quick test_metrics_mean;
    Alcotest.test_case "metrics empty" `Quick test_metrics_empty;
    Alcotest.test_case "metrics single" `Quick test_metrics_single;
    Alcotest.test_case "metrics percentiles" `Quick test_metrics_percentiles;
    Alcotest.test_case "metrics cdf" `Quick test_metrics_cdf;
    QCheck_alcotest.to_alcotest prop_percentile_bounded;
    Alcotest.test_case "table render" `Quick test_table_render_alignment;
    Alcotest.test_case "pick_op weights" `Quick test_pick_op_respects_weights;
    Alcotest.test_case "pick_op coverage" `Quick test_pick_op_covers_mix;
    Alcotest.test_case "tenant ops improved" `Quick test_tenant_ops_all_succeed_improved;
    Alcotest.test_case "tenant ops baseline" `Quick test_tenant_ops_all_succeed_baseline;
    Alcotest.test_case "workload counts" `Quick test_workload_run_counts;
    Alcotest.test_case "workload deterministic" `Quick test_workload_deterministic;
    Alcotest.test_case "workload weighted shares" `Slow test_workload_weighted_shares;
    Alcotest.test_case "experiment table1 shape" `Slow test_experiment_table1_shape;
    Alcotest.test_case "experiment fig2 shape" `Slow test_experiment_fig2_shape;
    Alcotest.test_case "experiment fig4 shape" `Slow test_experiment_fig4_shape;
    Alcotest.test_case "seed figures frozen" `Slow test_seed_figures_frozen;
    Alcotest.test_case "experiment fig14 shape" `Slow test_fig14_shape;
  ]
