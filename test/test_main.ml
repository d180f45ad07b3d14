(* Test entry point: one Alcotest suite per library. *)

let () =
  Alcotest.run "vtpm-xen-repro"
    [
      ("util", Test_util.suite);
      ("crypto", Test_crypto.suite);
      ("tpm", Test_tpm.suite);
      ("xen", Test_xen.suite);
      ("faults", Test_faults.suite);
      ("vtpm", Test_vtpm.suite);
      ("migration", Test_migration.suite);
      ("access", Test_access.suite);
      ("anchor", Test_anchor.suite);
      ("attacks", Test_attacks.suite);
      ("fuzz", Test_fuzz.suite);
      ("pump", Test_pump.suite);
      ("overload", Test_overload.suite);
      ("sim", Test_sim.suite);
      ("perf", Test_perf.suite);
      ("shard", Test_shard.suite);
      ("integration", Test_integration.suite);
    ]
