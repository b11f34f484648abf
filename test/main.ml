let () =
  Alcotest.run "lie_not_deny"
    [
      ("support", Test_support.tests);
      ("shm", Test_shm.tests);
      ("runtime", Test_runtime.tests);
      ("explore", Test_explore.tests);
      ("history", Test_history.tests);
      ("verifiable", Test_verifiable.tests);
      ("verifiable-byzantine", Test_verifiable_byz.tests);
      ("sticky", Test_sticky.tests);
      ("sticky-byzantine", Test_sticky_byz.tests);
      ("byzantine-linearizability", Test_byzlin.tests);
      ("test-or-set", Test_testorset.tests);
      ("impossibility", Test_impossibility.tests);
      ("crypto", Test_crypto.tests);
      ("signature-baseline", Test_sigbase.tests);
      ("message-passing", Test_msgpass.tests);
      ("fault-injection", Test_faultnet.tests);
      ("durability", Test_durable.tests);
      ("crash-recovery", Test_crashrec.tests);
      ("broadcast", Test_broadcast.tests);
      ("snapshot", Test_snapshot.tests);
      ("ablation", Test_ablation.tests);
      ("reliable-broadcast", Test_reliable.tests);
      ("asset-transfer", Test_asset.tests);
      ("monitors", Test_monitors.tests);
      ("fuzz", Test_fuzz.tests);
      ("model-checking", Test_mcheck.tests);
      ("differential-conformance", Test_diff.tests);
      ("regular-registers", Test_regular.tests);
      ("trace-invariants", Test_trace_invariants.tests);
      ("observability", Test_obs.tests);
      ("multi-domain observability", Test_obs_domains.tests);
      ("domains driver", Test_domains.tests);
      ("audit", Test_audit.tests);
      ("composition", Test_composition.tests);
      ("policies", Test_policies.tests);
      ("lint", Test_lint.tests);
      ("sem", Test_sem.tests);
      ("properties", Test_properties.tests);
    ]
