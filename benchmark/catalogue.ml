(* Every metric the benchmark reports, with its unit. BENCHMARK.json
   must name exactly these (the smoke test checks both directions); it
   adds each metric's direction and, end to end, its regression bound.

   Every workload prints every metric. A per-layer metric of a layer the
   workload never enters reads 0 — the prediction for a change confined
   to that layer is "no change". Per-layer wall-clock splits are shares
   of the unit's wall time, so no time-valued metric is ever a constant
   0. *)

type metric = {
  name : string;
  unit_ : string;
  exact : bool;  (** a deterministic count: must repeat bit for bit *)
}

let m ?(exact = false) name unit_ = { name; unit_; exact }

let end_to_end =
  [
    m "setup_s" "s";
    m "throughput" "1/s";
    m "unit_p50_ms" "ms";
    m "unit_p90_ms" "ms";
  ]

let op_kinds = [ "WRITE"; "READ"; "SIGN"; "VERIFY" ]

let per_layer =
  [
    (* domains sessions, untraced window *)
    m "Domains.steps_per_op" "steps/op";
    m ~exact:true "Sched.sim_steps_per_op" "steps/op";
    m "Domains.step_inflation" "ratio";
    m "Machine.words_per_step" "words/step";
    (* domains sessions, traced pass *)
    m "Dcell.reads_per_op" "reads/op";
    m "Dcell.writes_per_op" "writes/op";
    m "Dcell.op_read_share" "ratio";
    m "Domains.idle_read_share" "ratio";
    m "Domains.help_rounds_per_op" "rounds/op";
    m "Obs.events_per_op" "events/op";
  ]
  @ List.concat_map
      (fun k ->
        [
          m (Printf.sprintf "Parallel.%s_p50_share" k) "ratio";
          m (Printf.sprintf "Parallel.%s_p90_share" k) "ratio";
        ])
      op_kinds
  @ [
      m "Diff.verdict_share" "ratio";
      (* every workload *)
      m "Obs.trace_overhead" "ratio";
      m "Gc.heap_peak_mb" "MB";
      (* sim-dpor *)
      m ~exact:true "Explore.schedules" "count";
      m ~exact:true "Explore.sticky_schedules" "count";
      m ~exact:true "Explore.verifiable_schedules" "count";
      m ~exact:true "Explore.testorset_schedules" "count";
      m ~exact:true "Explore.races" "count";
      m ~exact:true "Explore.blocked_share" "ratio";
      m ~exact:true "Space.accesses_per_schedule" "accesses";
      m "Mcheck.make_share" "ratio";
      m "Sched.exec_share" "ratio";
      m "Mcheck.check_share" "ratio";
      m "Machine.words_per_access" "words/access";
      (* sim-chaos-regemu *)
      m ~exact:true "Sched.steps_per_scenario" "steps";
      m ~exact:true "Rlink.data_per_scenario" "msgs";
      m ~exact:true "Rlink.retrans_per_scenario" "msgs";
      m ~exact:true "Rlink.redundant_per_scenario" "msgs";
      m ~exact:true "Faultnet.sent_per_scenario" "msgs";
      m ~exact:true "Wal.fsyncs_per_scenario" "fsyncs";
      m "Sched.words_per_step" "words/step";
      m ~exact:true "Obs.events_per_scenario" "events";
      m ~exact:true "Wal.bytes_per_scenario" "bytes";
    ]

let is_exact name =
  List.exists (fun x -> x.name = name && x.exact) (end_to_end @ per_layer)
