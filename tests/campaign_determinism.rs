//! Campaign reports must be replayable from `(seed, budget, schedule)`
//! alone: two runs with the same inputs produce byte-identical canonical
//! JSON, whether the trials ran on 1 worker thread or 8 — wall-clock and
//! thread count are the only fields allowed to differ, and they live in
//! the stripped `host` section. Since PR 3 the same guarantee covers the
//! `adcc-campaign-report/v2` telemetry block: every counter in it comes
//! from the deterministic simulated machine, never from the host.

use adcc::campaign::engine::{run_campaign, CampaignConfig};
use adcc::campaign::report::CampaignReport;
use adcc::campaign::scenario::Registry;
use adcc::campaign::schedule::Schedule;

const BUDGET: u64 = 26;

fn config(threads: usize, seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed,
        budget_states: BUDGET,
        schedule: Schedule::Stratified,
        threads,
        telemetry: false,
        ..CampaignConfig::default()
    }
}

fn config_telemetry(threads: usize, seed: u64) -> CampaignConfig {
    CampaignConfig {
        telemetry: true,
        ..config(threads, seed)
    }
}

#[test]
fn same_seed_identical_reports_across_1_and_8_threads() {
    let serial = run_campaign(&config(1, 42));
    let parallel = run_campaign(&config(8, 42));
    assert_eq!(serial.threads, 1);
    assert_eq!(parallel.threads, 8);
    assert_eq!(
        serial.canonical_string(),
        parallel.canonical_string(),
        "thread count must not be observable in the canonical report"
    );
    // The full (host-including) forms legitimately differ in `threads`.
    assert_ne!(serial.to_string_pretty(), parallel.to_string_pretty());
}

#[test]
fn same_seed_identical_reports_across_reruns() {
    let a = run_campaign(&config(2, 42));
    let b = run_campaign(&config(2, 42));
    assert_eq!(a.canonical_string(), b.canonical_string());
}

#[test]
fn different_seed_changes_the_schedule() {
    let a = run_campaign(&config(2, 42));
    let b = run_campaign(&config(2, 1042));
    assert_ne!(
        a.canonical_string(),
        b.canonical_string(),
        "stratified schedules must draw per-seed crash points"
    );
}

#[test]
fn report_roundtrips_and_reports_no_silent_corruption() {
    let report = run_campaign(&config(4, 42));
    assert_eq!(report.totals.total(), BUDGET);
    assert_eq!(report.silent_corruption_total(), 0);
    // Round-trip through the on-disk format.
    let parsed = CampaignReport::parse(&report.to_string_pretty()).unwrap();
    assert_eq!(parsed, report);
    assert_eq!(parsed.canonical_string(), report.canonical_string());
    // Every registered scenario ran at least one trial at this budget.
    assert!(report.scenarios.iter().all(|s| s.trials >= 1));
}

#[test]
fn telemetry_reports_identical_across_1_and_8_threads() {
    let serial = run_campaign(&config_telemetry(1, 42));
    let parallel = run_campaign(&config_telemetry(8, 42));
    assert!(
        serial.telemetry.is_some(),
        "campaign-wide telemetry present"
    );
    assert_eq!(
        serial.canonical_string(),
        parallel.canonical_string(),
        "the v2 telemetry block must be thread-count independent"
    );
}

#[test]
fn telemetry_reports_identical_across_reruns() {
    let a = run_campaign(&config_telemetry(2, 42));
    let b = run_campaign(&config_telemetry(2, 42));
    assert_eq!(a.canonical_string(), b.canonical_string());
}

#[test]
fn telemetry_does_not_perturb_outcomes() {
    // Probes are passive counter snapshots: the simulated execution — and
    // therefore every outcome and recovery metric — must be identical with
    // telemetry on and off.
    let off = run_campaign(&config(2, 42));
    let on = run_campaign(&config_telemetry(2, 42));
    assert_eq!(off.totals, on.totals);
    for (a, b) in off.scenarios.iter().zip(&on.scenarios) {
        assert_eq!(a.outcomes, b.outcomes, "{}", a.name);
        assert_eq!(a.sim_time_ps_total, b.sim_time_ps_total, "{}", a.name);
        assert!(a.telemetry.is_none());
        assert!(b.telemetry.is_some(), "{}", b.name);
    }
}

#[test]
fn empty_epoch_barriers_are_telemetry_neutral() {
    // `persist_lines_batched(&[])` is free by contract (nothing in flight
    // to order): mechanisms issuing unconditional per-epoch barriers must
    // not have their flush/fence attribution skewed by no-op epochs. A
    // probe across an empty barrier therefore measures exactly nothing.
    use adcc::sim::epoch::EpochPersist;
    use adcc::sim::prelude::*;
    use adcc::telemetry::Probe;

    let mut sys = MemorySystem::new(SystemConfig::nvm_only(4096, 1 << 16));
    let probe = Probe::attach(&sys);
    sys.persist_lines_batched(&[]);
    let mut epoch = EpochPersist::new();
    epoch.barrier(&mut sys);
    let p = probe.finish(&sys);
    assert_eq!(p.sfences, 0, "no fence for an empty epoch");
    assert_eq!(p.epoch_barriers, 0, "no barrier counted");
    assert_eq!(p.sim_time_ps, 0, "no time charged");
    assert_eq!(p.flush_total(), 0);
}

#[test]
fn telemetry_counts_are_meaningful_per_mechanism() {
    let report = run_campaign(&config_telemetry(2, 42));
    for s in &report.scenarios {
        let t = s.telemetry.as_ref().expect("telemetry enabled");
        assert!(
            t.flush_total() + t.epoch_barriers > 0,
            "{}: flush-based mechanism recorded zero flushes",
            s.name
        );
        assert!(t.sim_time_ps > 0, "{}: no simulated time", s.name);
    }
    // Undo-log transactions are the only mechanism writing a log.
    let pmem = report
        .scenarios
        .iter()
        .find(|s| s.mechanism == "pmem")
        .unwrap();
    assert!(pmem.telemetry.unwrap().log_bytes > 0);
    for s in report.scenarios.iter().filter(|s| s.mechanism != "pmem") {
        assert_eq!(s.telemetry.unwrap().log_bytes, 0, "{}", s.name);
    }
    assert!(adcc::campaign::flush_audit(&report).is_empty());
}

/// The PR tier's ds smoke campaign (`campaign run --registry ds
/// --budget-states 500 --seed 42 --telemetry`), asserted on the library:
/// both undo-logged scenarios must have drawn trials and recorded zero
/// silent corruption. (The baseline rows are allowed detected/recomputed
/// outcomes — never silent ones, which the run's exit code rejects
/// globally.)
#[test]
fn ds_smoke_campaign_draws_both_undo_scenarios_and_never_corrupts_silently() {
    let report = run_campaign(&CampaignConfig {
        budget_states: 500,
        registry: Registry::Ds,
        ..config_telemetry(0, 42)
    });
    let undo: Vec<_> = report
        .scenarios
        .iter()
        .filter(|s| s.name.ends_with("-undo"))
        .collect();
    assert_eq!(undo.len(), 2, "{:?}", report.scenarios);
    for s in undo {
        assert!(s.trials > 0, "{} drew no trials", s.name);
        assert_eq!(s.outcomes.silent_corruption, 0, "{}", s.name);
    }
    assert_eq!(report.silent_corruption_total(), 0);
}

/// The pool's two grains — tasks (`max_batch`-sized forward executions)
/// and jobs (the distinct crash states of one) — must both be invisible:
/// odd worker counts, more workers than tasks, one-unit tasks with nothing
/// to share and 128-unit tasks whose jobs cross worker boundaries all
/// produce the canonical bytes of the serial run. The three configs are
/// the ones the replay gates pin (kernel 260 and `--resilience` 130 over
/// dense 400, ds 1200). One-unit tasks cost a forward execution per unit
/// and have no job to share, so they run at the two worker counts that
/// differ most — odd, and more workers than this host has cores.
#[test]
fn canonical_bytes_survive_every_thread_count_and_batch_size() {
    use adcc::campaign::run_resilience;
    let kernel = CampaignConfig {
        budget_states: 260,
        dense_units: 400,
        ..config_telemetry(1, 42)
    };
    let resilience = CampaignConfig {
        budget_states: 130,
        ..kernel.clone()
    };
    let ds = CampaignConfig {
        budget_states: 1200,
        registry: Registry::Ds,
        ..config_telemetry(1, 42)
    };
    let engines: [(&str, &CampaignConfig, fn(&CampaignConfig) -> CampaignReport); 3] = [
        ("kernel", &kernel, run_campaign),
        ("kernel --resilience", &resilience, run_resilience),
        ("ds", &ds, run_campaign),
    ];
    for (name, base, run) in engines {
        let want = run(base).canonical_string();
        for threads in [1, 2, 3, 8] {
            for max_batch in [1, 7, 128] {
                if max_batch == 1 && threads < 3 {
                    continue;
                }
                let got = run(&CampaignConfig {
                    threads,
                    max_batch,
                    ..base.clone()
                });
                assert_eq!(
                    got.canonical_string(),
                    want,
                    "{name}: threads {threads}, max_batch {max_batch}"
                );
            }
        }
    }
}
