//! The distributed campaign's acceptance gates: a `--registry dist`
//! sweep (three kernel families × both recovery modes over a 4-rank
//! cluster) is
//! deterministic — canonical report byte-identical across reruns and
//! 1-vs-8 worker threads — shows zero silent corruption at the smoke
//! budget, and its telemetry block proves the algorithm-directed mode
//! recovers with measurably less fabric traffic than global checkpoint
//! restart on every kernel.

use adcc::campaign::engine::{run_campaign, CampaignConfig};
use adcc::campaign::report::CampaignReport;
use adcc::campaign::run_resilience;
use adcc::campaign::scenario::Registry;
use adcc::campaign::schedule::Schedule;
use adcc::dist::net::FaultProfile;

/// The CI smoke budget (4 ranks, 500 states, seed 42).
const SMOKE_BUDGET: u64 = 500;

fn config(threads: usize) -> CampaignConfig {
    CampaignConfig {
        seed: 42,
        budget_states: SMOKE_BUDGET,
        schedule: Schedule::Stratified,
        threads,
        telemetry: true,
        dense_units: 20,
        registry: Registry::Dist,
        ..CampaignConfig::default()
    }
}

#[test]
fn dist_smoke_campaign_is_deterministic_and_corruption_free() {
    let serial = run_campaign(&config(1));
    let parallel = run_campaign(&config(8));
    assert_eq!(
        serial.canonical_string(),
        parallel.canonical_string(),
        "thread count must not be observable in the canonical dist report"
    );
    let rerun = run_campaign(&config(1));
    assert_eq!(serial.canonical_string(), rerun.canonical_string());

    assert_eq!(serial.totals.total(), SMOKE_BUDGET);
    assert_eq!(serial.silent_corruption_total(), 0, "no silent corruption");
    assert_eq!(serial.scenarios.len(), 6, "3 kernels x 2 recovery modes");
    assert_eq!(serial.registry, Registry::Dist);

    // The report round-trips, registry header and fabric telemetry
    // included.
    let parsed = CampaignReport::parse(&serial.to_string_pretty()).unwrap();
    assert_eq!(parsed.registry, Registry::Dist);
    assert_eq!(parsed.canonical_string(), serial.canonical_string());
}

#[test]
fn algorithm_directed_recovery_traffic_beats_global_restart_per_kernel() {
    let report = run_campaign(&config(0));
    for kernel in ["stencil", "jacobi", "cg"] {
        let bytes = |mode: &str| -> u64 {
            let name = format!("dist-{kernel}-{mode}");
            let s = report
                .scenarios
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("{name} missing from the dist report"));
            assert!(s.trials > 0, "{name} drew no trials");
            s.telemetry
                .as_ref()
                .unwrap_or_else(|| panic!("{name} missing telemetry"))
                .recovery_net_bytes
        };
        let local = bytes("local");
        let restart = bytes("restart");
        assert!(local > 0, "{kernel}: neighbor assistance sends messages");
        assert!(
            2 * local < restart,
            "{kernel}: algorithm-directed recovery traffic {local} B should be \
             well under half of global restart's {restart} B"
        );
    }
    // Fabric use itself is visible in the telemetry block.
    let total = report.telemetry.expect("telemetry on");
    assert!(total.net_msgs > 0 && total.net_bytes > 0 && total.net_ps > 0);
}

#[test]
fn dist_and_single_rank_registries_share_one_engine_but_not_bytes() {
    let dist = run_campaign(&config(2));
    let single = run_campaign(&CampaignConfig {
        registry: Registry::Kernel,
        ..config(2)
    });
    assert_eq!(single.registry, Registry::Kernel);
    assert!(single
        .scenarios
        .iter()
        .all(|s| !s.name.starts_with("dist-")));
    assert_ne!(dist.canonical_string(), single.canonical_string());
    // Single-rank scenarios never touch the fabric: their telemetry keys
    // exist in the v3 schema but stay zero.
    let t = single.telemetry.expect("telemetry on");
    assert_eq!(t.net_msgs, 0);
    assert_eq!(t.recovery_net_bytes, 0);
}

/// Work counters, exact (ROADMAP item 5's pattern): a perf regression on
/// the dist registry fails here, not in a noisy timing. At the chaotic
/// smoke config every chunk — six scenarios, two chunks each — builds and
/// runs **one** cluster whatever the passes, and every unit that crashes
/// is served from an image harvested off that execution: cascades and
/// node losses included, the dirty sweep included.
///
/// The same campaign carries what the chaotic tier is *for* (nightly's
/// deep run asserts nothing beyond its replay gate): the fabric really
/// dropped messages and the transport masked them, node-loss units really
/// restored from the remote level, and every scenario ran the 16-rank
/// grid preset.
#[test]
fn chaotic_dist_chunks_run_one_cluster_each_whatever_the_passes() {
    let cfg = CampaignConfig {
        budget_states: 1500,
        dense_units: 80,
        faults: FaultProfile::Chaotic,
        ..config(2)
    };
    let campaign = run_campaign(&cfg);
    assert_eq!(campaign.faults, FaultProfile::Chaotic);
    let t = campaign.telemetry.as_ref().expect("telemetry on");
    assert!(t.net_dropped > 0 && t.net_retries > 0, "drops masked");
    assert!(
        t.remote_restore_bytes > 0,
        "node-loss units must restore remotely"
    );
    for s in &campaign.scenarios {
        assert_eq!(s.platform, "dist-16rank-grid", "{}", s.name);
    }
    for report in [campaign, run_resilience(&cfg)] {
        let m = &report.image_memory;
        assert_eq!(m.executions, 12, "one forward execution per chunk");
        assert_eq!(
            m.images,
            report.totals.total() - report.totals.completed_clean,
            "every crashing unit is served from a harvested image"
        );
        // `distinct_states` counts poll groups; a group is replayed once
        // per distinct follow-up among its units, so replays can exceed it.
        assert!(m.distinct_states.expect("fresh runs know the count") <= m.images);
        assert_eq!(report.totals.total(), 1500);
        assert_eq!(report.silent_corruption_total(), 0);
    }
}
