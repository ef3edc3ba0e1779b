//! Cascading-failure acceptance gates: every dist scenario must classify
//! a second crash landing mid-recovery — recovered or detected, never
//! silent corruption — and the fault-profile campaigns that sweep those
//! cascade units must stay byte-deterministic across reruns and worker
//! thread counts at the CI smoke budget.
//!
//! Cascade units occupy the block immediately after the singleton
//! `(rank, site)` units in each dist scenario's unit space: two staggered
//! variants per rank, each arming a second rank whose trigger fires while
//! the first crash's recovery (algorithm-directed neighbor assistance or
//! global rollback re-execution) is still in flight.

use adcc::campaign::engine::{run_campaign, CampaignConfig};
use adcc::campaign::outcome::Outcome;
use adcc::campaign::scenario::{Mechanism, Registry, Scenario};
use adcc::campaign::schedule::Schedule;
use adcc::dist::net::FaultProfile;

/// The CI smoke budget shared with `dist_campaign.rs`.
const SMOKE_BUDGET: u64 = 500;

/// Ranks per cluster under a profile: chaotic swaps the presets to the
/// 16-rank 2-D grid, everything else runs the 4-rank chain.
fn ranks_under(faults: FaultProfile) -> u64 {
    match faults {
        FaultProfile::Chaotic => 16,
        _ => 4,
    }
}

/// The cascade unit block `[start, end)` of `scenario`, derived from the
/// published unit-space geometry: singleton units fill the front, the
/// node-loss block (chaotic × algorithm-directed only) fills the back,
/// and the `2 * ranks` cascade units sit between them.
fn cascade_block(scenario: &dyn Scenario, faults: FaultProfile) -> (u64, u64) {
    let ranks = ranks_under(faults);
    let node_loss =
        if faults == FaultProfile::Chaotic && scenario.info().mechanism == Mechanism::Extended {
            ranks
        } else {
            0
        };
    let sites = scenario.total_units();
    (sites - node_loss - 2 * ranks, sites - node_loss)
}

#[test]
fn every_cascade_unit_classifies_on_all_six_scenarios() {
    // The full cascade block of every scenario at the 4-rank tier: a
    // second crash mid-recovery is always recovered (exactly or by
    // recomputation) or detected — never silent, and never a silent
    // no-op completion.
    for scenario in Registry::Dist.scenarios_with(FaultProfile::Off) {
        let (start, end) = cascade_block(scenario.as_ref(), FaultProfile::Off);
        assert_eq!(
            end - start,
            8,
            "{}: 2 cascade variants x 4 ranks",
            scenario.name()
        );
        for unit in start..end {
            let trial = scenario.run_trial(unit, false);
            assert!(
                matches!(
                    trial.outcome,
                    Outcome::RecoveredExact | Outcome::RecoveredRecomputed | Outcome::DetectedDirty
                ),
                "{} cascade unit {unit}: second crash mid-recovery must classify, got {:?}",
                scenario.name(),
                trial.outcome
            );
        }
    }
}

#[test]
fn cascades_survive_the_chaotic_grid_tier() {
    // Spot-check the 16-rank 2-D grid tier (32 cascade units per scenario
    // is the deep-tier sweep's job): the first, middle, and last cascade
    // unit of each scenario, under the adversarial fabric.
    for scenario in Registry::Dist.scenarios_with(FaultProfile::Chaotic) {
        let (start, end) = cascade_block(scenario.as_ref(), FaultProfile::Chaotic);
        assert_eq!(
            end - start,
            32,
            "{}: 2 variants x 16 ranks",
            scenario.name()
        );
        assert_eq!(scenario.info().platform, "dist-16rank-grid");
        for unit in [start, (start + end) / 2, end - 1] {
            let trial = scenario.run_trial(unit, true);
            assert!(
                matches!(
                    trial.outcome,
                    Outcome::RecoveredExact | Outcome::RecoveredRecomputed | Outcome::DetectedDirty
                ),
                "{} chaotic cascade unit {unit}: got {:?}",
                scenario.name(),
                trial.outcome
            );
            let t = trial.telemetry.expect("telemetry requested");
            assert!(
                t.net_retries >= t.net_dropped,
                "{}: every injected drop forces a retry",
                scenario.name()
            );
        }
    }
}

fn config(faults: FaultProfile, threads: usize) -> CampaignConfig {
    CampaignConfig {
        seed: 42,
        budget_states: SMOKE_BUDGET,
        schedule: Schedule::Stratified,
        threads,
        telemetry: true,
        dense_units: 20,
        registry: Registry::Dist,
        faults,
        ..CampaignConfig::default()
    }
}

#[test]
fn faulted_smoke_campaigns_are_deterministic_and_corruption_free() {
    for faults in [FaultProfile::Lossy, FaultProfile::Chaotic] {
        let serial = run_campaign(&config(faults, 1));
        let parallel = run_campaign(&config(faults, 8));
        assert_eq!(
            serial.canonical_string(),
            parallel.canonical_string(),
            "{}: thread count must not be observable in the canonical report",
            faults.name()
        );
        let rerun = run_campaign(&config(faults, 1));
        assert_eq!(serial.canonical_string(), rerun.canonical_string());

        assert_eq!(serial.totals.total(), SMOKE_BUDGET, "{}", faults.name());
        assert_eq!(
            serial.silent_corruption_total(),
            0,
            "{}: fabric faults and cascades must never corrupt silently",
            faults.name()
        );
        // The profile is part of the report, so a replay re-injects it.
        assert_eq!(serial.faults, faults);
        let header = format!("\"faults\": \"{}\"", faults.name());
        assert!(serial.canonical_string().contains(&header), "{header}");
        let t = serial.telemetry.as_ref().expect("telemetry on");
        assert!(
            t.net_dropped > 0,
            "{}: the profile injects drops",
            faults.name()
        );
        assert!(
            t.net_retries > 0,
            "{}: drops force retransmissions",
            faults.name()
        );
    }
}

#[test]
fn fault_profiles_change_clocks_but_never_outcomes() {
    // The transport masks every injected fault, so the lossy profile may
    // shift simulated clocks (timeouts, resequencing delays) but the
    // outcome histogram — which crash states recover and how — must match
    // the reliable fabric's run over the same 4-rank unit space.
    let off = run_campaign(&config(FaultProfile::Off, 2));
    let lossy = run_campaign(&config(FaultProfile::Lossy, 2));
    assert_eq!(off.totals, lossy.totals, "faults must not change outcomes");
    for (a, b) in off.scenarios.iter().zip(&lossy.scenarios) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.outcomes, b.outcomes, "{}", a.name);
    }
    assert_ne!(
        off.canonical_string(),
        lossy.canonical_string(),
        "the fault profile is part of the report identity"
    );
}
