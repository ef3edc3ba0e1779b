//! Mutation suite for the iterate-history protocol: the campaign's hard
//! gate ("zero silent corruption") must be able to fire on the paper's own
//! recovery code.
//!
//! One seeded mutant, in the one skeleton all five `*-extended`
//! iterate-history scenarios recover through:
//!
//! - `adcc_core/mutant-trust-counter`: `iterative::recover_and_resume`
//!   skips the invariant scan and believes the flushed unit counter — the
//!   bug the scan exists to prevent.
//!
//! No default build enables the feature; the nightly `mutants` job runs
//! this file both ways:
//!
//! ```text
//! cargo test --release -p adcc_campaign --test protocol_mutants
//! cargo test --release -p adcc_campaign --features adcc_core/mutant-trust-counter --test protocol_mutants
//! ```
//!
//! A scenario whose histogram does not move under the mutant is a
//! survivor to explain (natural resilience, or an oracle hole) in ROADMAP
//! item 1 — not a row to delete from [`CLEAN`].

use adcc_campaign::{run_campaign, CampaignConfig, CampaignReport, OutcomeCounts};
use adcc_core::iterative::MUTANT_TRUST_COUNTER;

/// The five scenarios that recover through `adcc_core::iterative`, with
/// their clean-tree outcome histograms at [`config`] — `(exact,
/// recomputed, detected, clean, silent)`.
const CLEAN: [(&str, [u64; 5]); 5] = [
    ("cg-extended", [0, 1, 19, 0, 0]),
    ("bicgstab-extended", [0, 1, 19, 0, 0]),
    ("bicgstab-extended-windowed", [0, 0, 20, 0, 0]),
    ("jacobi-extended", [0, 0, 20, 0, 0]),
    ("stencil-extended", [0, 0, 20, 0, 0]),
];

/// The scenarios `mutant-trust-counter` must flip to silent corruption:
/// all five. An entry that has to leave this list is a survivor.
const KILLED: [&str; 5] = [
    "cg-extended",
    "bicgstab-extended",
    "bicgstab-extended-windowed",
    "jacobi-extended",
    "stencil-extended",
];

/// The kernel campaign CI replays: 260 states, 400 dense units, seed 42.
fn config() -> CampaignConfig {
    CampaignConfig {
        budget_states: 260,
        dense_units: 400,
        seed: 42,
        ..CampaignConfig::default()
    }
}

fn histogram(report: &CampaignReport, scenario: &str) -> [u64; 5] {
    let s = report
        .scenarios
        .iter()
        .find(|s| s.name == scenario)
        .unwrap_or_else(|| panic!("{scenario} is not in the kernel registry"));
    let OutcomeCounts {
        recovered_exact,
        recovered_recomputed,
        detected_dirty,
        completed_clean,
        silent_corruption,
    } = s.outcomes;
    [
        recovered_exact,
        recovered_recomputed,
        detected_dirty,
        completed_clean,
        silent_corruption,
    ]
}

#[test]
fn the_hard_gate_fires_exactly_when_recovery_trusts_the_counter() {
    let report = run_campaign(&config());
    let moved: Vec<&str> = CLEAN
        .iter()
        .filter(|(name, clean)| histogram(&report, name) != *clean)
        .map(|(name, _)| *name)
        .collect();

    if !MUTANT_TRUST_COUNTER {
        assert_eq!(report.silent_corruption_total(), 0);
        assert!(moved.is_empty(), "clean histograms moved: {moved:?}");
        return;
    }

    assert!(
        report.silent_corruption_total() > 0,
        "the hard gate did not fire under mutant-trust-counter"
    );
    let killed: Vec<&str> = CLEAN
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| histogram(&report, name)[4] > 0)
        .collect();
    assert_eq!(killed, KILLED, "kill set changed");
    assert_eq!(
        moved, killed,
        "a histogram moved without a silent corruption"
    );
    let silent_in_killed: u64 = killed.iter().map(|name| histogram(&report, name)[4]).sum();
    assert_eq!(
        report.silent_corruption_total(),
        silent_in_killed,
        "a scenario outside the iterate-history family moved"
    );
}

/// Batch and per-trial both recover through the one skeleton, so the
/// batch-vs-`run_trial` gate holds with the mutant on too.
#[test]
fn batch_and_per_trial_agree_either_way() {
    let batch = run_campaign(&config());
    let per_trial = run_campaign(&CampaignConfig {
        per_trial: true,
        ..config()
    });
    assert_eq!(batch.canonical_string(), per_trial.canonical_string());
}
