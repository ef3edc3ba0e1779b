//! Mutation suite for the paper's own recovery code: the campaign's gates
//! — "zero silent corruption", batch ≡ `run_trial` — must be able to fire
//! on it.
//!
//! Two seeded mutants, one cargo feature each:
//!
//! - `adcc_core/mutant-trust-counter`, in the one skeleton all five
//!   `*-extended` iterate-history scenarios recover through:
//!   `iterative::recover_and_resume` skips the invariant scan and believes
//!   the flushed unit counter — the bug the scan exists to prevent.
//!   **Killed**, by the hard gate, in all five.
//! - `adcc_core/mutant-chain-early-join`, in `mc-epoch`'s batch recovery:
//!   `McSim::recover_chain` drops its line-epoch guard, so a replay may
//!   join the pilot before both apply every increment. **Survives**, here
//!   and in `core`'s chain-vs-chain-of-one differential, and for a reason:
//!   it is an equivalent mutant. Each counter line carries its epoch word
//!   *in the line*, so a replay that has not reached a line's epoch holds a
//!   word past the boundary it stands at, and one that has holds a word at
//!   or before it — `same_future` compares those bytes, and already refuses
//!   every join the guard refuses. The guard is a pre-filter that saves the
//!   comparison, not a second condition (ROADMAP item 1).
//!
//! No default build enables either; the nightly `mutants` job runs this
//! file clean and once per feature:
//!
//! ```text
//! cargo test --release -p adcc_campaign --test protocol_mutants
//! cargo test --release -p adcc_campaign --features adcc_core/mutant-trust-counter --test protocol_mutants
//! cargo test --release -p adcc_campaign --features adcc_core/mutant-chain-early-join --test protocol_mutants
//! ```
//!
//! A scenario whose histogram does not move under a mutant is a survivor
//! to explain (natural resilience, an oracle hole, an equivalent mutant) in
//! ROADMAP item 1 — not a row to delete from [`CLEAN`].

use adcc_campaign::{run_campaign, CampaignConfig, CampaignReport, OutcomeCounts};
use adcc_core::iterative::MUTANT_TRUST_COUNTER;
use adcc_core::mc::sim::MUTANT_CHAIN_EARLY_JOIN;

/// The five scenarios that recover through `adcc_core::iterative` and the
/// one that recovers through `McSim::recover_chain`, with their clean-tree
/// outcome histograms at [`config`] — `(exact, recomputed, detected, clean,
/// silent)`.
const CLEAN: [(&str, [u64; 5]); 6] = [
    ("cg-extended", [0, 1, 19, 0, 0]),
    ("bicgstab-extended", [0, 1, 19, 0, 0]),
    ("bicgstab-extended-windowed", [0, 0, 20, 0, 0]),
    ("jacobi-extended", [0, 0, 20, 0, 0]),
    ("stencil-extended", [0, 0, 20, 0, 0]),
    ("mc-epoch", [0, 20, 0, 0, 0]),
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

/// Batch and per-trial both recover through the one iterate-history
/// skeleton, so the batch-vs-`run_trial` gate holds with
/// `mutant-trust-counter` on too. `mutant-chain-early-join` is the other
/// kind: it reaches the batch side only (`run_trial` recovers `mc-epoch`
/// through a chain of one, which meets no pilot), so this comparison is the
/// gate that would kill it — and, the mutant being equivalent, does not.
#[test]
fn batch_and_per_trial_agree_either_way() {
    let batch = run_campaign(&config());
    let per_trial = run_campaign(&CampaignConfig {
        per_trial: true,
        ..config()
    });
    assert_eq!(
        batch.canonical_string(),
        per_trial.canonical_string(),
        "mutant-chain-early-join: {MUTANT_CHAIN_EARLY_JOIN} — if on, it no longer \
         survives: record the kill in ROADMAP item 1 and in this file's header"
    );
}
