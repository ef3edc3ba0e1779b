//! Mutation suite for the paper's own recovery code: the campaign's gates
//! — "zero silent corruption", batch ≡ `run_trial` — must be able to fire
//! on it.
//!
//! Three seeded mutants, one cargo feature each:
//!
//! - `adcc_core/mutant-trust-counter`, in the one skeleton all five
//!   `*-extended` iterate-history scenarios recover through:
//!   `iterative::recover_and_resume` skips the invariant scan and believes
//!   the flushed unit counter — the bug the scan exists to prevent.
//!   **Killed**, by the hard gate, in all five (100 of 100 trials).
//! - `adcc_core/mutant-ckpt-stale-counter`, in the one loop all four
//!   `*-ckpt` scenarios run forward through: `baseline::run_with_ckpt`
//!   checkpoints *before* it publishes progress, so a restore re-executes
//!   a completed unit on that unit's own output. **Killed** in `cg-ckpt`
//!   and `jacobi-ckpt`, whose units update in place; **survives** in
//!   `stencil-ckpt` and `lu-ckpt`, which recompute one more unit and
//!   answer right: a ping-pong sweep reads the buffer it does not write,
//!   a left-looking block is rebuilt from the pristine input, so
//!   re-running either is idempotent — natural resilience, not an oracle
//!   hole (their dirty restarts converge exactly; ROADMAP item 1).
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
//! No default build enables any; the nightly `mutants` job runs this file
//! clean and once per feature:
//!
//! ```text
//! cargo test --release -p adcc_campaign --test protocol_mutants
//! cargo test --release -p adcc_campaign --features adcc_core/mutant-trust-counter --test protocol_mutants
//! cargo test --release -p adcc_campaign --features adcc_core/mutant-ckpt-stale-counter --test protocol_mutants
//! cargo test --release -p adcc_campaign --features adcc_core/mutant-chain-early-join --test protocol_mutants
//! ```
//!
//! A scenario whose histogram does not move under a mutant, or moves
//! without a silent corruption, is a survivor to explain (natural
//! resilience, an oracle hole, an equivalent mutant) in ROADMAP item 1 —
//! not a row to delete from [`CLEAN`].

use adcc_campaign::{run_campaign, CampaignConfig, CampaignReport, OutcomeCounts};
use adcc_core::baseline::MUTANT_CKPT_STALE_COUNTER;
use adcc_core::iterative::MUTANT_TRUST_COUNTER;
use adcc_core::mc::sim::MUTANT_CHAIN_EARLY_JOIN;

/// A scenario's outcome histogram: `[exact, recomputed, detected, clean,
/// silent]`.
type Histogram = [u64; 5];

/// The scenarios a seeded mutant sits under — the five that recover
/// through `adcc_core::iterative`, the four that run forward through
/// `baseline::run_with_ckpt`, the one that recovers through
/// `McSim::recover_chain` — with their clean-tree histograms at [`config`].
const CLEAN: [(&str, Histogram); 10] = [
    ("cg-extended", [0, 1, 19, 0, 0]),
    ("bicgstab-extended", [0, 1, 19, 0, 0]),
    ("bicgstab-extended-windowed", [0, 0, 20, 0, 0]),
    ("jacobi-extended", [0, 0, 20, 0, 0]),
    ("stencil-extended", [0, 0, 20, 0, 0]),
    ("cg-ckpt", [1, 0, 19, 0, 0]),
    ("jacobi-ckpt", [1, 1, 18, 0, 0]),
    ("stencil-ckpt", [19, 1, 0, 0, 0]),
    ("lu-ckpt", [4, 3, 13, 0, 0]),
    ("mc-epoch", [0, 20, 0, 0, 0]),
];

/// `mutant-trust-counter` flips every trial of all five `*-extended`
/// scenarios to silent corruption. An entry that has to leave this list is
/// a survivor.
const TRUST_COUNTER: [(&str, Histogram); 5] = [
    ("cg-extended", [0, 0, 0, 0, 20]),
    ("bicgstab-extended", [0, 0, 0, 0, 20]),
    ("bicgstab-extended-windowed", [0, 0, 0, 0, 20]),
    ("jacobi-extended", [0, 0, 0, 0, 20]),
    ("stencil-extended", [0, 0, 0, 0, 20]),
];

/// `mutant-ckpt-stale-counter` moves all four `*-ckpt` histograms: the
/// first two are kills, the last two the survivors the header explains.
const CKPT_STALE_COUNTER: [(&str, Histogram); 4] = [
    ("cg-ckpt", [0, 0, 19, 0, 1]),
    ("jacobi-ckpt", [0, 0, 18, 0, 2]),
    ("stencil-ckpt", [0, 20, 0, 0, 0]),
    ("lu-ckpt", [0, 7, 13, 0, 0]),
];

/// The histograms the mutant compiled into this build moves
/// (`mutant-chain-early-join`, an equivalent mutant, moves none).
fn moved_by_the_mutant() -> &'static [(&'static str, Histogram)] {
    if MUTANT_TRUST_COUNTER {
        &TRUST_COUNTER
    } else if MUTANT_CKPT_STALE_COUNTER {
        &CKPT_STALE_COUNTER
    } else {
        &[]
    }
}

/// The kernel campaign CI replays: 260 states, 400 dense units, seed 42.
fn config() -> CampaignConfig {
    CampaignConfig {
        budget_states: 260,
        dense_units: 400,
        seed: 42,
        ..CampaignConfig::default()
    }
}

fn histogram(report: &CampaignReport, scenario: &str) -> Histogram {
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

/// Clean, zero silent corruption and every histogram as on file; under a
/// mutant, exactly the histograms on file for it move, and every silent
/// corruption of the campaign is one of its kills.
#[test]
fn the_hard_gate_fires_exactly_when_recovery_trusts_the_counter() {
    let report = run_campaign(&config());
    let moved = moved_by_the_mutant();
    for (name, clean) in CLEAN {
        let want = moved
            .iter()
            .find(|(m, _)| *m == name)
            .map_or(clean, |m| m.1);
        assert_eq!(histogram(&report, name), want, "{name}");
    }
    let kills: u64 = moved.iter().map(|(_, h)| h[4]).sum();
    assert_eq!(
        report.silent_corruption_total(),
        kills,
        "a scenario outside the mutant's family moved"
    );
    assert_eq!(
        kills > 0,
        MUTANT_TRUST_COUNTER || MUTANT_CKPT_STALE_COUNTER,
        "the hard gate must fire under these two, and only then"
    );
}

/// Batch and per-trial both recover through the one iterate-history
/// skeleton and run forward through the one checkpoint loop, so the
/// batch-vs-`run_trial` gate holds with `mutant-trust-counter` or
/// `mutant-ckpt-stale-counter` on too. `mutant-chain-early-join` is the other
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
