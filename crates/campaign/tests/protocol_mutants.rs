//! Mutation suite for the paper's own recovery code: the campaign's gates
//! — "zero silent corruption", batch ≡ `run_trial` — must be able to fire
//! on it.
//!
//! Five seeded mutants, one cargo feature each:
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
//! - `adcc_core/mutant-epoch-no-flush`, in `mc-epoch`'s forward loop:
//!   `McMode::Epoch` never runs its periodic counter-line flush.
//!   **Killed** by `scenarios::mc`'s replay-distance bound (52 of 1 200
//!   crash points replay more than 80 lookups); **survives** this campaign's
//!   outcome histogram, and for a reason: epoch recovery is exact from
//!   whatever `(counters, epoch)` pair NVM holds, so the flush only bounds
//!   how far it replays. What moves is `lost_units_total`, 308 → 421.
//! - `adcc_dist/mutant-publish-first`, in the one commit all three
//!   `dist-*-local` scenarios publish through: `persist::Mechanism::commit`
//!   runs `publish` (counter → fence → off-node shipment) *before* it
//!   persists the payload the counter names. **Killed** at module level
//!   (`persist`'s publish-order test) and by the chaotic campaign, whose
//!   node-loss units restore from a remote level that was shipped the new
//!   counter with the old payload (8 silent of 400). **Survives** the
//!   faultless campaign, byte for byte: every dist poll sits at `PH_MID` or
//!   `PH_END`, none between the two halves of a commit, so no harvested
//!   crash state can see their order — a coverage hole (ROADMAP item 7),
//!   and the same mutant with the shipment left last survives the
//!   exhaustive chaotic space too.
//!
//! No default build enables any; the nightly `mutants` job runs this file
//! clean and once per feature:
//!
//! ```text
//! cargo test --release -p adcc_campaign --test protocol_mutants
//! cargo test --release -p adcc_campaign --features adcc_core/mutant-trust-counter --test protocol_mutants
//! cargo test --release -p adcc_campaign --features adcc_core/mutant-ckpt-stale-counter --test protocol_mutants
//! cargo test --release -p adcc_campaign --features adcc_core/mutant-chain-early-join --test protocol_mutants
//! cargo test --release -p adcc_campaign --features adcc_core/mutant-epoch-no-flush --test protocol_mutants
//! cargo test --release -p adcc_campaign --features adcc_dist/mutant-publish-first --test protocol_mutants
//! ```
//!
//! A scenario whose histogram does not move under a mutant, or moves
//! without a silent corruption, is a survivor to explain (natural
//! resilience, an oracle hole, an equivalent mutant) in ROADMAP item 1 —
//! not a row to delete from [`CLEAN`].

use adcc_campaign::engine::run_per_trial;
use adcc_campaign::{
    run_campaign, CampaignConfig, CampaignReport, OutcomeCounts, Registry, ScenarioReport,
};
use adcc_core::baseline::MUTANT_CKPT_STALE_COUNTER;
use adcc_core::iterative::MUTANT_TRUST_COUNTER;
use adcc_core::mc::sim::{MUTANT_CHAIN_EARLY_JOIN, MUTANT_EPOCH_NO_FLUSH};
use adcc_dist::net::FaultProfile;
use adcc_dist::persist::MUTANT_PUBLISH_FIRST;

/// A scenario's outcome histogram: `[exact, recomputed, detected, clean,
/// silent]`.
type Histogram = [u64; 5];

/// The scenarios a seeded mutant sits under — the five that recover
/// through `adcc_core::iterative`, the four that run forward through
/// `baseline::run_with_ckpt`, the one that recovers through
/// `McSim::recover_chain` — with their clean-tree histograms at [`config`].
/// `mutant-epoch-no-flush` moves none of them: see [`EPOCH_LOST_UNITS`].
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

/// `mc-epoch`'s `lost_units_total` at [`config`], clean and under
/// `mutant-epoch-no-flush`: the survivor's one visible effect. Recovery
/// stays exact (the histogram is [`CLEAN`]'s), it only replays further.
const EPOCH_LOST_UNITS: (&str, u64, u64) = ("mc-epoch", 308, 421);

/// The histograms the mutant compiled into this build moves
/// (`mutant-chain-early-join`, an equivalent mutant, and
/// `mutant-epoch-no-flush`, a survivor, move none).
fn moved_by_the_mutant() -> &'static [(&'static str, Histogram)] {
    if MUTANT_TRUST_COUNTER {
        &TRUST_COUNTER
    } else if MUTANT_CKPT_STALE_COUNTER {
        &CKPT_STALE_COUNTER
    } else {
        &[]
    }
}

/// The three `dist-*-local` scenarios `Mechanism::commit`'s `Local` arm sits
/// under, at [`dist_config`]: clean-tree histograms on the faultless fabric
/// (which `mutant-publish-first` does not move) and on the chaotic tier,
/// then the chaotic histogram under the mutant — its node-loss kills.
const DIST_LOCAL: [(&str, Histogram, Histogram, Histogram); 3] = [
    (
        "dist-stencil-local",
        [84, 0, 0, 0, 0],
        [67, 0, 0, 0, 0],
        [64, 0, 0, 0, 3],
    ),
    (
        "dist-jacobi-local",
        [83, 0, 0, 0, 0],
        [67, 0, 0, 0, 0],
        [65, 0, 0, 0, 2],
    ),
    (
        "dist-cg-local",
        [83, 0, 0, 0, 0],
        [66, 0, 0, 0, 0],
        [63, 0, 0, 0, 3],
    ),
];

/// The dist campaigns CI smokes, seed 42: 500 states / 20 dense units on
/// the faultless fabric, 400 / 40 on the chaotic 16-rank grids.
fn dist_config(faults: FaultProfile) -> CampaignConfig {
    let (budget_states, dense_units) = match faults {
        FaultProfile::Chaotic => (400, 40),
        _ => (500, 20),
    };
    CampaignConfig {
        budget_states,
        dense_units,
        seed: 42,
        registry: Registry::Dist,
        faults,
        ..CampaignConfig::default()
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

fn scenario<'a>(report: &'a CampaignReport, name: &str) -> &'a ScenarioReport {
    report
        .scenarios
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("{name} is not in the report's registry"))
}

fn histogram(report: &CampaignReport, name: &str) -> Histogram {
    let OutcomeCounts {
        recovered_exact,
        recovered_recomputed,
        detected_dirty,
        completed_clean,
        silent_corruption,
    } = scenario(report, name).outcomes;
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
    let (name, clean, no_flush) = EPOCH_LOST_UNITS;
    let want = if MUTANT_EPOCH_NO_FLUSH {
        no_flush
    } else {
        clean
    };
    assert_eq!(scenario(&report, name).lost_units_total, want, "{name}");
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

/// `mutant-publish-first` against the dist campaign's hard gate: killed on
/// the chaotic tier, through the node-loss units alone (the `-restart`
/// scenarios commit through the other arm and stay silent-free); a survivor
/// on the faultless fabric, where no poll separates payload from publish.
#[test]
fn a_swapped_publish_order_is_seen_through_the_remote_level_only() {
    let off = run_campaign(&dist_config(FaultProfile::Off));
    let chaotic = run_campaign(&dist_config(FaultProfile::Chaotic));
    let mut kills = 0;
    for (name, clean_off, clean_chaotic, mutant_chaotic) in DIST_LOCAL {
        assert_eq!(histogram(&off, name), clean_off, "{name}, faults off");
        let want = if MUTANT_PUBLISH_FIRST {
            mutant_chaotic
        } else {
            clean_chaotic
        };
        assert_eq!(histogram(&chaotic, name), want, "{name}, chaotic");
        kills += want[4];
    }
    assert_eq!(off.silent_corruption_total(), 0, "the recorded survivor");
    assert_eq!(chaotic.silent_corruption_total(), kills);
    assert_eq!(kills > 0, MUTANT_PUBLISH_FIRST);
}

/// Batch and per-trial both recover through the one iterate-history
/// skeleton and run forward through the one checkpoint loop, so the
/// batch-vs-`run_trial` gate holds with `mutant-trust-counter` or
/// `mutant-ckpt-stale-counter` on too. `mutant-chain-early-join` is the other
/// kind: it reaches the batch side only (`run_trial` recovers `mc-epoch`
/// through a chain of one, which meets no pilot), so this comparison is the
/// gate that would kill it — and, the mutant being equivalent, does not.
/// Both dist paths commit through the one `Mechanism::commit`, so they agree
/// under `mutant-publish-first` too, kills included.
#[test]
fn batch_and_per_trial_agree_either_way() {
    for cfg in [
        config(),
        dist_config(FaultProfile::Off),
        dist_config(FaultProfile::Chaotic),
    ] {
        assert_eq!(
            run_campaign(&cfg).canonical_string(),
            run_per_trial(&cfg).canonical_string(),
            "{cfg:?}; mutant-chain-early-join: {MUTANT_CHAIN_EARLY_JOIN} — if on, it no \
             longer survives: record the kill in ROADMAP item 1 and in this file's header"
        );
    }
}
