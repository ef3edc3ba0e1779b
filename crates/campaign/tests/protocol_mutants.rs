//! Mutation suite for the paper's own recovery code: the campaign's gates
//! — "zero silent corruption", batch ≡ `run_trial` — must be able to fire
//! on it.
//!
//! A seeded bug is one `adcc_sim::hook::seeded()` call, false in every
//! build and planted by `hook::mutating` in its verdict test below; a
//! dropped persist is a site of the same hook. Six seeds reorder persists,
//! change recovery logic or skip a check:
//!
//! - `scenarios/mc.rs`, in the MC scenarios' batch hooks: the image check
//!   before a replay is read off a crash-free cold reference is skipped, so
//!   a crash image that is not the set-up image outside the dead cells and
//!   the loop index is answered as if it were. **Survives** the campaign,
//!   and for a reason: every image a forward run harvests passes the check
//!   (the grids are read-only, the loop writes only the cells the check
//!   leaves out), so no campaign input can tell. **Killed** by the
//!   scenario's fallback differential, whose corrupted images the check
//!   exists for.
//! - `iterative.rs`, in the one skeleton all five `*-extended`
//!   iterate-history scenarios recover through: `recover_and_resume` skips
//!   the invariant scan and believes the flushed unit counter — the bug the
//!   scan exists to prevent. **Killed**, by the hard gate, in all five (100
//!   of 100 trials).
//! - `baseline.rs`, in the one loop all four `*-ckpt` scenarios run forward
//!   through: `run_with_ckpt` checkpoints *before* it publishes progress, so
//!   a restore re-executes a completed unit on that unit's own output.
//!   **Killed** in `cg-ckpt` and `jacobi-ckpt`, whose units update in place;
//!   **survives** in `stencil-ckpt` and `lu-ckpt`, which recompute one more
//!   unit and answer right: a ping-pong sweep reads the buffer it does not
//!   write, a left-looking block is rebuilt from the pristine input, so
//!   re-running either is idempotent — natural resilience, not an oracle
//!   hole (their dirty restarts converge exactly).
//! - `mc/sim.rs`, in `mc-epoch`'s batch recovery: `McSim::recover_chain`
//!   drops its line-epoch guard, so a replay may join the pilot before both
//!   apply every increment. **Survives**, here and in `core`'s
//!   chain-vs-chain-of-one differential, and for a reason: it is an
//!   equivalent mutant. Each counter line carries its epoch word *in the
//!   line*, so a replay that has not reached a line's epoch holds a word
//!   past the boundary it stands at, and one that has holds a word at or
//!   before it — so `MemorySystem::lead`, which decides a join, already
//!   refuses every join the guard refuses. The guard is a pre-filter that
//!   saves the comparison, not a second condition. `mc-epoch` reads most
//!   recoveries off a process-wide table of clocks instead of chaining
//!   them, but never under this seed nor while recording
//!   (`hook::reads_kept`), so the chain runs here whatever ran before.
//! - `persist.rs`, in the one commit all three `dist-*-local` scenarios
//!   publish through: `Mechanism::commit` runs `publish` (counter → fence →
//!   off-node shipment) *before* it persists the payload the counter names.
//!   **Killed** at module level (`persist`'s publish-order test) and by the
//!   chaotic campaign, whose node-loss units restore from a remote level
//!   that was shipped the new counter with the old payload (8 silent of
//!   400). **Survives** the faultless campaign, byte for byte: every dist
//!   poll sits at `PH_MID` or `PH_END`, none between the two halves of a
//!   commit, so no harvested crash state can see their order — a coverage
//!   hole, and the same mutant with the shipment left last survives the
//!   exhaustive chaotic space too.
//! - `detect.rs`, in `adcc_ds`'s two-slot checkpoint: `Checkpoint::store`
//!   persists the stale slot. **Killed** by the persist-order sanitizer
//!   (`adcc_ds`'s `analyzer_mutants`).
//!
//! and one persist is dropped: `mc-epoch`'s periodic counter-line flush (a
//! row of the persist-necessity table, `tests/persist_necessity.rs`).
//! **Killed** by `scenarios::mc`'s replay-distance bound (52 of 1 200 crash
//! points replay more than 80 lookups); **survives** this campaign's outcome
//! histogram, and for a reason: epoch recovery is exact from whatever
//! `(counters, epoch)` pair NVM holds, so the flush only bounds how far it
//! replays. What moves is `lost_units_total`, 308 → 421.
//!
//! The hook is scoped to the calling thread, so a campaign under a seed
//! runs on one thread. [`every_seed_is_reached_and_has_a_verdict`] records
//! the seeds three campaigns reach: a seed nobody reaches, or one without a
//! verdict test, fails it. A scenario whose histogram does not move under a
//! seed, or moves without a silent corruption, is a survivor to explain
//! (natural resilience, an oracle hole, an equivalent mutant) in ROADMAP's
//! scoreboard — not a row to delete from [`CLEAN`].

use std::sync::OnceLock;

use adcc_campaign::engine::run_per_trial;
use adcc_campaign::{
    run_campaign, CampaignConfig, CampaignReport, ImageMemory, OutcomeCounts, Registry,
    ScenarioReport,
};
use adcc_dist::net::FaultProfile;
use adcc_sim::hook::{self, Op, Site};

/// A scenario's outcome histogram: `[exact, recomputed, detected, clean,
/// silent]`.
type Histogram = [u64; 5];

/// The scenarios a seeded bug sits under — the five that recover through
/// `adcc_core::iterative`, the four that run forward through
/// `baseline::run_with_ckpt`, the one that recovers through
/// `McSim::recover_chain` — with their clean-tree histograms at [`config`].
/// Dropping `mc-epoch`'s flush moves none of them: see [`EPOCH_LOST_UNITS`].
const CLEAN: [(&str, Histogram); 10] = [
    ("cg-extended", [0, 1, 19, 0, 0]),
    ("bicgstab-extended", [0, 1, 19, 0, 0]),
    ("bicgstab-extended-windowed", [0, 0, 20, 0, 0]),
    ("jacobi-extended", [0, 0, 20, 0, 0]),
    ("stencil-extended", [0, 0, 20, 0, 0]),
    ("cg-ckpt", [1, 0, 19, 0, 0]),
    ("jacobi-ckpt", [1, 1, 18, 0, 0]),
    ("stencil-ckpt", [20, 0, 0, 0, 0]),
    ("lu-ckpt", [4, 3, 13, 0, 0]),
    ("mc-epoch", [0, 20, 0, 0, 0]),
];

/// The `iterative.rs` seed flips every trial of all five `*-extended`
/// scenarios to silent corruption. An entry that has to leave this list is
/// a survivor.
const TRUST_COUNTER: [(&str, Histogram); 5] = [
    ("cg-extended", [0, 0, 0, 0, 20]),
    ("bicgstab-extended", [0, 0, 0, 0, 20]),
    ("bicgstab-extended-windowed", [0, 0, 0, 0, 20]),
    ("jacobi-extended", [0, 0, 0, 0, 20]),
    ("stencil-extended", [0, 0, 0, 0, 20]),
];

/// The `baseline.rs` seed moves all four `*-ckpt` histograms: the first
/// two are kills, the last two the survivors the header explains.
const CKPT_STALE_COUNTER: [(&str, Histogram); 4] = [
    ("cg-ckpt", [0, 0, 19, 0, 1]),
    ("jacobi-ckpt", [0, 0, 18, 0, 2]),
    ("stencil-ckpt", [0, 20, 0, 0, 0]),
    ("lu-ckpt", [0, 7, 13, 0, 0]),
];

/// `mc-epoch`'s `lost_units_total` at [`config`], clean and with its
/// periodic counter flush dropped: the survivor's one visible effect.
/// Recovery stays exact (the histogram is [`CLEAN`]'s), it only replays
/// further.
const EPOCH_LOST_UNITS: (&str, u64, u64) = ("mc-epoch", 308, 421);

/// The three `dist-*-local` scenarios `Mechanism::commit`'s `Local` arm sits
/// under, at [`dist_config`]: clean-tree histograms on the faultless fabric
/// (which the `persist.rs` seed does not move) and on the chaotic tier,
/// then the chaotic histogram under the seed — its node-loss kills.
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

const MC_CAMPAIGN: &str = "crates/campaign/src/scenarios/mc.rs";
const ITERATIVE: &str = "crates/core/src/iterative.rs";
const BASELINE: &str = "crates/core/src/baseline.rs";
const MC_SIM: &str = "crates/core/src/mc/sim.rs";
const PERSIST: &str = "crates/dist/src/persist.rs";

const THIS: &str = include_str!("protocol_mutants.rs");

/// Every seed, by the file of its `hook::seeded()` call, with each test
/// whose verdict it moves: (seed, test source, test name).
const VERDICTS: [(&str, &str, &str); 9] = [
    (
        MC_CAMPAIGN,
        THIS,
        "a_skipped_image_check_survives_the_campaign",
    ),
    (
        MC_CAMPAIGN,
        include_str!("../src/scenarios/mc.rs"),
        "a_skipped_image_check_is_killed_by_the_fallback_differential",
    ),
    (
        BASELINE,
        THIS,
        "a_checkpoint_before_its_counter_is_killed_where_units_update_in_place",
    ),
    (
        ITERATIVE,
        THIS,
        "the_hard_gate_fires_exactly_when_recovery_trusts_the_counter",
    ),
    (
        MC_SIM,
        THIS,
        "an_early_chain_join_survives_batch_against_per_trial",
    ),
    (
        MC_SIM,
        include_str!("../../core/src/mc/sim.rs"),
        "an_early_join_survives_the_chain_differentials",
    ),
    (
        PERSIST,
        THIS,
        "a_swapped_publish_order_is_seen_through_the_remote_level_only",
    ),
    (
        PERSIST,
        include_str!("../../dist/src/persist.rs"),
        "a_commit_that_publishes_first_is_out_of_order",
    ),
    (
        "crates/ds/src/detect.rs",
        include_str!("../../ds/tests/analyzer_mutants.rs"),
        "reordered_two_slot_publish_is_flagged",
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

/// `cfg` on the calling thread alone, where its hook is.
fn one_thread(cfg: CampaignConfig) -> CampaignConfig {
    CampaignConfig { threads: 1, ..cfg }
}

/// The clean kernel and chaotic dist campaigns, and every seed site they
/// and a ds 500 campaign reach.
struct Recorded {
    kernel: CampaignReport,
    chaotic: CampaignReport,
    seeds: Vec<Site>,
}

/// The three campaigns, run on this thread while recording.
fn record_campaigns() -> Recorded {
    let ds = CampaignConfig {
        registry: Registry::Ds,
        ..CampaignConfig::default()
    };
    let run = |cfg| run_campaign(&one_thread(cfg));
    let ((kernel, chaotic, _), sites) = hook::record(|| {
        (
            run(config()),
            run(dist_config(FaultProfile::Chaotic)),
            run(ds),
        )
    });
    let seeds = sites.into_iter().filter(|s| s.op == Op::Seed).collect();
    Recorded {
        kernel,
        chaotic,
        seeds,
    }
}

/// Recorded once, on whichever test thread asks first.
fn recorded() -> &'static Recorded {
    static RECORDED: OnceLock<Recorded> = OnceLock::new();
    RECORDED.get_or_init(record_campaigns)
}

/// `cfg`'s campaign with the seed of `file` planted: the batch report,
/// which the per-trial oracle matches byte for byte under the seed too.
fn seeded(file: &str, cfg: CampaignConfig) -> CampaignReport {
    let seed = recorded()
        .seeds
        .iter()
        .find(|s| s.at.file() == file)
        .unwrap_or_else(|| panic!("no campaign reaches a seed in {file}"));
    let cfg = one_thread(cfg);
    let (batch, oracle) = hook::mutating(*seed, || (run_campaign(&cfg), run_per_trial(&cfg)));
    assert_eq!(
        batch.canonical_string(),
        oracle.canonical_string(),
        "{file}: batch against per-trial; if this is the `mc/sim.rs` seed, it no longer \
         survives: record the kill in ROADMAP's scoreboard and in this file's header"
    );
    batch
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

/// Every histogram of a [`config`] campaign as on file: [`CLEAN`]'s, but
/// for the ones in `moved`, and every silent corruption of the campaign is
/// one of `moved`'s. Returns the kills.
fn assert_histograms(report: &CampaignReport, moved: &[(&str, Histogram)]) -> u64 {
    for (name, clean) in CLEAN {
        let want = moved
            .iter()
            .find(|(m, _)| *m == name)
            .map_or(clean, |m| m.1);
        assert_eq!(histogram(report, name), want, "{name}");
    }
    let kills: u64 = moved.iter().map(|(_, h)| h[4]).sum();
    assert_eq!(
        report.silent_corruption_total(),
        kills,
        "a scenario outside the seed's family moved"
    );
    kills
}

/// `seeds` are one per file of [`VERDICTS`], and each verdict test named
/// there exists.
fn assert_every_seed_has_a_verdict(seeds: &[Site]) {
    let reached: Vec<&str> = seeds.iter().map(|s| s.at.file()).collect();
    let mut on_file: Vec<&str> = VERDICTS.iter().map(|v| v.0).collect();
    on_file.dedup();
    assert_eq!(reached, on_file, "one seed per file, each with a verdict");
    for (seed, source, name) in VERDICTS {
        let test = format!("fn {name}()");
        assert!(
            source.contains(&test),
            "{seed}: verdict test {name} is gone"
        );
    }
}

/// The six seeds above, each reached by one of the three campaigns, and
/// each named in a verdict test that exists.
#[test]
fn every_seed_is_reached_and_has_a_verdict() {
    assert_every_seed_has_a_verdict(&recorded().seeds);
}

/// The MC scenarios' process-wide tables answer a state in place of the
/// chain that would simulate it, and a clean kernel campaign fills them
/// with every `mc-epoch` recovery a second one asks for. Were they read
/// while recording, the second campaign would never reach the `mc/sim.rs`
/// seed in `McSim::recover_chain`, and whether [`recorded`] found it would
/// depend on which test ran first. They are not (`hook::reads_kept`): the
/// campaigns recorded after a clean one still reach every seed.
#[test]
fn campaigns_after_a_clean_one_still_reach_every_seed() {
    run_campaign(&config());
    assert_every_seed_has_a_verdict(&record_campaigns().seeds);
}

/// Clean, zero silent corruption and every histogram as on file; with
/// recovery believing the counter, every `*-extended` trial is silent.
#[test]
fn the_hard_gate_fires_exactly_when_recovery_trusts_the_counter() {
    let clean = &recorded().kernel;
    assert_histograms(clean, &[]);
    let (name, lost, _) = EPOCH_LOST_UNITS;
    assert_eq!(scenario(clean, name).lost_units_total, lost, "{name}");
    let report = seeded(ITERATIVE, config());
    assert_eq!(assert_histograms(&report, &TRUST_COUNTER), 100);
}

#[test]
fn a_checkpoint_before_its_counter_is_killed_where_units_update_in_place() {
    let report = seeded(BASELINE, config());
    assert_eq!(assert_histograms(&report, &CKPT_STALE_COUNTER), 3);
}

/// The `mc/sim.rs` seed reaches the batch side only (`run_trial` recovers
/// `mc-epoch` through a chain of one, which meets no pilot), so batch
/// against per-trial is the gate that would kill it — and, the mutant being
/// equivalent, does not; every histogram stays clean. No `mc-epoch` state
/// is read off its table under the seed (`hook::reads_kept`), however many
/// campaigns filled it before: every batch chains.
#[test]
fn an_early_chain_join_survives_batch_against_per_trial() {
    let report = seeded(MC_SIM, config());
    assert_histograms(&report, &[]);
}

/// The `scenarios/mc.rs` seed answers every `mc-selective` recovery off
/// the table unchecked; batch against per-trial, which never reads the
/// table, does not move, because every harvested image would have passed.
#[test]
fn a_skipped_image_check_survives_the_campaign() {
    let report = seeded(MC_CAMPAIGN, config());
    assert_histograms(&report, &[]);
    assert_eq!(
        report.canonical_string(),
        recorded().kernel.canonical_string(),
        "the recorded survivor"
    );
}

/// Killed on the chaotic tier, through the node-loss units alone (the
/// `-restart` scenarios commit through the other arm and stay
/// silent-free); a survivor on the faultless fabric, where no poll
/// separates payload from publish.
#[test]
fn a_swapped_publish_order_is_seen_through_the_remote_level_only() {
    let off = run_campaign(&dist_config(FaultProfile::Off));
    let clean = &recorded().chaotic;
    let chaotic = seeded(PERSIST, dist_config(FaultProfile::Chaotic));
    for (name, clean_off, clean_chaotic, seeded_chaotic) in DIST_LOCAL {
        assert_eq!(histogram(&off, name), clean_off, "{name}, faults off");
        assert_eq!(histogram(clean, name), clean_chaotic, "{name}, chaotic");
        assert_eq!(histogram(&chaotic, name), seeded_chaotic, "{name}, seeded");
    }
    assert_eq!(off.silent_corruption_total(), 0);
    assert_eq!(clean.silent_corruption_total(), 0);
    assert_eq!(chaotic.silent_corruption_total(), 8);
    let seeded_off = seeded(PERSIST, dist_config(FaultProfile::Off));
    assert_eq!(
        seeded_off.canonical_string(),
        off.canonical_string(),
        "the recorded survivor"
    );
}

/// `mc-epoch`'s periodic counter flush, dropped: every histogram stays as on
/// file, only `mc-epoch` replays further.
#[test]
fn a_dropped_epoch_flush_moves_lost_work_only() {
    let reg = Registry::Kernel.scenarios();
    let epoch = reg
        .iter()
        .find(|s| s.name() == EPOCH_LOST_UNITS.0)
        .expect("mc-epoch is registered");
    let last = [epoch.total_units() - 1];
    let (_, sites) = hook::record(|| epoch.run_batch(&last, false, &ImageMemory::for_workers(1)));
    let flushes: Vec<_> = sites
        .into_iter()
        .filter(|s| s.op == Op::Flush && s.at.file().ends_with("mc/sim.rs"))
        .collect();
    assert_eq!(flushes.len(), 1, "one periodic counter flush: {flushes:?}");
    let report = hook::mutating(flushes[0], || run_campaign(&one_thread(config())));
    assert_histograms(&report, &[]);
    let (name, _, no_flush) = EPOCH_LOST_UNITS;
    assert_eq!(scenario(&report, name).lost_units_total, no_flush, "{name}");
}

/// Batch and per-trial recover through the one iterate-history skeleton,
/// run forward through the one checkpoint loop and commit through the one
/// `Mechanism::commit`, so they agree on the clean tree, at the default
/// thread count; under each seed, [`seeded`] asks the same.
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
            "{cfg:?}"
        );
    }
}
