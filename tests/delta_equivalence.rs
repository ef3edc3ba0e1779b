//! Delta-vs-full equivalence: the copy-on-write crash-image path must be
//! indistinguishable from the per-trial oracle (`Scenario::run_trial`, one
//! execution and one full image per unit; `engine::run_per_trial` for a
//! whole campaign).
//!
//! Three layers of proof:
//!
//! 1. **Image level** (plus a proptest in `crates/sim`): a materialized
//!    `DeltaImage` is byte-identical to the `crash_fork` image taken at
//!    the same instant.
//! 2. **Trial level**: for every scenario in the registry, `run_batch`
//!    (one harvested execution, delta images, streaming classification)
//!    produces exactly the trials `run_trial` (one execution and one full
//!    image per unit) produces — outcome, loss, recovery clock, and the
//!    full telemetry profile.
//!    A second pass picks units that *share a poll* — one crash state
//!    charged to several units — where the batch path recovers once per
//!    state and `run_trial` remains the per-unit oracle.
//!    A third asks the one batch hook for several passes at once and
//!    checks each against its single-pass run: the passes share a forward
//!    execution, never a result.
//! 3. **Report level**: whole campaigns are byte-identical in canonical
//!    form under both code paths, across 1 and 8 worker threads, dense
//!    units included — and at the configs CI's smoke and nightly's deep
//!    campaigns run.

use adcc::campaign::engine::{run_campaign, run_per_trial, CampaignConfig};
use adcc::campaign::memstats::ImageMemory;
use adcc::campaign::scenario::{Mechanism, Passes, Registry, Scenario};
use adcc::dist::cluster::RankFailure;
use adcc::dist::jacobi::{DistJacobi, JacobiConfig};
use adcc::dist::net::FaultProfile;
use adcc::dist::trial::{
    reference_run, run_dist_batch, run_dist_dirty_trial, run_dist_trial, BatchPasses, BatchPoint,
    FollowUp, RecoveryMode,
};
use adcc::sim::crash::{CrashSite, CrashTrigger};

/// A spread of units across each scenario's site-grain space plus one
/// dense (access-grain) point.
fn sample_units(total: u64) -> Vec<u64> {
    let mut units: Vec<u64> = [0, total / 2, total - 1, total + 2].into_iter().collect();
    units.sort_unstable();
    units.dedup();
    units
}

#[test]
fn every_scenario_batches_identically_to_per_trial() {
    for telemetry in [false, true] {
        let mem = ImageMemory::default();
        for s in Registry::Kernel.scenarios() {
            let units = sample_units(s.total_units());
            let batch = s
                .run_batch(&units, telemetry, &mem)
                .expect("every scenario supports the batched delta path");
            assert_eq!(batch.len(), units.len(), "{}", s.name());
            for (&unit, b) in units.iter().zip(&batch) {
                let t = s.run_trial(unit, telemetry);
                assert_eq!(b.unit, t.unit, "{} unit {}", s.name(), unit);
                assert_eq!(
                    b.outcome,
                    t.outcome,
                    "{} unit {unit} (telemetry={telemetry})",
                    s.name()
                );
                assert_eq!(b.lost_units, t.lost_units, "{} unit {unit}", s.name());
                assert_eq!(b.sim_time_ps, t.sim_time_ps, "{} unit {unit}", s.name());
                assert_eq!(b.telemetry.is_some(), telemetry, "{} unit {unit}", s.name());
                assert_eq!(b.telemetry, t.telemetry, "{} unit {unit}", s.name());
            }
        }
        // The batch path actually stored deltas, not full copies.
        let m = mem.summary();
        assert!(m.images > 0);
        assert!(
            m.delta_bytes < m.full_copy_bytes / 10,
            "deltas must be far below full copies: {m:?}"
        );
    }
}

/// Units chosen so that several land on the same poll: the first site
/// units, then a run of consecutive dense units (spaced closer than the
/// polls that capture them). For `stencil-ckpt` the last six site units
/// are its access-count points, the first of which lands on the first
/// `PH_SWEEP_END` together with the dense units.
fn poll_sharing_units(total: u64) -> Vec<u64> {
    (0..3).chain(total - 6..total + 8).collect()
}

/// The crash-state equivalence gate: where units share a poll the batch
/// path runs recovery once per state, and every unit's trial must still
/// equal its own `run_trial`. And one state has one verdict: units whose
/// forward runs stopped at the same instant (the same access count and
/// simulated time in their telemetry) get trials equal but for `unit`.
#[test]
fn units_sharing_a_crash_state_match_per_trial() {
    for telemetry in [false, true] {
        for s in [Registry::Kernel, Registry::Ds]
            .into_iter()
            .flat_map(Registry::scenarios)
        {
            let units = poll_sharing_units(s.total_units());
            let mem = ImageMemory::default();
            let batch = s.run_batch(&units, telemetry, &mem).expect("batched path");
            let m = mem.summary();
            let distinct = m.distinct_states.expect("fresh runs know the count");
            assert!(
                distinct < m.images,
                "{}: no unit shared a poll ({distinct} states, {} images)",
                s.name(),
                m.images
            );
            for (&unit, b) in units.iter().zip(&batch) {
                let t = s.run_trial(unit, telemetry);
                let got = (b.unit, b.outcome, b.lost_units, b.sim_time_ps, b.telemetry);
                let want = (t.unit, t.outcome, t.lost_units, t.sim_time_ps, t.telemetry);
                assert_eq!(got, want, "{} unit {unit} telemetry={telemetry}", s.name());
            }
            if telemetry {
                let mut verdicts = std::collections::HashMap::new();
                for b in &batch {
                    let p = b.telemetry.expect("asked for");
                    let verdict = (b.outcome, b.lost_units, b.sim_time_ps, b.telemetry);
                    let first = *verdicts
                        .entry((p.accesses, p.sim_time_ps))
                        .or_insert((b.unit, verdict));
                    assert_eq!(
                        verdict,
                        first.1,
                        "{}: units {} and {}",
                        s.name(),
                        first.0,
                        b.unit
                    );
                }
                assert!(
                    verdicts.len() < batch.len(),
                    "{}: no shared state",
                    s.name()
                );
            }
        }
    }
}

/// Same gate for the dirty-restart sweep: a batch whose units share crash
/// states equals one dirty restart per unit (a batch of one shares
/// nothing).
#[test]
fn dirty_restarts_sharing_a_crash_state_match_per_unit() {
    for s in Registry::Kernel.scenarios() {
        let units = poll_sharing_units(s.total_units());
        let mem = ImageMemory::default();
        let batch = s.run_resilience(&units, &mem).expect("kernel sweep");
        let m = mem.summary();
        assert!(m.distinct_states.unwrap() < m.images, "{}", s.name());
        for (&unit, b) in units.iter().zip(&batch.trials) {
            let solo = s.run_resilience(&[unit], &ImageMemory::default()).unwrap();
            assert_eq!(*b, solo.trials[0], "{} unit {unit}", s.name());
        }
    }
}

/// The fused-call gate: recover + dirty asked of one `run_passes` call
/// equal separate `run_batch` + `run_resilience` — trials (telemetry
/// included), dirty trials and tolerance — for every kernel and dist
/// scenario, on units that share crash states. A chunk harvests once for
/// both passes; nothing else may change.
#[test]
fn fused_recover_and_dirty_passes_equal_the_separate_runs() {
    for reg in [Registry::Kernel, Registry::Dist] {
        for s in reg.scenarios() {
            let units = poll_sharing_units(s.total_units());
            let (fused_mem, mem) = (ImageMemory::default(), ImageMemory::default());
            let fused = s.run_passes(&units, Passes::recover(true).and_dirty(), &fused_mem);
            let batch = s.run_batch(&units, true, &mem).expect("batched path");
            let swept = s.run_resilience(&units, &mem).expect("dirty-restart path");

            assert_eq!(fused.trials.len(), units.len(), "{}", s.name());
            for (f, b) in fused.trials.iter().zip(&batch) {
                let got = (f.unit, f.outcome, f.lost_units, f.sim_time_ps, f.telemetry);
                let want = (b.unit, b.outcome, b.lost_units, b.sim_time_ps, b.telemetry);
                assert_eq!(got, want, "{} unit {}", s.name(), b.unit);
            }
            let dirty = fused.dirty.expect("dirty pass requested and supported");
            assert_eq!(dirty.trials, swept.trials, "{}", s.name());
            assert_eq!(dirty.tolerance, swept.tolerance, "{}", s.name());
            assert!(
                fused.analysis.is_none(),
                "{}: no regions declared",
                s.name()
            );

            // One forward execution serves both passes — on the dist
            // registry too: one cluster per chunk, forked per pass.
            let (f, m) = (fused_mem.summary(), mem.summary());
            assert_eq!((f.executions, m.executions), (1, 2), "{}", s.name());
        }
    }
}

/// The analyze pass through the hook equals `run_analyzed` for every ds
/// scenario — trials, per-unit crash facts, protocol findings — and the
/// ds registry has no dirty-restart step to fuse.
#[test]
fn ds_analyze_pass_equals_run_analyzed() {
    let mut any_facts = false;
    for s in Registry::Ds.scenarios() {
        let units = poll_sharing_units(s.total_units());
        let mem = ImageMemory::default();
        let passes = Passes::recover(false).and_analyze().and_dirty();
        let out = s.run_passes(&units, passes, &mem);
        let want = s.run_analyzed(&units, &mem).expect("ds declares regions");
        assert!(out.dirty.is_none(), "{}", s.name());
        assert!(s.run_resilience(&units, &mem).is_none(), "{}", s.name());

        let analysis = out.analysis.expect("analyze pass requested and supported");
        assert_eq!(out.trials.len(), want.trials.len(), "{}", s.name());
        any_facts |= analysis.facts.iter().any(|f| !f.is_empty());
        for ((t, facts), w) in out.trials.iter().zip(&analysis.facts).zip(&want.trials) {
            let got = (t.unit, t.outcome, t.lost_units, t.sim_time_ps);
            let want = (
                w.trial.unit,
                w.trial.outcome,
                w.trial.lost_units,
                w.trial.sim_time_ps,
            );
            assert_eq!(got, want, "{} unit {}", s.name(), t.unit);
            assert_eq!(facts, &w.facts, "{} unit {}", s.name(), t.unit);
        }
        assert_eq!(analysis.protocol, want.protocol, "{}", s.name());
    }
    assert!(any_facts, "no crash point left a tracked line unpersisted");
}

/// The dist divergence gate: every distributed scenario's `run_batch`
/// (one harvest-planned cluster execution, forked-cluster recovery
/// replays, reference-run tail short-circuit) must produce trials
/// identical to `run_trial` per unit — outcome, loss, recovery clock and
/// traffic, and the full telemetry profile.
#[test]
fn every_dist_scenario_batches_identically_to_per_trial() {
    for telemetry in [false, true] {
        let mem = ImageMemory::default();
        for s in Registry::Dist.scenarios() {
            let units = sample_units(s.total_units());
            let batch = s
                .run_batch(&units, telemetry, &mem)
                .expect("dist scenarios support the batched harvest path");
            assert_eq!(batch.len(), units.len(), "{}", s.name());
            for (&unit, b) in units.iter().zip(&batch) {
                let t = s.run_trial(unit, telemetry);
                assert_eq!(b.unit, t.unit, "{} unit {}", s.name(), unit);
                assert_eq!(
                    b.outcome,
                    t.outcome,
                    "{} unit {unit} (telemetry={telemetry})",
                    s.name()
                );
                assert_eq!(b.lost_units, t.lost_units, "{} unit {unit}", s.name());
                assert_eq!(b.sim_time_ps, t.sim_time_ps, "{} unit {unit}", s.name());
                assert_eq!(b.telemetry.is_some(), telemetry, "{} unit {unit}", s.name());
                assert_eq!(b.telemetry, t.telemetry, "{} unit {unit}", s.name());
            }
        }
        let m = mem.summary();
        assert!(m.images > 0);
        assert!(
            m.delta_bytes < m.full_copy_bytes / 10,
            "dist deltas must be far below full copies: {m:?}"
        );
    }
}

/// The failure-set units of one chaotic-tier dist scenario — the whole
/// cascade block (2 × 16: the wrap-around rank 15 → 0 pair and its
/// occurrence-2 trigger included, GlobalRestart's mid-rollback
/// `(PH_MID, iter1 − 1, 2)` too) and, under local recovery, the whole
/// node-loss block — preceded by the two singletons that share a poll
/// with a cascade leader (`PH_MID` of the mid-run superstep) and with a
/// node loss (its `PH_END`), on rank 3. Geometry as published in
/// `scenarios/dist.rs`: singletons, then `2 * ranks` cascades, then
/// `ranks` node losses where the scenario has them.
fn chaotic_failure_set_units(s: &dyn Scenario) -> Vec<u64> {
    const RANKS: u64 = 16;
    let node_loss = if s.info().mechanism == Mechanism::Extended {
        RANKS
    } else {
        0
    };
    let sites = s.total_units();
    let singles = sites - node_loss - 2 * RANKS;
    let mid = (singles / (2 * RANKS) / 2).max(1);
    let mut units = vec![(mid - 1) * 2 * RANKS + 3, ((mid - 1) * 2 + 1) * RANKS + 3];
    units.extend(singles..sites);
    units
}

/// The chaotic-tier gate: cascades and node losses ride the harvest — the
/// first failure is cut from the chunk's one forward execution, the rest
/// of the set is armed on the replay's fork — so `run_trial` (one
/// dedicated 16-rank cluster per unit, nothing forked, every superstep
/// executed) is their oracle: outcome, loss, recovery clock and the full
/// telemetry profile, telemetry off and on, all six scenarios. The fused
/// call's dirty pass must equal the dirty pass alone (whose own per-unit
/// oracle, `run_dist_dirty_trial`, is pinned in `scenarios/dist.rs`), and
/// either way the chunk builds one cluster.
#[test]
fn chaotic_failure_sets_batch_identically_to_per_trial() {
    for s in Registry::Dist.scenarios_with(FaultProfile::Chaotic) {
        let units = chaotic_failure_set_units(s.as_ref());
        for telemetry in [false, true] {
            let mem = ImageMemory::default();
            let batch = s.run_batch(&units, telemetry, &mem).expect("batched path");
            let m = mem.summary();
            assert_eq!(m.executions, 1, "{}", s.name());
            assert_eq!(
                m.images,
                units.len() as u64,
                "{}: every unit crashes",
                s.name()
            );
            // Each singleton shares its poll with a failure-set unit.
            assert!(m.distinct_states.unwrap() < m.images, "{}", s.name());
            for (&unit, b) in units.iter().zip(&batch) {
                let t = s.run_trial(unit, telemetry);
                let got = (b.unit, b.outcome, b.lost_units, b.sim_time_ps, b.telemetry);
                let want = (t.unit, t.outcome, t.lost_units, t.sim_time_ps, t.telemetry);
                assert_eq!(got, want, "{} unit {unit} telemetry={telemetry}", s.name());
                assert_eq!(b.telemetry.is_some(), telemetry);
            }
        }

        let (fused_mem, mem) = (ImageMemory::default(), ImageMemory::default());
        let fused = s.run_passes(&units, Passes::recover(true).and_dirty(), &fused_mem);
        let batch = s.run_batch(&units, true, &mem).expect("batched path");
        let swept = s.run_resilience(&units, &mem).expect("dirty-restart path");
        for (f, b) in fused.trials.iter().zip(&batch) {
            let got = (f.unit, f.outcome, f.lost_units, f.sim_time_ps, f.telemetry);
            let want = (b.unit, b.outcome, b.lost_units, b.sim_time_ps, b.telemetry);
            assert_eq!(got, want, "{} unit {}", s.name(), b.unit);
        }
        assert_eq!(fused.dirty.expect("dirty pass").trials, swept.trials);
        assert_eq!(fused_mem.summary().executions, 1, "{}", s.name());
    }
}

/// One harvested poll, three failure sets: a singleton, a cascade leader
/// and a node loss scheduled on the same `(rank, site)` share one crash
/// image and nothing else — each is replayed on its own forks under its
/// own follow-up, and each equals the dedicated cluster that arms that
/// failure set from the start, on both passes.
#[test]
fn failure_sets_sharing_one_harvested_poll_get_a_replay_each() {
    let cfg = JacobiConfig::campaign_for(RecoveryMode::AlgorithmDirected, FaultProfile::Chaotic);
    let build = |failures: &[RankFailure]| cfg.clone().launch(failures, DistJacobi::setup);
    let reference = {
        let (mut cl, mut kernel) = build(&[]);
        reference_run(&mut cl, &mut kernel)
    };
    let at = |phase, iter| CrashTrigger::AtSite {
        site: CrashSite::new(phase, iter),
        occurrence: 1,
    };
    let (ph_mid, ph_end) = (adcc::dist::sites::PH_MID, adcc::dist::sites::PH_END);
    let iter = cfg.iters / 2;
    let first = at(ph_end, iter);
    // The cascade's second failure lands in the resumed superstep.
    let second = RankFailure::crash(6, at(ph_mid, iter + 1));
    let follows = [
        FollowUp::default(),
        FollowUp {
            node_loss: false,
            second: Some(second),
        },
        FollowUp {
            node_loss: true,
            second: None,
        },
    ];
    let points: Vec<BatchPoint> = follows
        .iter()
        .zip(0u64..)
        .map(|(&follow, unit)| BatchPoint {
            unit,
            rank: 5,
            trigger: first,
            follow,
        })
        .collect();

    for telemetry in [false, true] {
        let passes = BatchPasses {
            recover: true,
            telemetry,
            dirty: true,
        };
        let (mut cl, mut kernel) = build(&[]);
        let (replays, stats) = run_dist_batch(&mut cl, &mut kernel, &points, passes, &reference);
        assert_eq!((stats.images, stats.distinct_states), (3, 1));
        assert_eq!(replays.len(), 3, "one replay per follow-up");

        for (replay, point) in replays.iter().zip(&points) {
            assert_eq!(replay.units, [point.unit]);
            assert_eq!(replay.follow, point.follow);
            let failures: Vec<RankFailure> = [RankFailure {
                rank: point.rank,
                trigger: point.trigger,
                node_loss: point.follow.node_loss,
            }]
            .into_iter()
            .chain(point.follow.second)
            .collect();
            let (mut cl, mut kernel) = build(&failures);
            let oracle = run_dist_trial(&mut cl, &mut kernel, telemetry);
            assert_eq!(replay.trial.as_ref(), Some(&oracle), "unit {}", point.unit);
            let (mut cl, mut kernel) = build(&failures);
            let oracle = run_dist_dirty_trial(&mut cl, &mut kernel);
            assert_eq!(replay.dirty, oracle, "unit {}", point.unit);
        }
        // Three different trials from the one image.
        let trial = |k: usize| replays[k].trial.as_ref().unwrap();
        assert_eq!(trial(0).remote_restore_bytes, 0);
        assert!(trial(1).recovery_net_bytes > trial(0).recovery_net_bytes);
        assert!(trial(2).remote_restore_bytes > 0);
        assert!(trial(0).solution == reference.solution, "exact recovery");
    }
}

/// The ds divergence gate: every persistent data-structure scenario's
/// `run_batch` (one harvested op-stream execution, sidecar undo-log
/// counters, delta images) must produce trials identical to `run_trial`
/// per unit — outcome, loss, recovery clock, and the full telemetry
/// profile (undo-log appends and op-replay counters included).
#[test]
fn every_ds_scenario_batches_identically_to_per_trial() {
    for telemetry in [false, true] {
        let mem = ImageMemory::default();
        for s in Registry::Ds.scenarios() {
            let units = sample_units(s.total_units());
            let batch = s
                .run_batch(&units, telemetry, &mem)
                .expect("ds scenarios support the batched delta path");
            assert_eq!(batch.len(), units.len(), "{}", s.name());
            for (&unit, b) in units.iter().zip(&batch) {
                let t = s.run_trial(unit, telemetry);
                assert_eq!(b.unit, t.unit, "{} unit {}", s.name(), unit);
                assert_eq!(
                    b.outcome,
                    t.outcome,
                    "{} unit {unit} (telemetry={telemetry})",
                    s.name()
                );
                assert_eq!(b.lost_units, t.lost_units, "{} unit {unit}", s.name());
                assert_eq!(b.sim_time_ps, t.sim_time_ps, "{} unit {unit}", s.name());
                assert_eq!(b.telemetry.is_some(), telemetry, "{} unit {unit}", s.name());
                assert_eq!(b.telemetry, t.telemetry, "{} unit {unit}", s.name());
            }
        }
        let m = mem.summary();
        assert!(m.images > 0);
        assert!(
            m.delta_bytes < m.full_copy_bytes / 10,
            "ds deltas must be far below full copies: {m:?}"
        );
    }
}

/// Whole campaigns are byte-identical in canonical form between the
/// batched engine and the per-trial oracle, each at 1 and 8 worker
/// threads; only host facts (the oracle harvests no image) differ.
fn assert_code_paths_and_threads_agree(registry: Registry, budget_states: u64) {
    let cfg = |threads| CampaignConfig {
        threads,
        ..config(registry, budget_states, 0)
    };
    let batch1 = run_campaign(&cfg(1));
    let canonical = batch1.canonical_string();
    assert_eq!(batch1.registry, registry);
    assert_eq!(
        canonical,
        run_campaign(&cfg(8)).canonical_string(),
        "batch, 1 vs 8 threads"
    );
    let oracle1 = run_per_trial(&cfg(1));
    assert_eq!(canonical, oracle1.canonical_string(), "batch vs per-trial");
    assert_eq!(
        canonical,
        run_per_trial(&cfg(8)).canonical_string(),
        "per-trial, 8 threads"
    );
    assert!(batch1.image_memory.images > 0);
    assert_eq!(oracle1.image_memory.images, 0);
}

#[test]
fn ds_campaign_reports_byte_identical_across_code_paths_and_threads() {
    assert_code_paths_and_threads_agree(Registry::Ds, 48);
}

#[test]
fn dist_campaign_reports_byte_identical_across_code_paths_and_threads() {
    assert_code_paths_and_threads_agree(Registry::Dist, 48);
}

#[test]
fn campaign_reports_byte_identical_across_code_paths_and_threads() {
    assert_code_paths_and_threads_agree(Registry::Kernel, 120);
}

/// Sharded campaigns tile the schedule: merging the complete shard set
/// reproduces the unsharded canonical report byte-for-byte, for every
/// registry and any shard count.
#[test]
fn shard_merge_reproduces_the_unsharded_report() {
    use adcc::campaign::report::CampaignReport;
    for reg in Registry::ALL {
        let base = CampaignConfig {
            seed: 42,
            budget_states: if reg == Registry::Kernel { 96 } else { 48 },
            threads: 2,
            telemetry: true,
            registry: reg,
            ..CampaignConfig::default()
        };
        let full = run_campaign(&base);
        for n in [2u64, 4, 8] {
            let partials: Vec<_> = (0..n)
                .map(|i| {
                    run_campaign(&CampaignConfig {
                        shard: Some((i, n)),
                        ..base.clone()
                    })
                })
                .collect();
            let trials: u64 = partials.iter().map(|p| p.totals.total()).sum();
            assert_eq!(trials, full.totals.total(), "shards tile the budget");
            let merged = CampaignReport::merge_shards(&partials).unwrap();
            assert_eq!(
                merged.canonical_string(),
                full.canonical_string(),
                "{n}-way merge (registry={})",
                reg.name()
            );
        }
    }
}

/// Seed 42 with telemetry, as every CI campaign runs.
fn config(registry: Registry, budget_states: u64, dense_units: u64) -> CampaignConfig {
    CampaignConfig {
        seed: 42,
        budget_states,
        telemetry: true,
        dense_units,
        registry,
        ..CampaignConfig::default()
    }
}

#[test]
fn dense_campaigns_are_equivalent_and_replayable_too() {
    let cfg = CampaignConfig {
        threads: 4,
        ..config(Registry::Kernel, 120, 40)
    };
    let batch = run_campaign(&cfg);
    assert_eq!(
        batch.canonical_string(),
        run_per_trial(&cfg).canonical_string()
    );
    assert_eq!(batch.dense_units, 40);
    // The dense extension is recorded in the canonical form, so a replay
    // (which parses it back) reproduces the same crash-point space.
    let parsed = adcc::campaign::report::CampaignReport::parse(&batch.to_string_pretty()).unwrap();
    assert_eq!(parsed.dense_units, 40);
    assert_eq!(parsed.canonical_string(), batch.canonical_string());
}

#[test]
fn batch_chunking_does_not_change_the_report() {
    let chunked = |max_batch| {
        run_campaign(&CampaignConfig {
            threads: 2,
            max_batch,
            ..config(Registry::Kernel, 120, 0)
        })
    };
    assert_eq!(
        chunked(7).canonical_string(),
        chunked(1024).canonical_string()
    );
}

/// The whole-campaign gates at the configs CI's smoke and nightly's deep
/// campaigns run: the engine's report equals the oracle's, byte for byte.
/// The oracle pays one instrumented execution per unit, ~9 s for all five
/// in the test profile.
fn assert_equals_the_per_trial_oracle(cfg: CampaignConfig) {
    assert_eq!(
        run_campaign(&cfg).canonical_string(),
        run_per_trial(&cfg).canonical_string()
    );
}

/// Site-grain only: no two units share a poll.
#[test]
fn smoke_kernel_500_equals_the_per_trial_oracle() {
    assert_equals_the_per_trial_oracle(config(Registry::Kernel, 500, 0));
}

/// Dense: most of the 1300 units take the verdict of a crash state another
/// unit already recovered, and the oracle must still agree unit for unit.
#[test]
fn smoke_kernel_1300_dense_400_equals_the_per_trial_oracle() {
    assert_equals_the_per_trial_oracle(config(Registry::Kernel, 1300, 400));
}

/// The 16-rank grid presets: cascades and node losses armed on the
/// replay's fork against one dedicated cluster per unit.
#[test]
fn smoke_dist_chaotic_400_dense_40_equals_the_per_trial_oracle() {
    assert_equals_the_per_trial_oracle(CampaignConfig {
        faults: FaultProfile::Chaotic,
        ..config(Registry::Dist, 400, 40)
    });
}

/// The exhaustive dist space (2400 units; the budget exhausts it).
#[test]
fn deep_dist_4000_dense_320_equals_the_per_trial_oracle() {
    assert_equals_the_per_trial_oracle(config(Registry::Dist, 4000, 320));
}

/// The exhaustive ds space (4 × 680 units).
#[test]
fn deep_ds_3000_dense_200_equals_the_per_trial_oracle() {
    assert_equals_the_per_trial_oracle(config(Registry::Ds, 3000, 200));
}

/// The MC scenarios read most replays off process-wide tables that earlier
/// campaigns in the process filled, which a one-campaign process (`campaign
/// replay --expect`) never does. So kernel campaigns run twice in one
/// process — the second pass reading what the first filled — equal the
/// per-trial oracle byte for byte, and resilience campaigns run twice equal
/// one that reads no table: a campaign run while recording, where nothing
/// kept is read (`hook::reads_kept`) and every MC replay is simulated.
#[test]
fn campaigns_on_warm_tables_equal_the_tableless_oracles() {
    use adcc::campaign::run_resilience;
    use adcc::sim::hook;
    let cfg = |seed| CampaignConfig {
        budget_states: 130,
        dense_units: 400,
        seed,
        threads: 1,
        ..CampaignConfig::default()
    };
    let seeds = [42, 43];
    let per_trial = seeds.map(|seed| run_per_trial(&cfg(seed)).canonical_string());
    let tableless = seeds.map(|seed| {
        let (report, _) = hook::record(|| run_resilience(&cfg(seed)));
        report.canonical_string()
    });
    for pass in 0..2 {
        for (k, seed) in seeds.into_iter().enumerate() {
            let cfg = CampaignConfig {
                threads: 2,
                ..cfg(seed)
            };
            let got = run_campaign(&cfg).canonical_string();
            assert_eq!(got, per_trial[k], "seed {seed}, pass {pass}");
            let got = run_resilience(&cfg).canonical_string();
            assert_eq!(got, tableless[k], "--resilience, seed {seed}, pass {pass}");
        }
    }
}
