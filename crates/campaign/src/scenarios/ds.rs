//! Persistent data-structure (`adcc::ds`) scenarios: the seeded
//! multi-client op-stream workloads — MSC queue and open-addressing hash
//! table over the crash-consistent free-list allocator — under undo-logged
//! (`pmem`) and unprotected-baseline protection.
//!
//! ## Unit space
//!
//! Each op in the stream polls exactly three phase sites in order —
//! `PH_DS_PREP` (announced, nothing mutated), `PH_DS_MUT` (mid-mutation)
//! and `PH_DS_COMMIT` (completion record + watermark stored) — so the
//! site-grain unit space is `3 × ops`: unit `u` crashes op `u / 3 + 1` at
//! phase `u % 3`. The allocator-metadata windows (`PH_DS_ALLOC`) are
//! data-dependent (only Put/Del ops open them) and are reached through
//! the dense access-grain tail instead of site-grain enumeration.
//!
//! ## Classification
//!
//! Every crash image goes through [`recover_verify_resume`]: recovery
//! (undo rollback + watermark, or baseline audits + rebuild-on-dirt),
//! prefix verification against the host oracle, full stream resumption,
//! and final verification. `lost_units` counts the ops that had been
//! applied at the crash instant but had to be re-executed.

use adcc_analyze::{Checks, Region, Role};
use adcc_ds::sites::{PH_DS_COMMIT, PH_DS_MUT, PH_DS_PREP};
use adcc_ds::{
    recover_verify_resume, DsLayout, OpStream, OpStreamCfg, Protection, Structure,
    Workload as DsWorkload, WorkloadCfg,
};
use adcc_pmem::LogStats;
use adcc_sim::crash::{CrashEmulator, CrashSite, CrashTrigger, RunOutcome};
use adcc_sim::image::NvmImage;
use adcc_sim::line::LINE_SIZE;
use adcc_sim::system::MemorySystem;
use adcc_telemetry::ExecutionProfile;

use super::harness::{Classified, Workload};
use super::verified_completion;
use crate::scenario::{Kernel, Mechanism, Scenario, ScenarioInfo, Trial, UnitSpace};

/// The three always-polled phases of one op, in poll order.
const SITE_PHASES: [u32; 3] = [PH_DS_PREP, PH_DS_MUT, PH_DS_COMMIT];

/// ~230 accesses per op under the default stream; stride 200 lands the
/// dense tail roughly one crash point per op, phase-shifted from the
/// site grain (so allocator windows are reachable).
const DENSE_STRIDE: u64 = 200;

/// One ds structure × protection pair.
pub(crate) struct DsScenario {
    info: ScenarioInfo,
    cfg: WorkloadCfg,
    stream: OpStream,
    layout: DsLayout,
}

/// Every persistent data-structure scenario (the `ds` registry), in
/// report order: MSC queue and open-addressing hash table, each under
/// undo-logged (`pmem`) and unprotected-baseline protection.
pub(crate) fn all() -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(DsScenario::new(
            "ds-queue-undo",
            Structure::Queue,
            Protection::Undo,
        )),
        Box::new(DsScenario::new(
            "ds-queue-base",
            Structure::Queue,
            Protection::Baseline,
        )),
        Box::new(DsScenario::new(
            "ds-hash-undo",
            Structure::Hash,
            Protection::Undo,
        )),
        Box::new(DsScenario::new(
            "ds-hash-base",
            Structure::Hash,
            Protection::Baseline,
        )),
    ]
}

/// Ops durably past their effects when the crash fired at `site`: the
/// `PH_DS_COMMIT` poll sits after the op's completion record, every other
/// phase mid-op.
fn applied_at(site: CrashSite) -> u64 {
    if site.phase == PH_DS_COMMIT {
        site.index
    } else {
        site.index - 1
    }
}

impl DsScenario {
    fn new(name: &'static str, structure: Structure, protection: Protection) -> DsScenario {
        let stream_cfg = OpStreamCfg::default();
        let cfg = match structure {
            Structure::Queue => WorkloadCfg::queue(protection, stream_cfg),
            Structure::Hash => WorkloadCfg::hash(protection, stream_cfg),
        };
        let stream = OpStream::generate(cfg.stream);
        // Setup is deterministic, so every trial re-creates the same
        // persistent layout; compute it once on a scratch system.
        let mut sys = MemorySystem::new(cfg.system());
        let layout = DsWorkload::setup(&mut sys, cfg).layout();
        let kernel = match structure {
            Structure::Queue => Kernel::Queue,
            Structure::Hash => Kernel::Hash,
        };
        let mechanism = match protection {
            Protection::Undo => Mechanism::Pmem,
            Protection::Baseline => Mechanism::Baseline,
        };
        let sites = SITE_PHASES.len() as u64 * stream.len();
        DsScenario {
            info: ScenarioInfo::new(name, kernel, mechanism, UnitSpace::new(sites, DENSE_STRIDE)),
            cfg,
            stream,
            layout,
        }
    }
}

/// What ds set-up leaves behind: the live structure handle plus the
/// sidecar per-harvest undo-log counters (the emulator cannot see the
/// pool): `logs[k]` is the log state at harvest `k`'s instant.
pub(crate) struct DsLive {
    w: DsWorkload,
    logs: Vec<LogStats>,
}

impl Workload for DsScenario {
    type Live = DsLive;
    /// Whether the completed structure matches the host oracle.
    type End = bool;
    type State = Classified;

    fn info(&self) -> &ScenarioInfo {
        &self.info
    }
    fn site_trigger(&self, unit: u64) -> CrashTrigger {
        let seq = unit / SITE_PHASES.len() as u64 + 1;
        let phase = SITE_PHASES[(unit % SITE_PHASES.len() as u64) as usize];
        CrashTrigger::AtSite {
            site: CrashSite::new(phase, seq),
            occurrence: 1,
        }
    }

    fn setup(&self, trigger: CrashTrigger) -> (CrashEmulator, DsLive) {
        let mut emu = CrashEmulator::new(self.cfg.system(), trigger);
        let w = DsWorkload::setup(emu.system_mut(), self.cfg);
        (
            emu,
            DsLive {
                w,
                logs: Vec::new(),
            },
        )
    }

    /// Apply the op stream, then audit: the audit runs before the driver
    /// closes the telemetry window, on both the trial and the batch path.
    fn forward(&self, live: &mut DsLive, emu: &mut CrashEmulator) -> RunOutcome<bool> {
        for op in self.stream.ops() {
            if let RunOutcome::Crashed(image) = live.w.apply_op(emu, op, Some(&mut live.logs)) {
                return RunOutcome::Crashed(image);
            }
        }
        RunOutcome::Completed(live.w.completed_matches(emu, &self.stream))
    }

    fn recover(
        &self,
        _live: &DsLive,
        site: CrashSite,
        image: &NvmImage,
        profile: Option<ExecutionProfile>,
    ) -> Classified {
        let r = recover_verify_resume(
            self.cfg,
            self.layout,
            self.cfg.system(),
            image,
            &self.stream,
        );
        let lost = applied_at(site).saturating_sub(r.resume_from);
        let profile = profile.map(|p| p.with_ds_ops(r.resume_from, r.replayed));
        Classified::new(r.detected, r.matches, lost, r.sim_time_ps, profile)
    }

    fn complete(
        &self,
        _live: &DsLive,
        matches: bool,
        _emu: &CrashEmulator,
        profile: Option<ExecutionProfile>,
    ) -> Trial {
        let profile = profile.map(|p| p.with_ds_ops(self.stream.len(), 0));
        verified_completion(matches, 0, profile)
    }

    fn log_stats(&self, live: &DsLive, harvest: Option<usize>) -> Option<LogStats> {
        Some(harvest.map_or_else(|| live.w.log_stats(), |k| live.logs[k]))
    }

    /// Declared protocol regions for the persist-order analyzer: the
    /// workload's persistent-heap roots as named ranges with roles,
    /// ordering groups, and per-mechanism check sets.
    ///
    /// Group 0 ties the undo pool's state line (`Role::Publish` — the
    /// IDLE/ACTIVE flag recovery trusts) to the structure lines its
    /// transactions snapshot; allocator metadata, watermark, and op table
    /// persist under their own protocols, so they get their own groups
    /// (no cross-protocol race claims). The baseline mechanism defers
    /// structure persistence to epoch syncs, so lines are legitimately
    /// dirty between syncs and at the end of the stream — its check set
    /// keeps only `missing_fence` (an unfenced flush is a bug under
    /// either mechanism). Both mechanisms re-flush watermark lines across
    /// sync boundaries, so `redundant_flush` stays off (the directed
    /// mutant tests in `crates/ds/tests/analyzer_mutants.rs` cover that
    /// category instead).
    fn regions(&self) -> Vec<Region> {
        let checks = match self.info.mechanism {
            Mechanism::Pmem => Checks {
                redundant_flush: false,
                ..Checks::ALL
            },
            _ => Checks {
                missing_fence: true,
                ..Checks::NONE
            },
        };
        let l = &self.layout;
        let region = |name: &str, addr: u64, len: usize, role: Role, group: u32| {
            Region::from_range(name, addr, len, role, group, checks)
        };
        let mut regions = match self.info.kernel {
            Kernel::Queue => vec![region(
                "ds/queue-ctrl",
                l.queue_ctrl,
                2 * LINE_SIZE,
                Role::Payload,
                0,
            )],
            _ => vec![
                region("ds/hash-table", l.hash_table, LINE_SIZE, Role::Payload, 0),
                region("ds/hash-count", l.hash_count, LINE_SIZE, Role::Payload, 0),
            ],
        };
        regions.push(region(
            "ds/alloc-head",
            l.alloc.head_base,
            LINE_SIZE,
            Role::Payload,
            1,
        ));
        regions.push(region(
            "ds/alloc-next",
            l.alloc.next_base,
            (l.alloc.blocks * 8) as usize,
            Role::Payload,
            1,
        ));
        regions.push(region(
            "ds/watermark",
            l.ckpt_base,
            2 * LINE_SIZE,
            Role::Payload,
            2,
        ));
        regions.push(region(
            "ds/op-table",
            l.optable_base,
            LINE_SIZE,
            Role::Payload,
            3,
        ));
        if let Some(undo) = &l.undo {
            regions.push(region(
                "ds/undo-state",
                undo.state_addr,
                8,
                Role::Publish,
                0,
            ));
        }
        regions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memstats::ImageMemory;
    use crate::outcome::Outcome;

    #[test]
    fn site_units_tile_ops_by_phase() {
        let s = DsScenario::new("ds-queue-undo", Structure::Queue, Protection::Undo);
        assert_eq!(s.total_units(), 3 * s.stream.len());
        let CrashTrigger::AtSite { site, occurrence } = Scenario::site_trigger(&s, 0) else {
            panic!("site-grain units use AtSite");
        };
        assert_eq!((site.phase, site.index, occurrence), (PH_DS_PREP, 1, 1));
        let CrashTrigger::AtSite { site, .. } = Scenario::site_trigger(&s, 5) else {
            panic!("site-grain units use AtSite");
        };
        assert_eq!((site.phase, site.index), (PH_DS_COMMIT, 2));
    }

    #[test]
    fn undo_mut_crash_is_detected_and_commit_crash_is_exact() {
        let s = DsScenario::new("ds-queue-undo", Structure::Queue, Protection::Undo);
        // Unit 3*9+1: op 10, PH_DS_MUT — mid-mutation, active transaction.
        let t = s.run_trial(28, false);
        assert_eq!(t.outcome, Outcome::DetectedDirty);
        // Unit 3*9+2: op 10, PH_DS_COMMIT — post-commit, nothing lost.
        let t = s.run_trial(29, false);
        assert_eq!(t.outcome, Outcome::RecoveredExact);
        assert_eq!(t.lost_units, 0);
    }

    #[test]
    fn baseline_trials_never_corrupt_silently() {
        let s = DsScenario::new("ds-hash-base", Structure::Hash, Protection::Baseline);
        for unit in [1, 40, 101, 260] {
            let t = s.run_trial(unit, false);
            assert_ne!(t.outcome, Outcome::SilentCorruption, "unit {unit}: {t:?}");
        }
    }

    #[test]
    fn batch_matches_per_trial_with_telemetry() {
        let s = DsScenario::new("ds-queue-undo", Structure::Queue, Protection::Undo);
        let units: Vec<u64> = vec![4, 28, 29, 100, 3 * 160 + 2];
        let mem = ImageMemory::default();
        let batch = s.run_batch(&units, true, &mem).unwrap();
        for (u, b) in units.iter().zip(&batch) {
            let t = s.run_trial(*u, true);
            assert_eq!(t.outcome, b.outcome, "unit {u}");
            assert_eq!(t.lost_units, b.lost_units, "unit {u}");
            assert_eq!(t.sim_time_ps, b.sim_time_ps, "unit {u}");
            assert_eq!(t.telemetry, b.telemetry, "unit {u}");
        }
    }

    #[test]
    fn images_hold_kilobytes_of_the_mebibyte_pool() {
        let s = DsScenario::new("ds-queue-undo", Structure::Queue, Protection::Undo);
        let pool = super::super::harness::assert_images_hold_only_the_written_prefix(&s, 16 << 10);
        assert_eq!(pool, 1 << 20);
    }
}
