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

use std::cell::RefCell;

use adcc_analyze::{analyze, Checks, Region, Role};
use adcc_ds::sites::{PH_DS_COMMIT, PH_DS_MUT, PH_DS_PREP};
use adcc_ds::{
    recover_verify_resume, DsLayout, OpStream, OpStreamCfg, Protection, Structure, Workload,
    WorkloadCfg,
};
use adcc_pmem::LogStats;
use adcc_sim::crash::{CrashEmulator, CrashSite, CrashTrigger, RunOutcome};
use adcc_sim::events::EventRecorder;
use adcc_sim::image::NvmImage;
use adcc_sim::line::LINE_SIZE;
use adcc_sim::system::MemorySystem;
use adcc_telemetry::{ExecutionProfile, Probe};

use super::harness::{self, Classified};
use super::verified_completion;
use crate::memstats::ImageMemory;
use crate::outcome::classify;
use crate::scenario::{
    AnalyzedBatch, AnalyzedTrial, Kernel, Mechanism, Scenario, Trial, UnitSpace,
};

/// The three always-polled phases of one op, in poll order.
const SITE_PHASES: [u32; 3] = [PH_DS_PREP, PH_DS_MUT, PH_DS_COMMIT];

/// ~230 accesses per op under the default stream; stride 200 lands the
/// dense tail roughly one crash point per op, phase-shifted from the
/// site grain (so allocator windows are reachable).
const DENSE_STRIDE: u64 = 200;

/// One ds structure × protection pair.
pub(crate) struct DsScenario {
    name: &'static str,
    kernel: Kernel,
    mechanism: Mechanism,
    cfg: WorkloadCfg,
    stream: OpStream,
    layout: DsLayout,
}

/// Every ds scenario, in report order.
pub(super) fn all() -> Vec<Box<dyn Scenario>> {
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
        let layout = Workload::setup(&mut sys, cfg).layout();
        DsScenario {
            name,
            kernel: match structure {
                Structure::Queue => Kernel::Queue,
                Structure::Hash => Kernel::Hash,
            },
            mechanism: match protection {
                Protection::Undo => Mechanism::Pmem,
                Protection::Baseline => Mechanism::Baseline,
            },
            cfg,
            stream,
            layout,
        }
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
    fn protocol_regions(&self) -> Vec<Region> {
        let checks = match self.mechanism {
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
        let mut regions = match self.kernel {
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

    /// Recover one crash image and classify — shared by both paths.
    fn crash_trial(
        &self,
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
        Classified {
            outcome: classify(r.detected, r.matches, lost),
            lost_units: lost,
            sim_time_ps: r.sim_time_ps,
            telemetry: profile,
        }
    }
}

impl Scenario for DsScenario {
    fn name(&self) -> &'static str {
        self.name
    }
    fn kernel(&self) -> Kernel {
        self.kernel
    }
    fn mechanism(&self) -> Mechanism {
        self.mechanism
    }
    fn unit_space(&self) -> UnitSpace {
        UnitSpace::new(SITE_PHASES.len() as u64 * self.stream.len(), DENSE_STRIDE)
    }

    fn site_trigger(&self, unit: u64) -> CrashTrigger {
        let seq = unit / SITE_PHASES.len() as u64 + 1;
        let phase = SITE_PHASES[(unit % SITE_PHASES.len() as u64) as usize];
        CrashTrigger::AtSite {
            site: CrashSite::new(phase, seq),
            occurrence: 1,
        }
    }

    fn run_trial(&self, unit: u64, telemetry: bool) -> Trial {
        let mut emu = CrashEmulator::new(self.cfg.system(), self.trigger_of(unit));
        let mut w = Workload::setup(emu.system_mut(), self.cfg);
        let probe = telemetry.then(|| Probe::attach(&emu));
        let mut crash: Option<NvmImage> = None;
        for op in self.stream.ops() {
            if let RunOutcome::Crashed(image) = w.apply_op(&mut emu, op, None) {
                crash = Some(image);
                break;
            }
        }
        let Some(image) = crash else {
            // Audit before finishing the probe, mirroring the batch path
            // (whose completion profile is measured after its audit too).
            let matches = w.completed_matches(&mut emu, &self.stream);
            let profile = probe.map(|p| {
                p.finish(&emu)
                    .with_log(w.log_stats())
                    .with_ds_ops(self.stream.len(), 0)
            });
            return verified_completion(matches, unit, profile);
        };
        let profile = probe.map(|p| p.finish(&emu).with_image(&image).with_log(w.log_stats()));
        let site = emu.fired_site().expect("crashed");
        self.crash_trial(site, &image, profile).for_unit(unit)
    }

    fn run_batch(&self, units: &[u64], telemetry: bool, mem: &ImageMemory) -> Option<Vec<Trial>> {
        let mut emu = CrashEmulator::new(self.cfg.system(), CrashTrigger::Never);
        let w = RefCell::new(Workload::setup(emu.system_mut(), self.cfg));
        // Sidecar per-harvest undo-log counters (the emulator cannot see
        // the pool): `logs[k]` is the log state at harvest `k`'s instant.
        let logs: RefCell<Vec<LogStats>> = RefCell::new(Vec::new());
        Some(harness::run_harvested(
            units,
            telemetry,
            mem,
            emu,
            |u| self.trigger_of(u),
            |e| {
                let mut w = w.borrow_mut();
                let mut logs = logs.borrow_mut();
                for op in self.stream.ops() {
                    match w.apply_op(e, op, Some(&mut logs)) {
                        RunOutcome::Completed(()) => {}
                        RunOutcome::Crashed(_) => unreachable!("Never trigger"),
                    }
                }
                w.completed_matches(e, &self.stream)
            },
            |k, site, image, profile| {
                let profile = profile.map(|p| p.with_log(logs.borrow()[k]));
                self.crash_trial(site, image, profile)
            },
            Classified::for_unit,
            |matches, _e, profile| {
                let w = w.borrow();
                let profile =
                    profile.map(|p| p.with_log(w.log_stats()).with_ds_ops(self.stream.len(), 0));
                verified_completion(matches, 0, profile)
            },
        ))
    }

    fn run_analyzed(&self, units: &[u64], mem: &ImageMemory) -> Option<AnalyzedBatch> {
        let mut emu = CrashEmulator::new(self.cfg.system(), CrashTrigger::Never);
        let w = RefCell::new(Workload::setup(emu.system_mut(), self.cfg));
        // Attach the recorder only after setup: the protocol under
        // analysis starts at the op stream, not at heap construction.
        let regions = self.protocol_regions();
        let mut rec = EventRecorder::new();
        for r in &regions {
            rec.track_range(
                r.first_line << adcc_sim::line::LINE_SHIFT,
                r.line_count as usize * LINE_SIZE,
            );
        }
        emu.system_mut().attach_recorder(rec);
        let trials = harness::run_harvested_ref(
            units,
            false,
            mem,
            &mut emu,
            |u| self.trigger_of(u),
            |e| {
                let mut w = w.borrow_mut();
                for op in self.stream.ops() {
                    match w.apply_op(e, op, None) {
                        RunOutcome::Completed(()) => {}
                        RunOutcome::Crashed(_) => unreachable!("Never trigger"),
                    }
                }
                w.completed_matches(e, &self.stream)
            },
            |_k, site, image, _profile| self.crash_trial(site, image, None),
            Classified::for_unit,
            |matches, _e, _profile| verified_completion(matches, 0, None),
        );
        let rec = emu.system_mut().take_recorder().expect("recorder attached");
        let analysis = analyze(rec.events(), &regions);
        let trials = trials
            .into_iter()
            .map(|trial| AnalyzedTrial {
                facts: analysis
                    .at_crashes
                    .get(&trial.unit)
                    .cloned()
                    .unwrap_or_default(),
                trial,
            })
            .collect();
        Some(AnalyzedBatch {
            trials,
            protocol: analysis.protocol,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::Outcome;

    #[test]
    fn site_units_tile_ops_by_phase() {
        let s = DsScenario::new("ds-queue-undo", Structure::Queue, Protection::Undo);
        assert_eq!(s.total_units(), 3 * s.stream.len());
        let CrashTrigger::AtSite { site, occurrence } = s.site_trigger(0) else {
            panic!("site-grain units use AtSite");
        };
        assert_eq!((site.phase, site.index, occurrence), (PH_DS_PREP, 1, 1));
        let CrashTrigger::AtSite { site, .. } = s.site_trigger(5) else {
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
}
