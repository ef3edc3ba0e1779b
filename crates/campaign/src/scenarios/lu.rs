//! Checksum-LU scenarios: ABFT-checksum algorithm extension and per-block
//! checkpoint.

use std::cell::RefCell;

use adcc_ckpt::manager::CkptManager;
use adcc_core::lu::{dominant_matrix, lu_host, sites, ChecksumLu, LuBlockStatus};
use adcc_linalg::Matrix;
use adcc_sim::crash::{CrashEmulator, CrashSite, CrashTrigger, RunOutcome};
use adcc_sim::image::NvmImage;
use adcc_sim::system::{MemorySystem, SystemConfig};
use adcc_telemetry::{ExecutionProfile, Probe};

use adcc_resilience::Tolerance;

use super::harness::{self, Classified};
use super::{trim_dram, verified_completion};
use crate::memstats::ImageMemory;
use crate::outcome::classify;
use crate::scenario::{Kernel, Mechanism, ResilienceBatch, Scenario, Trial, UnitSpace};

const N: usize = 32;
const BK: usize = 4;
const TOL: f64 = 1e-8;
const PROBLEM_SEED: u64 = 304;
/// Access-count spacing of dense crash points (one full factorization
/// issues ~37-39k element accesses; a 4-access stride carries ~9.5k
/// points).
const DENSE_STRIDE: u64 = 4;

fn config() -> SystemConfig {
    let cap = 2 * N * (N + 1) * 8 + N * 8 + (2 << 20);
    trim_dram(SystemConfig::nvm_only(8 << 10, cap))
}

fn blocks() -> u64 {
    N.div_ceil(BK) as u64
}

/// Dirty-restart residual tolerance. Elimination has no damping at all —
/// a torn column poisons every later column it eliminates into — so a
/// dirty factorization either survived bitwise-consistent state (exact)
/// or is garbage; the `acceptable` band is correspondingly razor thin.
fn dirty_tolerance() -> Tolerance {
    Tolerance::new(TOL, 1e-6, 1e6)
}

/// Row-major flattening of the reference factor, the layout
/// [`ChecksumLu::dirty_restart`] reports its answer in.
fn flat_factor(m: &Matrix) -> Vec<f64> {
    let mut out = Vec::with_capacity(N * N);
    for i in 0..N {
        for j in 0..N {
            out.push(m.get(i, j));
        }
    }
    out
}

/// NaN-aware factor comparison (`Matrix::max_abs_diff` folds with
/// `f64::max`, which would silently swallow NaN entries).
fn factor_matches(got: &Matrix, want: &Matrix) -> bool {
    let mut max = 0.0f64;
    for i in 0..want.rows() {
        for j in 0..want.cols() {
            let d = (got.get(i, j) - want.get(i, j)).abs();
            if !d.is_finite() {
                return false;
            }
            max = max.max(d);
        }
    }
    max < TOL
}

fn lu_site_trigger(unit: u64) -> CrashTrigger {
    if unit < N as u64 {
        CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_AFTER_COL, unit),
            occurrence: 1,
        }
    } else {
        CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_BLOCK_END, unit - N as u64),
            occurrence: 1,
        }
    }
}

// ---------------------------------------------------------------------
// lu-extended
// ---------------------------------------------------------------------

/// Checksum-LU with per-block verification and selective refactoring.
/// Units below `N` crash after a column; the rest crash at block
/// boundaries (after the block's checksums persisted).
pub struct LuExtended {
    a: Matrix,
    reference: Matrix,
}

impl LuExtended {
    pub fn new() -> Self {
        let a = dominant_matrix(N, PROBLEM_SEED);
        let reference = lu_host(&a);
        LuExtended { a, reference }
    }

    fn crash_trial(
        &self,
        lu: &ChecksumLu,
        cfg: SystemConfig,
        image: &NvmImage,
        profile: Option<ExecutionProfile>,
    ) -> Classified {
        let rec = lu.recover_and_resume(image, cfg);
        let matches = factor_matches(&rec.factor, &self.reference);
        let detected = rec.statuses.contains(&LuBlockStatus::Inconsistent);
        Classified {
            outcome: classify(detected, matches, rec.report.lost_units),
            lost_units: rec.report.lost_units,
            sim_time_ps: rec.report.total().ps(),
            telemetry: profile,
        }
    }
}

impl Default for LuExtended {
    fn default() -> Self {
        Self::new()
    }
}

impl Scenario for LuExtended {
    fn name(&self) -> &'static str {
        "lu-extended"
    }
    fn kernel(&self) -> Kernel {
        Kernel::Lu
    }
    fn mechanism(&self) -> Mechanism {
        Mechanism::Extended
    }
    fn unit_space(&self) -> UnitSpace {
        UnitSpace::new(N as u64 + blocks(), DENSE_STRIDE)
    }

    fn site_trigger(&self, unit: u64) -> CrashTrigger {
        lu_site_trigger(unit)
    }

    fn run_trial(&self, unit: u64, telemetry: bool) -> Trial {
        let cfg = config();
        let mut sys = MemorySystem::new(cfg.clone());
        let lu = ChecksumLu::setup(&mut sys, &self.a, BK);
        let mut emu = CrashEmulator::from_system(sys, self.trigger_of(unit));
        let probe = telemetry.then(|| Probe::attach(&emu));
        match lu.run(&mut emu, 0) {
            RunOutcome::Completed(()) => {
                let profile = probe.map(|p| p.finish(&emu));
                let factor = lu.peek_factor(&emu);
                verified_completion(factor_matches(&factor, &self.reference), unit, profile)
            }
            RunOutcome::Crashed(image) => {
                let profile = probe.map(|p| p.finish(&emu).with_image(&image));
                self.crash_trial(&lu, cfg, &image, profile).for_unit(unit)
            }
        }
    }

    fn run_batch(&self, units: &[u64], telemetry: bool, mem: &ImageMemory) -> Option<Vec<Trial>> {
        let cfg = config();
        let mut sys = MemorySystem::new(cfg.clone());
        let lu = ChecksumLu::setup(&mut sys, &self.a, BK);
        let emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        Some(harness::run_harvested(
            units,
            telemetry,
            mem,
            emu,
            |u| self.trigger_of(u),
            |e| {
                lu.run(e, 0).completed().expect("Never trigger completes");
            },
            |_k, _site, image, profile| self.crash_trial(&lu, cfg.clone(), image, profile),
            Classified::for_unit,
            |(), e, profile| {
                let factor = lu.peek_factor(e);
                verified_completion(factor_matches(&factor, &self.reference), 0, profile)
            },
        ))
    }

    fn run_resilience(&self, units: &[u64], mem: &ImageMemory) -> Option<ResilienceBatch> {
        let cfg = config();
        let mut sys = MemorySystem::new(cfg.clone());
        let lu = ChecksumLu::setup(&mut sys, &self.a, BK);
        let emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        let want = flat_factor(&self.reference);
        let tolerance = dirty_tolerance();
        let trials = harness::run_dirty(
            units,
            mem,
            emu,
            |u| self.trigger_of(u),
            |e| {
                lu.run(e, 0).completed().expect("Never trigger completes");
            },
            |image| {
                let d = lu.dirty_restart(image, cfg.clone());
                harness::classify_dirty(&d, &want, &tolerance)
            },
        );
        Some(ResilienceBatch { trials, tolerance })
    }
}

// ---------------------------------------------------------------------
// lu-ckpt
// ---------------------------------------------------------------------

/// Plain blocked LU with a full-factor checkpoint after every block.
pub struct LuCkpt {
    a: Matrix,
    reference: Matrix,
}

impl LuCkpt {
    pub fn new() -> Self {
        let a = dominant_matrix(N, PROBLEM_SEED);
        let reference = lu_host(&a);
        LuCkpt { a, reference }
    }

    /// The block a crash at `site` abandons: column crashes land in the
    /// column's block (`PH_AFTER_COL`), block-end crashes right after the
    /// block's checkpoint (`PH_BLOCK_END`).
    fn crashed_block(site: CrashSite) -> u64 {
        if site.phase == sites::PH_AFTER_COL {
            site.index / BK as u64
        } else {
            site.index
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn crash_trial(
        &self,
        lu: &ChecksumLu,
        mgr: &mut CkptManager,
        cfg: SystemConfig,
        crashed_block: u64,
        image: &NvmImage,
        profile: Option<ExecutionProfile>,
    ) -> Classified {
        let sys2 = MemorySystem::from_image(cfg, image);
        let mut emu2 = CrashEmulator::from_system(sys2, CrashTrigger::Never);
        let t0 = emu2.now();
        let (start, restored) = adcc_core::lu::variants::ckpt_restore(&mut emu2, lu, mgr);
        for b in start..blocks() as usize {
            for c in b * BK..((b + 1) * BK).min(N) {
                lu.process_column(&mut emu2, c);
            }
        }
        let sim_time_ps = (emu2.now() - t0).ps();

        // Column crashes abandon the in-flight block; block-end crashes
        // land right after the checkpoint.
        let lost = (crashed_block + 1).saturating_sub(start as u64);
        let matches = factor_matches(&lu.peek_factor(&emu2), &self.reference);
        Classified {
            outcome: classify(!restored, matches, lost),
            lost_units: lost,
            sim_time_ps,
            telemetry: profile,
        }
    }
}

impl Default for LuCkpt {
    fn default() -> Self {
        Self::new()
    }
}

impl Scenario for LuCkpt {
    fn name(&self) -> &'static str {
        "lu-ckpt"
    }
    fn kernel(&self) -> Kernel {
        Kernel::Lu
    }
    fn mechanism(&self) -> Mechanism {
        Mechanism::Checkpoint
    }
    fn unit_space(&self) -> UnitSpace {
        UnitSpace::new(N as u64 + blocks(), DENSE_STRIDE)
    }

    fn site_trigger(&self, unit: u64) -> CrashTrigger {
        lu_site_trigger(unit)
    }

    fn run_trial(&self, unit: u64, telemetry: bool) -> Trial {
        let cfg = config();
        let mut sys = MemorySystem::new(cfg.clone());
        let lu = ChecksumLu::setup(&mut sys, &self.a, BK);
        let regions = adcc_core::lu::variants::lu_ckpt_regions(&lu);
        let mut mgr = CkptManager::new_nvm(&mut sys, regions, false);
        let mut emu = CrashEmulator::from_system(sys, self.trigger_of(unit));
        let probe = telemetry.then(|| Probe::attach(&emu));
        let image = match adcc_core::lu::variants::run_with_ckpt(&mut emu, &lu, &mut mgr) {
            RunOutcome::Completed(()) => {
                let profile = probe.map(|p| p.finish(&emu));
                let factor = lu.peek_factor(&emu);
                return verified_completion(
                    factor_matches(&factor, &self.reference),
                    unit,
                    profile,
                );
            }
            RunOutcome::Crashed(image) => image,
        };
        let profile = probe.map(|p| p.finish(&emu).with_image(&image));
        let crashed = Self::crashed_block(emu.fired_site().expect("crashed"));
        self.crash_trial(&lu, &mut mgr, cfg, crashed, &image, profile)
            .for_unit(unit)
    }

    fn run_batch(&self, units: &[u64], telemetry: bool, mem: &ImageMemory) -> Option<Vec<Trial>> {
        let cfg = config();
        let mut sys = MemorySystem::new(cfg.clone());
        let lu = ChecksumLu::setup(&mut sys, &self.a, BK);
        let regions = adcc_core::lu::variants::lu_ckpt_regions(&lu);
        let mgr = RefCell::new(CkptManager::new_nvm(&mut sys, regions, false));
        let emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        Some(harness::run_harvested(
            units,
            telemetry,
            mem,
            emu,
            |u| self.trigger_of(u),
            |e| {
                adcc_core::lu::variants::run_with_ckpt(e, &lu, &mut mgr.borrow_mut())
                    .completed()
                    .expect("Never trigger completes");
            },
            |_k, site, image, profile| {
                self.crash_trial(
                    &lu,
                    &mut mgr.borrow_mut(),
                    cfg.clone(),
                    Self::crashed_block(site),
                    image,
                    profile,
                )
            },
            Classified::for_unit,
            |(), e, profile| {
                let factor = lu.peek_factor(e);
                verified_completion(factor_matches(&factor, &self.reference), 0, profile)
            },
        ))
    }

    fn run_resilience(&self, units: &[u64], mem: &ImageMemory) -> Option<ResilienceBatch> {
        let cfg = config();
        let mut sys = MemorySystem::new(cfg.clone());
        let lu = ChecksumLu::setup(&mut sys, &self.a, BK);
        let regions = adcc_core::lu::variants::lu_ckpt_regions(&lu);
        let mgr = RefCell::new(CkptManager::new_nvm(&mut sys, regions, false));
        let emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        let want = flat_factor(&self.reference);
        let tolerance = dirty_tolerance();
        let trials = harness::run_dirty(
            units,
            mem,
            emu,
            |u| self.trigger_of(u),
            |e| {
                adcc_core::lu::variants::run_with_ckpt(e, &lu, &mut mgr.borrow_mut())
                    .completed()
                    .expect("Never trigger completes");
            },
            |image| {
                let d = lu.dirty_restart(image, cfg.clone());
                harness::classify_dirty(&d, &want, &tolerance)
            },
        );
        Some(ResilienceBatch { trials, tolerance })
    }
}
