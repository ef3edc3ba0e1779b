//! Checksum-LU scenarios: ABFT-checksum algorithm extension and per-block
//! checkpoint.

use std::sync::Arc;

use adcc_ckpt::manager::CkptManager;
use adcc_core::lu::{dominant_matrix, lu_host, sites, ChecksumLu, LuBlockStatus};
use adcc_core::DirtyRestart;
use adcc_linalg::Matrix;
use adcc_resilience::Tolerance;
use adcc_sim::crash::{CrashEmulator, CrashSite, CrashTrigger, RunOutcome};
use adcc_sim::image::NvmImage;
use adcc_sim::system::{MemorySystem, SystemConfig};
use adcc_telemetry::ExecutionProfile;

use super::harness::{Classified, Workload};
use super::{trim_dram, verified_completion};
use crate::scenario::{Kernel, Mechanism, Trial, UnitSpace};

const N: usize = 32;
const BK: usize = 4;
const TOL: f64 = 1e-8;
const PROBLEM_SEED: u64 = 304;
/// Access-count spacing of dense crash points (one full factorization
/// issues ~37-39k element accesses; a 4-access stride carries ~9.5k
/// points).
const DENSE_STRIDE: u64 = 4;

/// The matrix both LU scenarios factor, with its host factor.
pub(crate) struct Factored {
    a: Matrix,
    reference: Matrix,
}

pub(crate) fn problem() -> Arc<Factored> {
    let a = dominant_matrix(N, PROBLEM_SEED);
    let reference = lu_host(&a);
    Arc::new(Factored { a, reference })
}

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
pub(crate) struct LuExtended(pub(crate) Arc<Factored>);

impl Workload for LuExtended {
    type Live = ChecksumLu;
    type End = ();
    type State = Classified;

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

    fn setup(&self, trigger: CrashTrigger) -> (CrashEmulator, ChecksumLu) {
        let mut sys = MemorySystem::new(config());
        let lu = ChecksumLu::setup(&mut sys, &self.0.a, BK);
        (CrashEmulator::from_system(sys, trigger), lu)
    }

    fn forward(&self, lu: &mut ChecksumLu, emu: &mut CrashEmulator) -> RunOutcome<()> {
        lu.run(emu, 0)
    }

    fn recover(
        &self,
        lu: &ChecksumLu,
        _site: CrashSite,
        image: &NvmImage,
        profile: Option<ExecutionProfile>,
    ) -> Classified {
        let rec = lu.recover_and_resume(image, config());
        let matches = factor_matches(&rec.factor, &self.0.reference);
        let detected = rec.statuses.contains(&LuBlockStatus::Inconsistent);
        Classified::from_report(detected, matches, &rec.report, profile)
    }

    fn complete(
        &self,
        lu: &ChecksumLu,
        (): (),
        emu: &CrashEmulator,
        profile: Option<ExecutionProfile>,
    ) -> Trial {
        let factor = lu.peek_factor(emu);
        verified_completion(factor_matches(&factor, &self.0.reference), 0, profile)
    }

    fn dirty_reference(&self) -> Option<(Tolerance, Vec<f64>)> {
        Some((dirty_tolerance(), flat_factor(&self.0.reference)))
    }

    fn dirty_restart(&self, lu: &ChecksumLu, image: &NvmImage) -> DirtyRestart {
        lu.dirty_restart(image, config())
    }
}

// ---------------------------------------------------------------------
// lu-ckpt
// ---------------------------------------------------------------------

/// Plain blocked LU with a full-factor checkpoint after every block.
pub(crate) struct LuCkpt(pub(crate) Arc<Factored>);

impl LuCkpt {
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
}

impl Workload for LuCkpt {
    type Live = (ChecksumLu, CkptManager);
    type End = ();
    type State = Classified;

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

    fn setup(&self, trigger: CrashTrigger) -> (CrashEmulator, Self::Live) {
        let mut sys = MemorySystem::new(config());
        let lu = ChecksumLu::setup(&mut sys, &self.0.a, BK);
        let regions = adcc_core::lu::variants::lu_ckpt_regions(&lu);
        let mgr = CkptManager::new_nvm(&mut sys, regions, false);
        (CrashEmulator::from_system(sys, trigger), (lu, mgr))
    }

    fn forward(&self, (lu, mgr): &mut Self::Live, emu: &mut CrashEmulator) -> RunOutcome<()> {
        adcc_core::lu::variants::run_with_ckpt(emu, lu, mgr)
    }

    fn recover(
        &self,
        (lu, mgr): &Self::Live,
        site: CrashSite,
        image: &NvmImage,
        profile: Option<ExecutionProfile>,
    ) -> Classified {
        let sys2 = MemorySystem::from_image(config(), image);
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
        let lost = (Self::crashed_block(site) + 1).saturating_sub(start as u64);
        let matches = factor_matches(&lu.peek_factor(&emu2), &self.0.reference);
        Classified::new(!restored, matches, lost, sim_time_ps, profile)
    }

    fn complete(
        &self,
        (lu, _): &Self::Live,
        (): (),
        emu: &CrashEmulator,
        profile: Option<ExecutionProfile>,
    ) -> Trial {
        let factor = lu.peek_factor(emu);
        verified_completion(factor_matches(&factor, &self.0.reference), 0, profile)
    }

    fn dirty_reference(&self) -> Option<(Tolerance, Vec<f64>)> {
        Some((dirty_tolerance(), flat_factor(&self.0.reference)))
    }

    fn dirty_restart(&self, (lu, _): &Self::Live, image: &NvmImage) -> DirtyRestart {
        lu.dirty_restart(image, config())
    }
}
