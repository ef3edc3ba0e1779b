//! Checksum-LU scenarios: ABFT-checksum algorithm extension and per-block
//! checkpoint.

use std::sync::Arc;

use adcc_core::lu::{dominant_matrix, lu_host, sites, ChecksumLu, LuBlockStatus};
use adcc_core::DirtyRestart;
use adcc_linalg::vecops::max_diff;
use adcc_linalg::Matrix;
use adcc_resilience::Tolerance;
use adcc_sim::crash::{CrashEmulator, CrashSite, CrashTrigger, RunOutcome};
use adcc_sim::image::NvmImage;
use adcc_sim::system::{MemorySystem, SystemConfig};
use adcc_telemetry::ExecutionProfile;

use super::baseline::Checkpointed;
use super::harness::{Classified, Workload};
use super::{trim_dram, verified_completion};
use crate::scenario::{Kernel, Mechanism, ScenarioInfo, Trial, UnitSpace};

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

/// A crash point after every column, then one at every block's end.
const UNIT_SPACE: UnitSpace = UnitSpace::new((N + N.div_ceil(BK)) as u64, DENSE_STRIDE);

/// Dirty-restart residual tolerance. Elimination has no damping at all —
/// a torn column poisons every later column it eliminates into — so a
/// dirty factorization either survived bitwise-consistent state (exact)
/// or is garbage; the `acceptable` band is correspondingly razor thin.
fn dirty_tolerance() -> Tolerance {
    Tolerance::new(TOL, 1e-6, 1e6)
}

/// Factor comparison over the row-major data, the layout
/// [`ChecksumLu::dirty_restart`] reports its answer in (`max_diff` is
/// NaN-aware; `Matrix::max_abs_diff` folds with `f64::max`, which would
/// silently swallow NaN entries).
fn factor_matches(got: &Matrix, want: &Matrix) -> bool {
    max_diff(got.data(), want.data()) < TOL
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

    fn info(&self) -> &ScenarioInfo {
        const INFO: ScenarioInfo =
            ScenarioInfo::new("lu-extended", Kernel::Lu, Mechanism::Extended, UNIT_SPACE);
        &INFO
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
        Some((dirty_tolerance(), self.0.reference.data().to_vec()))
    }

    fn dirty_restart(&self, lu: &ChecksumLu, image: &NvmImage) -> DirtyRestart {
        lu.dirty_restart(image, config())
    }
}

// ---------------------------------------------------------------------
// lu-ckpt
// ---------------------------------------------------------------------

/// Plain blocked LU with a full-factor checkpoint after every block.
pub(crate) fn ckpt(p: &Arc<Factored>) -> impl Workload {
    let p = p.clone();
    Checkpointed {
        info: ScenarioInfo::new("lu-ckpt", Kernel::Lu, Mechanism::Checkpoint, UNIT_SPACE),
        site_trigger: lu_site_trigger,
        config: config(),
        tol: TOL,
        dirty_tolerance: dirty_tolerance(),
        reference: p.reference.data().into(),
        setup: move |sys: &mut MemorySystem| (ChecksumLu::setup(sys, &p.a, BK), ()),
        lost_units: lost_blocks,
        // LU re-enters its block loop the way its extended run does.
        dirty_restart: |lu: &ChecksumLu, image, cfg, ()| lu.dirty_restart(image, cfg),
    }
}

/// Column crashes (`PH_AFTER_COL`) abandon the column's in-flight block;
/// block-end crashes (`PH_BLOCK_END`) land right after its checkpoint.
fn lost_blocks(_unit: u64, site: CrashSite, start: usize) -> u64 {
    let crashed = if site.phase == sites::PH_AFTER_COL {
        site.index / BK as u64
    } else {
        site.index
    };
    (crashed + 1).saturating_sub(start as u64)
}
