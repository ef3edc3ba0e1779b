//! Checksum-LU scenarios: ABFT-checksum algorithm extension and per-block
//! checkpoint.

use std::sync::{Arc, OnceLock};

use adcc_core::lu::{dominant_matrix, lu_host, sites, ChecksumLu, LuBlockStatus, LuResumed};
use adcc_core::DirtyRestart;
use adcc_linalg::vecops::max_diff;
use adcc_linalg::Matrix;
use adcc_resilience::Tolerance;
use adcc_sim::crash::{CrashEmulator, CrashSite, CrashTrigger, RunOutcome};
use adcc_sim::image::NvmImage;
use adcc_sim::system::{MemorySystem, SystemConfig};
use adcc_telemetry::ExecutionProfile;

use super::baseline::BaselineCase;
use super::harness::{HarvestedState, Workload};
use super::iterative::pilot_pays;
use super::{once_per_process, trim_dram, verified_completion};
use crate::scenario::{Classified, Kernel, Mechanism, ScenarioInfo, UnitSpace};

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

/// The family's problem, factored once per process.
pub(crate) fn problem() -> Arc<Factored> {
    static PROBLEM: OnceLock<Arc<Factored>> = OnceLock::new();
    PROBLEM
        .get_or_init(|| {
            let a = dominant_matrix(N, PROBLEM_SEED);
            let reference = lu_host(&a);
            Arc::new(Factored { a, reference })
        })
        .clone()
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

const EXTENDED: ScenarioInfo =
    ScenarioInfo::new("lu-extended", Kernel::Lu, Mechanism::Extended, UNIT_SPACE);

impl LuExtended {
    /// The crash-free factorization on a fresh machine, `at` blocks in.
    fn crash_free(&self, at: usize) -> (ChecksumLu, CrashEmulator) {
        let mut sys = MemorySystem::new(config());
        let lu = ChecksumLu::setup(&mut sys, &self.0.a, BK);
        let emu = lu.crash_free_to(sys, at);
        (lu, emu)
    }

    /// Whether the crash-free factor matches the reference.
    fn crash_free_verdict(&self) -> bool {
        let (lu, emu) = self.crash_free(N.div_ceil(BK));
        factor_matches(&lu.peek_factor(&emu), &self.0.reference)
    }

    /// [`LuExtended::crash_free_verdict`], computed once per process, as the
    /// iterate-history scenarios' verdict is.
    fn cached_verdict(&self) -> bool {
        *once_per_process((EXTENDED.name, "crash-free verdict"), || {
            self.crash_free_verdict()
        })
    }

    /// The crash-free verdict, when `resumed` reads byte for byte as the
    /// crash-free factorization did `resumed.at` blocks in (LU carries
    /// nothing between blocks); `None` otherwise, and where the pilot would
    /// not pay.
    fn joined(&self, lu: &ChecksumLu, resumed: &LuResumed) -> Option<bool> {
        if !pilot_pays(resumed.at, lu.blocks()) {
            return None;
        }
        let (_, pilot) = self.crash_free(resumed.at);
        let joins = pilot.same_contents(&resumed.emu);
        drop(pilot);
        joins.then(|| self.cached_verdict())
    }
}

impl Workload for LuExtended {
    type Live = ChecksumLu;
    type End = ();

    fn info(&self) -> &ScenarioInfo {
        &EXTENDED
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

    /// [`Workload::recover`], booted from the owned image, with the untimed
    /// tail skipped wherever the recovery [joins](LuExtended::joined) the
    /// crash-free factorization.
    fn recover_chain(
        &self,
        lu: &ChecksumLu,
        states: &mut dyn Iterator<Item = HarvestedState>,
    ) -> Vec<Classified> {
        states
            .map(|s| {
                let resumed = lu.resume_to_crash(MemorySystem::from_owned_image(
                    config(),
                    s.image.materialize(),
                ));
                let detected = resumed.statuses.contains(&LuBlockStatus::Inconsistent);
                let report = resumed.report;
                let matches = match self.joined(lu, &resumed) {
                    Some(matches) => matches,
                    None => factor_matches(&resumed.finish(lu).factor, &self.0.reference),
                };
                Classified::from_report(detected, matches, &report, s.profile)
            })
            .collect()
    }

    fn complete(
        &self,
        lu: &ChecksumLu,
        (): (),
        emu: &CrashEmulator,
        profile: Option<ExecutionProfile>,
    ) -> Classified {
        let factor = lu.peek_factor(emu);
        verified_completion(factor_matches(&factor, &self.0.reference), profile)
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
    BaselineCase {
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
fn lost_blocks(site: CrashSite, start: usize) -> u64 {
    let crashed = if site.phase == sites::PH_AFTER_COL {
        site.index / BK as u64
    } else {
        site.index
    };
    (crashed + 1).saturating_sub(start as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::iterative::tests::{next_allocation, states, Joining};

    impl Joining for LuExtended {
        fn joins(&self, lu: &ChecksumLu, image: NvmImage) -> bool {
            let sys = MemorySystem::from_owned_image(config(), image);
            self.joined(lu, &lu.resume_to_crash(sys)).is_some()
        }
        fn fresh_verdict(&self) -> bool {
            self.crash_free_verdict()
        }
        fn next_allocations(&self) -> [(u64, u64); 2] {
            let (lu, emu) = self.crash_free(0);
            let before = next_allocation(&emu);
            let emu = lu.crash_free_to(emu.into_system(), lu.blocks());
            [before, next_allocation(&emu)]
        }
    }

    /// Every LU recovery on a clean tree is right, and every one whose
    /// pilot pays joins: so the compare is shown to refuse here, on a
    /// joining recovery whose factor is one element off, and on one whose
    /// DRAM is.
    #[test]
    fn a_recovery_one_byte_off_does_not_join() {
        let w = LuExtended(problem());
        let (lu, states) = states(&w, &(0..UNIT_SPACE.sites).collect::<Vec<_>>());
        let mut refused = 0;
        for (_, image) in states {
            let resumed =
                lu.resume_to_crash(MemorySystem::from_owned_image(config(), image.clone()));
            if w.joined(&lu, &resumed).is_none() {
                continue;
            }
            let mut in_factor = resumed;
            let col = lu.f.row(0);
            let v = col.get(&mut in_factor.emu, 0);
            col.set(&mut in_factor.emu, 0, f64::from_bits(v.to_bits() ^ 1));
            assert_eq!(w.joined(&lu, &in_factor), None, "a factor bit");
            let mut in_dram = lu.resume_to_crash(MemorySystem::from_owned_image(config(), image));
            let scratch = in_dram.emu.alloc_dram(8);
            in_dram.emu.write_bytes(scratch, &[1]);
            assert_eq!(w.joined(&lu, &in_dram), None, "a DRAM byte");
            refused += 1;
        }
        assert!(refused > 0, "no LU recovery joined");
    }
}
