//! Heat-stencil scenarios: checksum-ring algorithm extension and
//! per-sweep checkpoint (with mid-sweep access-count crash points).

use std::sync::Arc;

use adcc_core::baseline;
use adcc_core::stencil::{heat_host, sites, ExtendedStencil, PlainStencil};
use adcc_resilience::Tolerance;
use adcc_sim::crash::{CrashSite, CrashTrigger};
use adcc_sim::system::{MemorySystem, SystemConfig};

use super::baseline::{lost_since, Checkpointed};
use super::harness::Workload;
use super::iterative::Iterative;
use super::trim_dram;
use crate::scenario::{Kernel, Mechanism, ScenarioInfo, UnitSpace};

// A 24×24 grid makes one generation (4.6 KB) overflow the 4 KB CPU cache,
// so older sweeps actually reach NVM and the extension's verified-restart
// path gets exercised alongside the fall-back-to-scratch path.
const GRID: usize = 24;
const SWEEPS: usize = 10;
const WINDOW: usize = 3;
const ROW_BLOCK: usize = 4;
const TOL: f64 = 1e-9;
/// Mid-sweep crash points for the checkpoint scenario: one sweep of a
/// 24×24 grid costs ≈ 3.4k element accesses, so these land inside the run.
const ACCESS_POINTS: u64 = 6;
const ACCESS_BASE: u64 = 2_000;
const ACCESS_STRIDE: u64 = 4_500;
/// Access-count spacing of dense crash points (one full run issues
/// ~34-37k element accesses; a 4-access stride carries ~9k points).
const DENSE_STRIDE: u64 = 4;

/// Checksummed row blocks per sweep — must stay the same formula as
/// [`ExtendedStencil::blocks`] (the trigger mapping has no live object to
/// ask; set-up debug-asserts the two agree).
fn blocks() -> u64 {
    (GRID as u64 - 2).div_ceil(ROW_BLOCK as u64)
}

fn config() -> SystemConfig {
    let cap = (WINDOW + 3) * GRID * GRID * 8 + (2 << 20);
    trim_dram(SystemConfig::nvm_only(4 << 10, cap))
}

pub(crate) fn reference() -> Arc<[f64]> {
    heat_host(GRID, GRID, SWEEPS).into()
}

/// Dirty-restart residual tolerance. Diffusion is self-damping (the
/// maximum principle bounds any torn-cell perturbation and every sweep
/// shrinks it), so dirty restarts land near the reference; `acceptable`
/// reflects the damping available in the remaining sweeps.
fn dirty_tolerance() -> Tolerance {
    Tolerance::new(TOL, 1e-3, 1e3)
}

// ---------------------------------------------------------------------
// stencil-extended
// ---------------------------------------------------------------------

/// Extended stencil (generation ring + tagged block sums). Even units
/// crash at a sweep boundary, odd units inside a sweep after one of its
/// block-sum publishes.
pub(crate) fn extended(reference: &Arc<[f64]>) -> impl Workload {
    Iterative {
        info: ScenarioInfo::new(
            "stencil-extended",
            Kernel::Stencil,
            Mechanism::Extended,
            UnitSpace::new(2 * SWEEPS as u64, DENSE_STRIDE),
        ),
        site_trigger: extended_site_trigger,
        config: config(),
        tol: TOL,
        dirty_tolerance: dirty_tolerance(),
        reference: reference.clone(),
        setup: |sys: &mut MemorySystem| {
            let st = ExtendedStencil::setup(sys, GRID, GRID, SWEEPS, WINDOW, ROW_BLOCK);
            debug_assert_eq!(st.blocks() as u64, blocks(), "trigger mapping stale");
            (st, ())
        },
    }
}

fn extended_site_trigger(unit: u64) -> CrashTrigger {
    let sweep = unit / 2;
    if unit.is_multiple_of(2) {
        CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_SWEEP_END, sweep),
            occurrence: 1,
        }
    } else {
        // The (PH_AFTER_BLOCK, b) site is polled once per sweep, so
        // the occurrence count selects which sweep to crash in.
        let block = sweep % blocks();
        CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_AFTER_BLOCK, block),
            occurrence: sweep as u32 + 1,
        }
    }
}

// ---------------------------------------------------------------------
// stencil-ckpt
// ---------------------------------------------------------------------

/// Plain ping-pong stencil with a full-grid checkpoint every sweep.
/// Units below `SWEEPS` crash at sweep boundaries (right after the
/// checkpoint); the rest crash mid-sweep on an access-count trigger.
pub(crate) fn ckpt(reference: &Arc<[f64]>) -> impl Workload {
    Checkpointed {
        info: ScenarioInfo::new(
            "stencil-ckpt",
            Kernel::Stencil,
            Mechanism::Checkpoint,
            UnitSpace::new(SWEEPS as u64 + ACCESS_POINTS, DENSE_STRIDE),
        ),
        site_trigger: ckpt_site_trigger,
        config: config(),
        tol: TOL,
        dirty_tolerance: dirty_tolerance(),
        reference: reference.clone(),
        setup: |sys: &mut MemorySystem| (PlainStencil::setup(sys, GRID, GRID, SWEEPS), ()),
        lost_units: lost_sweeps,
        dirty_restart: baseline::dirty_restart,
    }
}

fn ckpt_site_trigger(unit: u64) -> CrashTrigger {
    if unit < SWEEPS as u64 {
        CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_SWEEP_END, unit),
            occurrence: 1,
        }
    } else {
        CrashTrigger::AtAccessCount(ACCESS_BASE + (unit - SWEEPS as u64) * ACCESS_STRIDE)
    }
}

/// The one per-unit charge in the registry: a legacy access-count unit
/// keeps its historical fixed charge of one abandoned sweep; sweep units
/// (and dense points, which land on the same and only polled site,
/// `PH_SWEEP_END`, and may share its crash state) are measured against
/// the restored prefix.
fn lost_sweeps(unit: u64, site: CrashSite, start: usize) -> u64 {
    if (SWEEPS as u64..SWEEPS as u64 + ACCESS_POINTS).contains(&unit) {
        1
    } else {
        lost_since(unit, site, start)
    }
}
