//! CG scenarios: algorithm-directed extension, per-iteration checkpoint,
//! and PMDK-style undo-log transactions.

use std::sync::Arc;

use adcc_core::baseline;
use adcc_core::cg::{cg_host, sites, ExtendedCg, PlainCg};
use adcc_core::DirtyRestart;
use adcc_linalg::csr::CsrMatrix;
use adcc_linalg::vecops::max_diff;
use adcc_pmem::stats::LogStats;
use adcc_pmem::undo::UndoPool;
use adcc_resilience::Tolerance;
use adcc_sim::crash::{CrashEmulator, CrashSite, CrashTrigger, RunOutcome};
use adcc_sim::image::NvmImage;
use adcc_sim::system::{MemorySystem, SystemConfig};
use adcc_telemetry::ExecutionProfile;

use super::baseline::{lost_since, Checkpointed};
use super::harness::{Classified, Workload};
use super::iterative::Iterative;
use super::{phase_trigger, trim_dram, verified_completion, Linear};
use crate::scenario::{Kernel, Mechanism, ScenarioInfo, Trial, UnitSpace};

const ITERS: usize = 12;
const TOL: f64 = 1e-9;
const PROBLEM_SEED: u64 = 301;
/// Access-count spacing of dense crash points. One full CG run on the
/// TEST problem issues ~100k element accesses, so a 10-access stride
/// carries ~10k dense points before spilling past the run.
const DENSE_STRIDE: u64 = 10;

pub(crate) fn problem() -> Arc<Linear> {
    Linear::new(PROBLEM_SEED, |a, b| cg_host(a, b, ITERS))
}

/// Dirty-restart residual tolerance. Krylov continuation on a torn
/// history rarely lands back on the exact trajectory, so `acceptable` is
/// loose relative to the verification tolerance; anything past the
/// divergence bound is a blow-up, not an answer.
fn dirty_tolerance() -> Tolerance {
    Tolerance::new(TOL, 1e-4, 1e3)
}

fn config(a: &CsrMatrix) -> SystemConfig {
    // History (4 arrays × (iters + 2) rows) + matrix + vectors + slack.
    // Crash images hold only the written prefix, so the slack costs nothing.
    let cap = 4 * (ITERS + 2) * a.n() * 8 + a.nnz() * 12 + (a.n() + 1) * 4 + (2 << 20);
    trim_dram(SystemConfig::nvm_only(16 << 10, cap))
}

// ---------------------------------------------------------------------
// cg-extended
// ---------------------------------------------------------------------

const CG_PHASES: [u32; 4] = [
    sites::PH_AFTER_Q,
    sites::PH_AFTER_Z,
    sites::PH_AFTER_R,
    sites::PH_LINE10,
];

/// Extended CG with invariant-scan recovery; crash points sweep the four
/// instrumented statements of every iteration.
pub(crate) fn extended(p: &Arc<Linear>) -> impl Workload {
    let p = p.clone();
    Iterative {
        info: ScenarioInfo::new(
            "cg-extended",
            Kernel::Cg,
            Mechanism::Extended,
            UnitSpace::new((CG_PHASES.len() * ITERS) as u64, DENSE_STRIDE),
        ),
        site_trigger: |unit| phase_trigger(&CG_PHASES, unit),
        config: config(&p.a),
        tol: TOL,
        dirty_tolerance: dirty_tolerance(),
        reference: p.reference.clone(),
        setup: move |sys: &mut MemorySystem| ExtendedCg::setup(sys, &p.a, &p.b, ITERS),
    }
}

// ---------------------------------------------------------------------
// cg-ckpt
// ---------------------------------------------------------------------

/// Plain CG with a double-buffered NVM checkpoint every iteration.
/// Even units crash after the step but before the checkpoint (one
/// iteration lost); odd units crash right after it (nothing lost).
pub(crate) fn ckpt(p: &Arc<Linear>) -> impl Workload {
    let p = p.clone();
    Checkpointed {
        info: ScenarioInfo::new(
            "cg-ckpt",
            Kernel::Cg,
            Mechanism::Checkpoint,
            UnitSpace::new(2 * ITERS as u64, DENSE_STRIDE),
        ),
        site_trigger: |unit| phase_trigger(&[sites::PH_LINE10, sites::PH_ITER_END], unit),
        config: config(&p.a),
        tol: TOL,
        dirty_tolerance: dirty_tolerance(),
        reference: p.reference.clone(),
        setup: move |sys: &mut MemorySystem| PlainCg::setup(sys, &p.a, &p.b, ITERS),
        lost_units: lost_since,
        dirty_restart: baseline::dirty_restart,
    }
}

// ---------------------------------------------------------------------
// cg-pmem
// ---------------------------------------------------------------------

/// Plain CG with every iteration in an undo-log transaction, crash points
/// inside and at the end of the transaction, so the campaign exercises
/// mid-transaction rollback.
pub(crate) struct CgPmem(pub(crate) Arc<Linear>);

const PMEM_PHASES: [u32; 4] = [
    sites::PH_AFTER_Z,
    sites::PH_AFTER_R,
    sites::PH_LINE10,
    sites::PH_ITER_END,
];

/// What `cg-pmem` set-up leaves behind.
pub(crate) struct PmemLive {
    cg: PlainCg,
    rho0: f64,
    pool: UndoPool,
    /// Sidecar per-harvest undo-log counters (the emulator cannot see the
    /// pool): `logs[k]` is the log state at harvest `k`'s instant.
    logs: Vec<LogStats>,
}

impl Workload for CgPmem {
    type Live = PmemLive;
    type End = f64;
    type State = Classified;

    fn info(&self) -> &ScenarioInfo {
        const INFO: ScenarioInfo = ScenarioInfo::new(
            "cg-pmem",
            Kernel::Cg,
            Mechanism::Pmem,
            UnitSpace::new((PMEM_PHASES.len() * ITERS) as u64, DENSE_STRIDE),
        );
        &INFO
    }
    fn site_trigger(&self, unit: u64) -> CrashTrigger {
        phase_trigger(&PMEM_PHASES, unit)
    }

    fn setup(&self, trigger: CrashTrigger) -> (CrashEmulator, PmemLive) {
        let mut sys = MemorySystem::new(config(&self.0.a));
        let (cg, rho0) = PlainCg::setup(&mut sys, &self.0.a, &self.0.b, ITERS);
        let pool = baseline::undo_pool(&mut sys, &cg, 8);
        let live = PmemLive {
            cg,
            rho0,
            pool,
            logs: Vec::new(),
        };
        (CrashEmulator::from_system(sys, trigger), live)
    }

    fn forward(&self, live: &mut PmemLive, emu: &mut CrashEmulator) -> RunOutcome<f64> {
        let PmemLive {
            cg,
            rho0,
            pool,
            logs,
        } = live;
        // Record the pool's log counters for every harvest a poll just
        // captured. Log state cannot change between the capturing poll and
        // the sample, so it is exact.
        baseline::run_with_pmem(emu, cg, *rho0, pool, 1, |emu, pool, site| {
            let crashed = emu.poll(site);
            while logs.len() < emu.harvest_count() {
                logs.push(pool.log_stats());
            }
            crashed
        })
    }

    fn recover(
        &self,
        live: &PmemLive,
        site: CrashSite,
        image: &NvmImage,
        profile: Option<ExecutionProfile>,
    ) -> Classified {
        let cg = &live.cg;
        let mut sys2 = MemorySystem::from_image(config(&self.0.a), image);
        let t0 = sys2.now();
        let (committed, rho) = baseline::pmem_restore(&mut sys2, cg, live.rho0, live.pool.layout());
        let mut emu2 = CrashEmulator::from_system(sys2, CrashTrigger::Never);
        baseline::resume(&mut emu2, cg, committed, rho);
        let sim_time_ps = (emu2.now() - t0).ps();

        // The in-flight transaction (if any) rolls back and its iteration
        // is re-executed: mid-transaction crashes at iteration `i` leave
        // `committed == i` (one lost), ITER_END crashes land post-commit
        // with `committed == i + 1` (nothing lost).
        let lost = (site.index + 1).saturating_sub(committed as u64);
        let matches = max_diff(&cg.peek_solution(&emu2), &self.0.reference) < TOL;
        Classified::new(false, matches, lost, sim_time_ps, profile)
    }

    fn complete(
        &self,
        live: &PmemLive,
        _rho: f64,
        emu: &CrashEmulator,
        profile: Option<ExecutionProfile>,
    ) -> Trial {
        let sol = live.cg.peek_solution(emu);
        verified_completion(max_diff(&sol, &self.0.reference) < TOL, 0, profile)
    }

    fn log_stats(&self, live: &PmemLive, harvest: Option<usize>) -> Option<LogStats> {
        Some(harvest.map_or_else(|| live.pool.log_stats(), |k| live.logs[k]))
    }

    fn dirty_reference(&self) -> Option<(Tolerance, Vec<f64>)> {
        Some((dirty_tolerance(), self.0.reference.to_vec()))
    }

    fn dirty_restart(&self, live: &PmemLive, image: &NvmImage) -> DirtyRestart {
        baseline::dirty_restart(&live.cg, image, config(&self.0.a), live.rho0)
    }
}
