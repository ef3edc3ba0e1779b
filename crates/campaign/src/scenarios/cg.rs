//! CG scenarios: algorithm-directed extension, per-iteration checkpoint,
//! and PMDK-style undo-log transactions.

use std::sync::Arc;

use adcc_ckpt::manager::CkptManager;
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

use super::harness::{Classified, Workload};
use super::iterative::Iterative;
use super::{phase_trigger, trim_dram, verified_completion, Linear};
use crate::scenario::{Kernel, Mechanism, Trial, UnitSpace};

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
        name: "cg-extended",
        kernel: Kernel::Cg,
        mechanism: Mechanism::Extended,
        unit_space: UnitSpace::new((CG_PHASES.len() * ITERS) as u64, DENSE_STRIDE),
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
pub(crate) struct CgCkpt(pub(crate) Arc<Linear>);

/// What `cg-ckpt` set-up leaves behind.
pub(crate) struct CkptLive {
    cg: PlainCg,
    rho0: f64,
    mgr: CkptManager,
}

impl Workload for CgCkpt {
    type Live = CkptLive;
    type End = f64;
    type State = Classified;

    fn name(&self) -> &'static str {
        "cg-ckpt"
    }
    fn kernel(&self) -> Kernel {
        Kernel::Cg
    }
    fn mechanism(&self) -> Mechanism {
        Mechanism::Checkpoint
    }
    fn unit_space(&self) -> UnitSpace {
        UnitSpace::new(2 * ITERS as u64, DENSE_STRIDE)
    }

    fn site_trigger(&self, unit: u64) -> CrashTrigger {
        phase_trigger(&[sites::PH_LINE10, sites::PH_ITER_END], unit)
    }

    fn setup(&self, trigger: CrashTrigger) -> (CrashEmulator, CkptLive) {
        let mut sys = MemorySystem::new(config(&self.0.a));
        let (cg, rho0) = PlainCg::setup(&mut sys, &self.0.a, &self.0.b, ITERS);
        let mgr = CkptManager::new_nvm(&mut sys, cg.ckpt_regions(), false);
        let emu = CrashEmulator::from_system(sys, trigger);
        (emu, CkptLive { cg, rho0, mgr })
    }

    fn forward(&self, live: &mut CkptLive, emu: &mut CrashEmulator) -> RunOutcome<f64> {
        adcc_core::cg::variants::run_with_ckpt(emu, &live.cg, live.rho0, &mut live.mgr)
    }

    fn recover(
        &self,
        live: &CkptLive,
        site: CrashSite,
        image: &NvmImage,
        profile: Option<ExecutionProfile>,
    ) -> Classified {
        let cg = &live.cg;
        let sys2 = MemorySystem::from_image(config(&self.0.a), image);
        let mut emu2 = CrashEmulator::from_system(sys2, CrashTrigger::Never);
        let t0 = emu2.now();
        let (start, mut rho, restored) =
            adcc_core::cg::variants::ckpt_restore(&mut emu2, cg, live.rho0, &live.mgr);
        for _ in start..ITERS {
            rho = cg.step(&mut emu2, rho);
        }
        let sim_time_ps = (emu2.now() - t0).ps();

        // Both polled sites (`PH_LINE10` before the checkpoint,
        // `PH_ITER_END` after it) sit after iteration `index`'s step;
        // completed-but-uncheckpointed iterations are re-executed.
        let lost = (site.index + 1).saturating_sub(start as u64);
        let matches = max_diff(&cg.peek_solution(&emu2), &self.0.reference) < TOL;
        Classified::new(!restored, matches, lost, sim_time_ps, profile)
    }

    fn complete(
        &self,
        live: &CkptLive,
        _rho: f64,
        emu: &CrashEmulator,
        profile: Option<ExecutionProfile>,
    ) -> Trial {
        let sol = live.cg.peek_solution(emu);
        verified_completion(max_diff(&sol, &self.0.reference) < TOL, 0, profile)
    }

    fn dirty_reference(&self) -> Option<(Tolerance, Vec<f64>)> {
        Some((dirty_tolerance(), self.0.reference.to_vec()))
    }

    fn dirty_restart(&self, live: &CkptLive, image: &NvmImage) -> DirtyRestart {
        live.cg.dirty_restart(image, config(&self.0.a), live.rho0)
    }
}

// ---------------------------------------------------------------------
// cg-pmem
// ---------------------------------------------------------------------

/// Plain CG with every iteration in an undo-log transaction, crash points
/// inside and at the end of the transaction. Mirrors
/// `adcc_core::cg::variants::run_with_pmem` but polls *inside* the
/// transaction too, so the campaign exercises mid-transaction rollback.
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

/// Record the undo pool's log counters for every harvest the emulator just
/// captured (`logs[k]` belongs to harvest `k`). Log state cannot change
/// between the capturing poll and this call, so the sample is exact.
fn note_logs(emu: &CrashEmulator, pool: &UndoPool, logs: &mut Vec<LogStats>) {
    while logs.len() < emu.harvest_count() {
        logs.push(pool.log_stats());
    }
}

impl PmemLive {
    /// One undo-logged CG iteration with in-transaction crash polls.
    fn iteration(&mut self, emu: &mut CrashEmulator, i: usize, rho: f64) -> RunOutcome<f64> {
        let PmemLive { cg, pool, logs, .. } = self;
        pool.tx_begin(emu);
        cg.a.spmv(emu, cg.p, cg.q);
        let pq = adcc_linalg::simops::dot(emu, cg.p, cg.q);
        let alpha = rho / pq;
        for j in 0..cg.n {
            pool.tx_add_range(emu, cg.z.addr(j), 8);
            let v = cg.z.get(emu, j) + alpha * cg.p.get(emu, j);
            cg.z.set(emu, j, v);
        }
        let crashed = emu.poll(CrashSite::new(sites::PH_AFTER_Z, i as u64));
        note_logs(emu, pool, logs);
        if crashed {
            return RunOutcome::Crashed(emu.crash_now());
        }
        for j in 0..cg.n {
            pool.tx_add_range(emu, cg.r.addr(j), 8);
            let v = cg.r.get(emu, j) - alpha * cg.q.get(emu, j);
            cg.r.set(emu, j, v);
        }
        let crashed = emu.poll(CrashSite::new(sites::PH_AFTER_R, i as u64));
        note_logs(emu, pool, logs);
        if crashed {
            return RunOutcome::Crashed(emu.crash_now());
        }
        emu.charge_flops(4 * cg.n as u64);
        let rho_new = adcc_linalg::simops::dot(emu, cg.r, cg.r);
        let beta = rho_new / rho;
        for j in 0..cg.n {
            pool.tx_add_range(emu, cg.p.addr(j), 8);
            let v = cg.r.get(emu, j) + beta * cg.p.get(emu, j);
            cg.p.set(emu, j, v);
        }
        emu.charge_flops(2 * cg.n as u64);
        let crashed = emu.poll(CrashSite::new(sites::PH_LINE10, i as u64));
        note_logs(emu, pool, logs);
        if crashed {
            return RunOutcome::Crashed(emu.crash_now());
        }
        pool.tx_add_range(emu, cg.rho_cell.addr(), 8);
        pool.tx_add_range(emu, cg.iter_cell.addr(), 8);
        cg.rho_cell.set(emu, rho_new);
        cg.iter_cell.set(emu, (i + 1) as u64);
        pool.tx_commit(emu);
        let crashed = emu.poll(CrashSite::new(sites::PH_ITER_END, i as u64));
        note_logs(emu, pool, logs);
        if crashed {
            return RunOutcome::Crashed(emu.crash_now());
        }
        RunOutcome::Completed(rho_new)
    }
}

impl Workload for CgPmem {
    type Live = PmemLive;
    type End = ();
    type State = Classified;

    fn name(&self) -> &'static str {
        "cg-pmem"
    }
    fn kernel(&self) -> Kernel {
        Kernel::Cg
    }
    fn mechanism(&self) -> Mechanism {
        Mechanism::Pmem
    }
    fn unit_space(&self) -> UnitSpace {
        UnitSpace::new((PMEM_PHASES.len() * ITERS) as u64, DENSE_STRIDE)
    }

    fn site_trigger(&self, unit: u64) -> CrashTrigger {
        phase_trigger(&PMEM_PHASES, unit)
    }

    fn setup(&self, trigger: CrashTrigger) -> (CrashEmulator, PmemLive) {
        let mut sys = MemorySystem::new(config(&self.0.a));
        let (cg, rho0) = PlainCg::setup(&mut sys, &self.0.a, &self.0.b, ITERS);
        let lines = 3 * (cg.n * 8).div_ceil(64) + 8;
        let pool = UndoPool::new(&mut sys, lines);
        let live = PmemLive {
            cg,
            rho0,
            pool,
            logs: Vec::new(),
        };
        (CrashEmulator::from_system(sys, trigger), live)
    }

    fn forward(&self, live: &mut PmemLive, emu: &mut CrashEmulator) -> RunOutcome<()> {
        let mut rho = live.rho0;
        for i in 0..ITERS {
            match live.iteration(emu, i, rho) {
                RunOutcome::Completed(r) => rho = r,
                RunOutcome::Crashed(image) => return RunOutcome::Crashed(image),
            }
        }
        RunOutcome::Completed(())
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
        UndoPool::recover(live.pool.layout(), &mut sys2);
        let committed = cg.iter_cell.get(&mut sys2) as usize;
        let mut rho = if committed == 0 {
            live.rho0
        } else {
            cg.rho_cell.get(&mut sys2)
        };
        let mut emu2 = CrashEmulator::from_system(sys2, CrashTrigger::Never);
        for _ in committed..ITERS {
            rho = cg.step(&mut emu2, rho);
        }
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
        (): (),
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
        live.cg.dirty_restart(image, config(&self.0.a), live.rho0)
    }
}
