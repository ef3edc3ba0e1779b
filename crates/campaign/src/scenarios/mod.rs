//! Concrete scenarios: each kernel/ds file states one family's set-up,
//! forward run and recovery steps as the hooks of `harness::Workload`,
//! from which the harness derives the [`crate::scenario::Scenario`] impl;
//! `dist` implements the trait itself over `adcc_dist::trial`.

mod bicgstab;
mod cg;
mod dist;
mod ds;
mod harness;
mod jacobi;
mod lu;
mod mc;
mod stencil;

use adcc_sim::system::SystemConfig;
use adcc_telemetry::ExecutionProfile;

use crate::outcome::Outcome;
use crate::scenario::{Scenario, Trial};

/// Every distributed scenario (the `dist` registry), in report order —
/// three kernel families × two recovery modes over a 4-rank cluster —
/// under a fabric fault profile (`campaign run --registry dist --faults
/// <profile>`): the chaotic tier swaps every cluster to the 16-rank 2-D
/// grid presets with a remote checkpoint level and appends node-loss
/// units to the local-recovery scenarios.
pub fn dist_all_with(faults: adcc_dist::net::FaultProfile) -> Vec<Box<dyn Scenario>> {
    dist::all_with(faults)
}

/// Every persistent data-structure scenario (the `ds` registry), in
/// report order: MSC queue and open-addressing hash table, each under
/// undo-logged (`pmem`) and unprotected-baseline protection.
pub fn ds_all() -> Vec<Box<dyn Scenario>> {
    ds::all()
}

/// Every registered scenario, in report order. All six kernel families
/// appear with at least two mechanisms each (the campaign acceptance
/// criterion); `crate::scenario::tests` enforces it.
pub fn all() -> Vec<Box<dyn Scenario>> {
    let mc_reference = mc::reference_counts();
    vec![
        Box::new(cg::CgExtended::new()),
        Box::new(cg::CgCkpt::new()),
        Box::new(cg::CgPmem::new()),
        Box::new(bicgstab::BiExtended::new_full()),
        Box::new(bicgstab::BiExtended::new_windowed()),
        Box::new(jacobi::JacobiExtended::new()),
        Box::new(jacobi::JacobiCkpt::new()),
        Box::new(stencil::StencilExtended::new()),
        Box::new(stencil::StencilCkpt::new()),
        Box::new(lu::LuExtended::new()),
        Box::new(lu::LuCkpt::new()),
        Box::new(mc::McCampaign::new_selective(mc_reference)),
        Box::new(mc::McCampaign::new_epoch(mc_reference)),
    ]
}

/// Campaign systems only need kilobytes of volatile scratch; the default
/// 64 MB DRAM-direct region would dominate per-trial setup cost (every
/// trial builds a fresh zeroed `MemorySystem`).
pub(crate) fn trim_dram(mut cfg: SystemConfig) -> SystemConfig {
    cfg.dram_capacity = 2 << 20;
    cfg
}

/// The shared completion classification: the crash point landed beyond
/// the execution, so there is nothing to recover — verify the completed
/// result against the reference and report it.
pub(crate) fn verified_completion(
    matches: bool,
    unit: u64,
    telemetry: Option<ExecutionProfile>,
) -> Trial {
    Trial {
        unit,
        outcome: if matches {
            Outcome::CompletedClean
        } else {
            Outcome::SilentCorruption
        },
        lost_units: 0,
        sim_time_ps: 0,
        telemetry,
    }
}

/// Max elementwise difference — the match criterion shared by the vector
/// kernels. NaN anywhere is a mismatch (`f64::INFINITY`), never masked:
/// a NaN-corrupted recovery must classify as silent corruption, not pass.
pub(crate) fn max_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).fold(0.0, |acc, (x, y)| {
        let d = (x - y).abs();
        if d.is_nan() {
            f64::INFINITY
        } else {
            acc.max(d)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::max_diff;

    #[test]
    fn max_diff_propagates_nan_as_mismatch() {
        assert_eq!(max_diff(&[1.0, 2.0], &[1.0, 2.5]), 0.5);
        assert_eq!(max_diff(&[1.0, f64::NAN], &[1.0, 2.0]), f64::INFINITY);
        assert_eq!(max_diff(&[f64::NAN], &[0.0]), f64::INFINITY);
    }
}
