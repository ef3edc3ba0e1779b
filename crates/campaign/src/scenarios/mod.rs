//! Concrete scenarios: each kernel/ds file states one family's set-up,
//! forward run and recovery steps as the hooks of `harness::Workload`,
//! from which the harness derives the [`crate::scenario::Scenario`] impl;
//! `dist` implements the trait itself over `adcc_dist::trial`.

mod baseline;
mod bicgstab;
mod cg;
pub(crate) mod dist;
pub(crate) mod ds;
mod harness;
mod iterative;
mod jacobi;
mod lu;
mod mc;
mod stencil;

use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use adcc_linalg::csr::CsrMatrix;
use adcc_linalg::spd::CgClass;
use adcc_resilience::{DirtyClass, DirtyTrial, Tolerance};
use adcc_sim::crash::{CrashSite, CrashTrigger};
use adcc_sim::system::SystemConfig;
use adcc_telemetry::ExecutionProfile;

use crate::outcome::Outcome;
use crate::scenario::{Classified, PassOutput, ResilienceBatch, Scenario};

/// Every registered scenario, in report order. All six kernel families
/// appear with at least two mechanisms each (the campaign acceptance
/// criterion); `crate::scenario::tests` enforces it.
pub fn all() -> Vec<Box<dyn Scenario>> {
    // Each family's problem (matrix, right-hand side, host-solved
    // reference) is built once per process and shared by its scenarios.
    let cg = cg::problem();
    let bicgstab = bicgstab::problem();
    let jacobi = jacobi::problem();
    let heat = stencil::reference();
    let lu = lu::problem();
    let mc_reference = mc::reference_counts();
    vec![
        Box::new(cg::extended(&cg)),
        Box::new(cg::ckpt(&cg)),
        Box::new(cg::pmem(&cg)),
        Box::new(bicgstab::extended(&bicgstab, bicgstab::FULL)),
        Box::new(bicgstab::extended(&bicgstab, bicgstab::WINDOW)),
        Box::new(jacobi::extended(&jacobi)),
        Box::new(jacobi::ckpt(&jacobi)),
        Box::new(stencil::extended(&heat)),
        Box::new(stencil::ckpt(&heat)),
        Box::new(lu::LuExtended(lu.clone())),
        Box::new(lu::ckpt(&lu)),
        Box::new(mc::McCampaign::new_selective(mc_reference)),
        Box::new(mc::McCampaign::new_epoch(mc_reference)),
    ]
}

/// The value `init` computes, computed once per process under `key`: for a
/// pure function of a scenario's fixed config that `key` pins — a
/// crash-free run, its verdict. Every `run_campaign` rebuilds the registry;
/// the value outlives each build. The map hands out one leaked cell per
/// key, and `init` runs outside the map's lock, so keys fill concurrently.
/// One key holds one type.
pub(crate) fn once_per_process<T: Send + Sync + 'static>(
    key: (&'static str, &'static str),
    init: impl FnOnce() -> T,
) -> &'static T {
    type Cells = Mutex<HashMap<(&'static str, &'static str), &'static (dyn Any + Send + Sync)>>;
    static CELLS: OnceLock<Cells> = OnceLock::new();
    let cell: &'static (dyn Any + Send + Sync) = *CELLS
        .get_or_init(Cells::default)
        .lock()
        .expect("process cache poisoned")
        .entry(key)
        .or_insert_with(|| Box::leak(Box::new(OnceLock::<T>::new())));
    cell.downcast_ref::<OnceLock<T>>()
        .expect("one type per key")
        .get_or_init(init)
}

/// A `CgClass::TEST` sparse system with its host-solved answer: the
/// problem of one solver family.
pub(crate) struct Linear {
    pub a: CsrMatrix,
    pub b: Vec<f64>,
    pub reference: Arc<[f64]>,
}

impl Linear {
    pub(crate) fn new(seed: u64, solve: impl Fn(&CsrMatrix, &[f64]) -> Vec<f64>) -> Arc<Linear> {
        let class = CgClass::TEST;
        let a = class.matrix(seed);
        let b = class.rhs(&a);
        let reference = solve(&a, &b).into();
        Arc::new(Linear { a, b, reference })
    }
}

/// The trigger of a site unit over a per-iteration phase table: unit
/// `u` crashes at `phases[u % len]` of iteration `u / len`.
pub(crate) fn phase_trigger(phases: &[u32], unit: u64) -> CrashTrigger {
    let len = phases.len() as u64;
    CrashTrigger::AtSite {
        site: CrashSite::new(phases[(unit % len) as usize], unit / len),
        occurrence: 1,
    }
}

/// Campaign systems only need kilobytes of volatile scratch; the default
/// 64 MB DRAM-direct region would dominate per-trial setup cost (every
/// trial builds a fresh zeroed `MemorySystem`).
pub(crate) fn trim_dram(mut cfg: SystemConfig) -> SystemConfig {
    cfg.dram_capacity = 2 << 20;
    cfg
}

/// The dirty trial of a unit whose trigger never fired: the run completed
/// cleanly, nothing was lost or rebooted — converged-exact at zero extra
/// work.
pub(crate) fn never_crashed(unit: u64) -> DirtyTrial {
    DirtyTrial {
        unit,
        class: DirtyClass::ConvergedExact,
        extra_units: 0,
        sim_time_ps: 0,
    }
}

/// The shared completion classification: the crash point landed beyond
/// the execution, so there is nothing to recover — verify the completed
/// result against the reference and report it.
pub(crate) fn verified_completion(
    matches: bool,
    telemetry: Option<ExecutionProfile>,
) -> Classified {
    Classified {
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

/// What the per-state passes made of one distinct crash state of a batch:
/// the units whose triggers fired at it, its verdict when the recover pass
/// ran, and its dirty trial — stamped with any one of `units` — when the
/// dirty pass ran.
pub(crate) struct StateResult<U> {
    pub units: U,
    pub verdict: Option<Classified>,
    pub dirty: Option<DirtyTrial>,
}

/// The one merge of a batch (`units` sorted, distinct): each state's
/// verdict and dirty trial stamped onto each of its units, in schedule
/// order. A unit no state names never fired: its trial is `completed`'s
/// verdict, its dirty trial [`never_crashed`]. `recover` and `dirty` say
/// which passes ran; the analysis is the caller's.
pub(crate) fn merge<U: IntoIterator<Item = u64>>(
    units: &[u64],
    recover: bool,
    dirty: Option<Tolerance>,
    states: impl IntoIterator<Item = StateResult<U>>,
    completed: Option<Classified>,
) -> PassOutput {
    let mut verdicts: Vec<Option<Classified>> = vec![None; if recover { units.len() } else { 0 }];
    let mut dirty_trials: Vec<DirtyTrial> = match dirty {
        Some(_) => units.iter().map(|&unit| never_crashed(unit)).collect(),
        None => Vec::new(),
    };
    for state in states {
        for unit in state.units {
            let slot = units
                .binary_search(&unit)
                .expect("a crashed unit was scheduled");
            if let Some(verdict) = state.verdict {
                verdicts[slot] = Some(verdict);
            }
            if let Some(d) = state.dirty {
                dirty_trials[slot] = DirtyTrial { unit, ..d };
            }
        }
    }
    PassOutput {
        trials: units
            .iter()
            .zip(verdicts)
            .map(|(&unit, verdict)| {
                verdict
                    .or(completed)
                    .expect("a unit that never crashed has the completion verdict")
                    .trial(unit)
            })
            .collect(),
        dirty: dirty.map(|tolerance| ResilienceBatch {
            trials: dirty_trials,
            tolerance,
        }),
        analysis: None,
    }
}
