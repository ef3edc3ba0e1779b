//! Figure 13: MC runtime under the seven test cases (checkpoint /
//! transaction / flush every 0.01% of lookups), normalized per platform.

use adcc_core::mc::sim::{McMode, McSim};
use adcc_sim::system::MemorySystem;

use crate::cases::{seven_case_rows, time_case, Case};
use crate::fig10::McDims;
use crate::platform::{Platform, Scale};
use crate::report::Table;

fn time_on(case: Case, platform: Platform, dims: McDims, seed: u64) -> u64 {
    let p = dims.problem(seed);
    let interval = dims.interval();
    let setup =
        |sys: &mut MemorySystem, mode| McSim::setup(sys, p.clone(), dims.lookups, seed, mode);
    time_case(
        case,
        platform,
        |platform| platform.mc_config(dims.nvm_capacity(&p)),
        |sys| (setup(sys, McMode::Native), ()),
        // The accumulator, counters and index fill 4 of the pool's 32 lines.
        (interval.max(1) as usize, 28),
        |sys| {
            let mc = setup(sys, McMode::Selective { interval });
            move |emu| mc.run(emu, 0, dims.lookups)
        },
    )
    .loop_ps
}

/// Run one case; returns the measured simulated time of the main loop.
pub fn run_case(case: Case, dims: McDims, seed: u64) -> u64 {
    time_on(case, case.platform(), dims, seed)
}

pub fn run(scale: Scale) -> Table {
    let dims = McDims::for_scale(scale);
    let seed = 999;
    let mut t = Table::new(
        format!(
            "Fig. 13 — MC runtime with the seven mechanisms ({} lookups, state persisted every {} lookups)",
            dims.lookups,
            dims.interval()
        ),
        &["case", "platform", "normalized time", "overhead"],
    );
    seven_case_rows(&mut t, &[], 4, |case, platform| {
        time_on(case, platform, dims, seed)
    });
    t.note("Paper: algorithm-based flushing <=0.05%; NVM-only checkpoint ignorable; NVM/DRAM checkpoint ~13%.");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algo_overhead_is_tiny_and_below_ckpt_hetero() {
        let dims = McDims {
            nuclides: 36,
            grid_points: 512,
            lookups: 3_000,
        };
        let native = run_case(Case::Native, dims, 2);
        let algo = run_case(Case::AlgoNvm, dims, 2);
        let over = algo as f64 / native as f64 - 1.0;
        assert!(over < 0.05, "algo overhead too large: {over}");
    }
}
