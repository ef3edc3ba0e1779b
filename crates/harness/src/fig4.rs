//! Figure 4: CG runtime under the seven test cases, normalized to the
//! native execution on the respective platform.

use adcc_core::cg::{ExtendedCg, PlainCg};
use adcc_linalg::spd::CgClass;

pub use crate::cases::CaseTime;
use crate::cases::{seven_case_rows, time_case, Case};
use crate::fig3::{cg_nvm_capacity, CG_ITERS};
use crate::platform::{Platform, Scale};
use crate::report::Table;

/// Run one case on `platform` and return the main-loop simulated time.
pub fn time_on(case: Case, platform: Platform, class: CgClass, seed: u64) -> CaseTime {
    let a = class.matrix(seed);
    let b = class.rhs(&a);
    time_case(
        case,
        platform,
        |p| p.cg_config(cg_nvm_capacity(&a, CG_ITERS)),
        |sys| PlainCg::setup(sys, &a, &b, CG_ITERS),
        (1, 16),
        |sys| {
            let (cg, rho0) = ExtendedCg::setup(sys, &a, &b, CG_ITERS);
            move |emu| cg.run(emu, 0, CG_ITERS, rho0)
        },
    )
}

/// Run one case on the appropriate platform and return the main-loop
/// simulated time.
pub fn run_case(case: Case, class: CgClass, seed: u64) -> CaseTime {
    time_on(case, case.platform(), class, seed)
}

/// The class used at each scale.
pub fn class_for(scale: Scale) -> CgClass {
    if scale.is_quick() {
        CgClass::W
    } else {
        CgClass::C
    }
}

/// Run the whole figure: all seven cases, normalized per platform.
pub fn run(scale: Scale) -> Table {
    let class = class_for(scale);
    let seed = 777;
    let mut t = Table::new(
        format!(
            "Fig. 4 — CG runtime with the seven mechanisms (class {}, normalized per platform)",
            class.name
        ),
        &["case", "platform", "normalized time", "overhead"],
    );
    seven_case_rows(&mut t, &[], 3, |case, platform| {
        time_on(case, platform, class, seed).loop_ps
    });
    t.note("Paper: ckpt-hdd +60.4%, ckpt-nvm +4.2%, ckpt-nvm/dram +43.6%, pmem +329%, algo <3%.");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcc_linalg::spd::CgClass;

    #[test]
    fn case_ordering_holds_at_tiny_scale() {
        let class = CgClass::TEST;
        let native = run_case(Case::Native, class, 3).loop_ps;
        let algo = run_case(Case::AlgoNvm, class, 3).loop_ps;
        let ckpt = run_case(Case::CkptNvm, class, 3).loop_ps;
        let pmem = run_case(Case::PmemNvm, class, 3).loop_ps;
        assert!(algo < ckpt, "algo {algo} !< ckpt {ckpt}");
        assert!(ckpt < pmem, "ckpt {ckpt} !< pmem {pmem}");
        assert!(native <= algo, "native {native} !<= algo {algo}");
    }
}
