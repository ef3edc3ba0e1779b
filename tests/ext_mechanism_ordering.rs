//! Integration: the paper's mechanism cost ordering — native <= algo <
//! checkpoint < pmem — must hold for every extension kernel. One check
//! (`common::assert_cost_ordering`) over `cases::time_case`; that every
//! mechanism produces the same answer is `mechanism_differential`'s.

mod common;

use adcc::core::baseline::Baseline;
use adcc::harness::cases::time_case;
use adcc::prelude::*;
use common::assert_cost_ordering;

const CHAIN: [Case; 4] = [Case::Native, Case::AlgoNvm, Case::CkptNvm, Case::PmemNvm];

/// The NVM-only cases of one family on a machine small enough for its
/// state to spill: `plain` under the baseline mechanisms, `algo` the
/// algorithm-directed run.
fn ordering_holds<K: Baseline, T, R: FnOnce(&mut CrashEmulator) -> RunOutcome<T>>(
    family: &str,
    plain: impl Fn(&mut MemorySystem) -> (K, K::Carry),
    algo: impl Fn(&mut MemorySystem) -> R,
) {
    assert_cost_ordering(family, &CHAIN, |case| {
        let cfg = |_| SystemConfig::nvm_only(8 << 10, 64 << 20);
        time_case(case, Platform::NvmOnly, cfg, &plain, (1, 32), &algo).loop_ps
    });
}

#[test]
fn jacobi_mechanism_ordering_and_agreement() {
    let a = CgClass::TEST.matrix(201);
    let b = CgClass::TEST.rhs(&a);
    ordering_holds(
        "jacobi",
        |sys| (PlainJacobi::setup(sys, &a, &b, 6), ()),
        |sys| {
            let ext = ExtendedJacobi::setup(sys, &a, &b, 6);
            move |emu: &mut CrashEmulator| ext.run(emu, 0, 6)
        },
    );
}

#[test]
fn lu_mechanism_ordering_and_agreement() {
    let a = dominant_matrix(16, 202);
    ordering_holds(
        "lu",
        |sys| (ChecksumLu::setup(sys, &a, 4), ()),
        |sys| {
            let lu = ChecksumLu::setup(sys, &a, 4);
            move |emu: &mut CrashEmulator| lu.run(emu, 0)
        },
    );
}

#[test]
fn stencil_mechanism_ordering_and_agreement() {
    ordering_holds(
        "stencil",
        |sys| (PlainStencil::setup(sys, 12, 12, 6), ()),
        |sys| {
            let st = ExtendedStencil::setup(sys, 12, 12, 6, 3, 4);
            move |emu: &mut CrashEmulator| st.run(emu, 0, 6)
        },
    );
}

#[test]
fn bicgstab_agrees_with_cg_on_spd_systems() {
    // Cross-solver agreement: on an SPD system both Krylov methods must
    // approach the same solution (the ones vector).
    let class = CgClass::TEST;
    let a = class.matrix(203);
    let b = class.rhs(&a);
    let bi = bicgstab_host(&a, &b, 25);
    let cg = adcc::core::cg::cg_host(&a, &b, 25);
    for (x, y) in bi.iter().zip(&cg) {
        assert!((x - 1.0).abs() < 1e-6, "bicgstab off: {x}");
        assert!((y - 1.0).abs() < 1e-6, "cg off: {y}");
    }
}
