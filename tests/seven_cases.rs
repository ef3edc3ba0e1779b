//! Cross-crate invariants over the seven test cases: the cost ordering
//! the paper's evaluation is built on must hold at any scale. One check
//! (`common::assert_cost_ordering`) per paper family, over the figures'
//! own timed cases; the extension kernels' are in `ext_mechanism_ordering`.

mod common;

use adcc::harness::cases::time_case;
use adcc::harness::fig10::McDims;
use adcc::harness::{fig13, fig4, fig8};
use adcc::prelude::*;
use common::assert_cost_ordering;

use Case::{AlgoNvm, CkptHdd, CkptNvm, Native, PmemNvm};

#[test]
fn cg_overhead_ordering() {
    let time = |case| fig4::run_case(case, CgClass::TEST, 1).loop_ps;
    assert_cost_ordering("cg", &[Native, AlgoNvm, CkptNvm, PmemNvm], time);
    assert_cost_ordering("cg", &[CkptNvm, CkptHdd], time);
}

#[test]
fn cg_hetero_checkpoint_costs_more_than_nvm_checkpoint_relatively() {
    let class = CgClass::TEST;
    let a = class.matrix(2);
    let b = class.rhs(&a);
    let native_nvm = fig4::run_case(Native, class, 2).loop_ps as f64;
    let ckpt_nvm = fig4::run_case(CkptNvm, class, 2).loop_ps as f64;
    // Hetero normalized against its own native.
    let native_het = time_case(
        Native,
        Platform::Hetero,
        |p| p.cg_config(32 << 20),
        |sys| PlainCg::setup(sys, &a, &b, 15),
        (1, 16),
        |_| |_: &mut CrashEmulator| -> RunOutcome<()> { unreachable!("a native case") },
    )
    .loop_ps as f64;
    let ckpt_het = fig4::run_case(Case::CkptNvmDram, class, 2).loop_ps as f64;
    let overhead_nvm = ckpt_nvm / native_nvm - 1.0;
    let overhead_het = ckpt_het / native_het - 1.0;
    assert!(
        overhead_het > overhead_nvm,
        "hetero ckpt {overhead_het:.3} should exceed NVM-only ckpt {overhead_nvm:.3}"
    );
}

#[test]
fn mm_overhead_ordering() {
    let time = |case| fig8::run_case(case, 32, 8, 1);
    assert_cost_ordering("mm", &[Native, CkptNvm, PmemNvm], time);
    // The two-loop algorithm does more arithmetic (temporal matrices) but
    // flushes almost nothing; it must stay well below pmem.
    assert_cost_ordering("mm", &[Native, AlgoNvm, PmemNvm], time);
}

#[test]
fn mc_overhead_ordering() {
    let dims = McDims {
        nuclides: 36,
        grid_points: 256,
        lookups: 2_000,
    };
    let time = |case| fig13::run_case(case, dims, 1);
    assert_cost_ordering("mc", &[Native, AlgoNvm, CkptHdd], time);
    let (native, algo, hdd) = (time(Native), time(AlgoNvm), time(CkptHdd));
    assert!(
        (algo as f64) < native as f64 * 1.10,
        "selective flushing must stay cheap: {algo} vs {native}"
    );
    assert!(hdd > 2 * native, "HDD checkpoints at 0.01% must be costly");
}

#[test]
fn all_seven_cases_have_distinct_platform_assignment() {
    let hetero: Vec<_> = Case::ALL
        .iter()
        .filter(|c| c.platform() == Platform::Hetero)
        .collect();
    assert_eq!(hetero.len(), 2, "cases 4 and 7 run on the hetero platform");
}
