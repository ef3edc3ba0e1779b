//! Figure 8: ABFT-MM runtime under the seven test cases for several rank
//! sizes, normalized to the native execution on the respective platform.

use adcc_core::abft::variants::MmProgress;
use adcc_core::abft::{OriginalAbft, TwoLoopAbft};
use adcc_linalg::dense::Matrix;

use crate::cases::{seven_case_rows, time_case, Case};
use crate::fig7::mm_nvm_capacity;
use crate::platform::{Platform, Scale};
use crate::report::Table;

fn time_on(case: Case, platform: Platform, n: usize, k: usize, seed: u64) -> u64 {
    let a = Matrix::random(n, n, seed);
    let b = Matrix::random(n, n, seed + 1);
    time_case(
        case,
        platform,
        |p| p.mm_config(mm_nvm_capacity(n, k)),
        |sys| {
            let mm = OriginalAbft::setup(sys, &a, &b, k, false);
            ((mm, MmProgress::new(sys)), ())
        },
        (1, 16),
        |sys| {
            let mm = TwoLoopAbft::setup(sys, &a, &b, k);
            move |emu| mm.run(emu)
        },
    )
    .loop_ps
}

/// Run one case; returns the measured simulated time of the whole
/// multiplication.
pub fn run_case(case: Case, n: usize, k: usize, seed: u64) -> u64 {
    time_on(case, case.platform(), n, k, seed)
}

/// Matrix size and ranks at each scale (the paper: n = 8000 with ranks
/// 200, 400, 1000, i.e. n/40, n/20, n/8).
pub fn sizes_for(scale: Scale) -> (usize, &'static [usize]) {
    if scale.is_quick() {
        (64, &[8, 16])
    } else {
        (384, &[12, 24, 48])
    }
}

pub fn run(scale: Scale) -> Table {
    let (n, ranks) = sizes_for(scale);
    let mut t = Table::new(
        format!(
            "Fig. 8 — ABFT-MM runtime with the seven mechanisms (n = {n}, normalized per platform)"
        ),
        &["rank", "case", "platform", "normalized time", "overhead"],
    );
    for &k in ranks {
        seven_case_rows(&mut t, &[k.to_string()], 3, |case, platform| {
            time_on(case, platform, n, k, 555)
        });
    }
    t.note("Paper (n=8000): algo <=8.2% at rank 200 falling to 1.3% at rank 1000; NVM ckpt >=21.8% at rank 200; pmem largest.");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algo_cheaper_than_ckpt_cheaper_than_pmem() {
        let (n, k) = (32, 8);
        let native = run_case(Case::Native, n, k, 9);
        let algo = run_case(Case::AlgoNvm, n, k, 9);
        let ckpt = run_case(Case::CkptNvm, n, k, 9);
        let pmem = run_case(Case::PmemNvm, n, k, 9);
        assert!(ckpt > native);
        assert!(pmem > ckpt);
        // The two-loop algorithm does more arithmetic (temporal matrices)
        // but flushes almost nothing; it must stay well below pmem.
        assert!(algo < pmem);
    }
}
