//! The paper's seven test cases (§III-A), and the one timed run behind
//! every runtime figure.

use adcc_ckpt::manager::CkptManager;
use adcc_core::baseline::{Baseline, Mechanism};
use adcc_sim::clock::Bucket;
use adcc_sim::crash::{CrashEmulator, CrashTrigger, RunOutcome};
use adcc_sim::system::{MemorySystem, SystemConfig};
use adcc_sim::timing::HddTiming;

use crate::platform::Platform;
use crate::report::{pct_overhead, Table};

/// One of the seven mechanisms compared throughout the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Case {
    /// (1) Native execution, no checkpoint, no algorithm extension.
    Native,
    /// (2) Checkpoint to a local hard drive.
    CkptHdd,
    /// (3) Checkpoint into NVM on the NVM-only system.
    CkptNvm,
    /// (4) Checkpoint into NVM on the heterogeneous NVM/DRAM system
    /// (CPU-cache CLFLUSH + DRAM-cache flush).
    CkptNvmDram,
    /// (5) Intel-PMEM-style undo-log transactions on the NVM-only system.
    PmemNvm,
    /// (6) Algorithm-directed approach on the NVM-only system.
    AlgoNvm,
    /// (7) Algorithm-directed approach on the heterogeneous system.
    AlgoNvmDram,
}

impl Case {
    pub const ALL: [Case; 7] = [
        Case::Native,
        Case::CkptHdd,
        Case::CkptNvm,
        Case::CkptNvmDram,
        Case::PmemNvm,
        Case::AlgoNvm,
        Case::AlgoNvmDram,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Case::Native => "native",
            Case::CkptHdd => "ckpt-hdd",
            Case::CkptNvm => "ckpt-nvm",
            Case::CkptNvmDram => "ckpt-nvm/dram",
            Case::PmemNvm => "pmem-nvm",
            Case::AlgoNvm => "algo-nvm",
            Case::AlgoNvmDram => "algo-nvm/dram",
        }
    }

    /// Which platform the case runs on (cases 4 and 7 use the
    /// heterogeneous system; everything else runs NVM-only, like the
    /// paper).
    pub fn platform(self) -> Platform {
        match self {
            Case::CkptNvmDram | Case::AlgoNvmDram => Platform::Hetero,
            _ => Platform::NvmOnly,
        }
    }
}

/// Measured main-loop time of one case, plus what its persistence cost:
/// bytes moved (checkpoint copy, device I/O, undo log) and flushes.
#[derive(Debug, Clone, Copy)]
pub struct CaseTime {
    pub case: Case,
    pub loop_ps: u64,
    pub copy_ps: u64,
    pub flush_ps: u64,
}

/// Time `case` on `platform` (its own, or the other one for a
/// normalization baseline): build the machine, set the kernel up on it —
/// `algo` for cases 6–7, else `plain` under the case's mechanism, with a
/// checkpoint or a transaction every `period` units and `slack` spare
/// lines in the undo pool — and read the clock around the main loop.
pub fn time_case<K: Baseline, T, R: FnOnce(&mut CrashEmulator) -> RunOutcome<T>>(
    case: Case,
    platform: Platform,
    config: impl FnOnce(Platform) -> SystemConfig,
    plain: impl FnOnce(&mut MemorySystem) -> (K, K::Carry),
    (period, slack): (usize, usize),
    algo: impl FnOnce(&mut MemorySystem) -> R,
) -> CaseTime {
    let mut sys = MemorySystem::new(config(platform));
    // Both arms to one type: whether the main loop ran to its end.
    let run: Box<dyn FnOnce(&mut CrashEmulator) -> bool + '_> =
        if matches!(case, Case::AlgoNvm | Case::AlgoNvmDram) {
            let run = algo(&mut sys);
            Box::new(move |emu| !run(emu).is_crashed())
        } else {
            let (k, carry0) = plain(&mut sys);
            let mut mechanism = match case {
                Case::Native => Mechanism::Native,
                Case::PmemNvm => Mechanism::pmem(&mut sys, &k, period, slack),
                Case::CkptHdd => Mechanism::Ckpt {
                    mgr: CkptManager::new_hdd(k.regions(), HddTiming::local_disk()),
                    period,
                },
                _ => Mechanism::nvm_ckpt(&mut sys, &k, period, case == Case::CkptNvmDram),
            };
            Box::new(move |emu| !mechanism.run(emu, &k, carry0).is_crashed())
        };
    let t0 = sys.now();
    let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
    assert!(run(&mut emu), "a Never trigger runs to completion");
    let total = |bucket| emu.clock().bucket_total(bucket).ps();
    CaseTime {
        case,
        loop_ps: (emu.now() - t0).ps(),
        copy_ps: total(Bucket::CkptCopy) + total(Bucket::Io) + total(Bucket::Log),
        flush_ps: total(Bucket::Flush),
    }
}

/// The seven rows of a runtime figure: every case's main-loop time over
/// the native run on its own platform, after the `lead` cells, to `digits`
/// decimals.
pub fn seven_case_rows(
    t: &mut Table,
    lead: &[String],
    digits: usize,
    time_on: impl Fn(Case, Platform) -> u64,
) {
    let native_nvm = time_on(Case::Native, Platform::NvmOnly);
    let native_het = time_on(Case::Native, Platform::Hetero);
    for case in Case::ALL {
        let baseline = match case.platform() {
            Platform::NvmOnly => native_nvm,
            Platform::Hetero => native_het,
        };
        let norm = time_on(case, case.platform()) as f64 / baseline as f64;
        let mut row = lead.to_vec();
        row.extend([
            case.name().to_string(),
            case.platform().name().to_string(),
            format!("{norm:.digits$}"),
            pct_overhead(norm),
        ]);
        t.row(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_cases_with_unique_names() {
        let mut names: Vec<&str> = Case::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn hetero_cases_are_4_and_7() {
        assert_eq!(Case::CkptNvmDram.platform(), Platform::Hetero);
        assert_eq!(Case::AlgoNvmDram.platform(), Platform::Hetero);
        assert_eq!(Case::Native.platform(), Platform::NvmOnly);
        assert_eq!(Case::PmemNvm.platform(), Platform::NvmOnly);
    }
}
