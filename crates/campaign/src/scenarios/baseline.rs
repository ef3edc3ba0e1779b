//! The one adapter from a plain kernel under the baseline mechanisms
//! ([`adcc_core::baseline::Baseline`]) to a `*-ckpt` scenario: the kernel
//! plus the data of [`Checkpointed`], every hook of [`Workload`] following
//! from the protocol in `adcc_core::baseline` — a double-buffered NVM
//! checkpoint every unit, restore → resume at recovery.

use std::sync::Arc;

use adcc_ckpt::manager::CkptManager;
use adcc_core::baseline::{self, Baseline};
use adcc_core::DirtyRestart;
use adcc_linalg::vecops::max_diff;
use adcc_resilience::Tolerance;
use adcc_sim::crash::{CrashEmulator, CrashSite, CrashTrigger, RunOutcome};
use adcc_sim::image::NvmImage;
use adcc_sim::system::{MemorySystem, SystemConfig};
use adcc_telemetry::ExecutionProfile;

use super::harness::Workload;
use super::verified_completion;
use crate::scenario::{Classified, ScenarioInfo};

/// Units re-executed by a crash at `site`, given the unit the restored run
/// resumed at.
pub(crate) type LostUnits = fn(site: CrashSite, start: usize) -> u64;

/// The common charge: every polled site of unit `index` sits after its
/// work, so completed-but-uncheckpointed units are re-executed.
pub(crate) fn lost_since(site: CrashSite, start: usize) -> u64 {
    (site.index + 1).saturating_sub(start as u64)
}

/// What one `*-ckpt` scenario states beyond its kernel.
pub(crate) struct Checkpointed<K: Baseline, F> {
    pub info: ScenarioInfo,
    pub site_trigger: fn(u64) -> CrashTrigger,
    pub config: SystemConfig,
    /// Max elementwise difference below which an answer matches.
    pub tol: f64,
    pub dirty_tolerance: Tolerance,
    /// The crash-free answer, shared by the family's scenarios.
    pub reference: Arc<[f64]>,
    /// Set the kernel up on a fresh machine: its handle and the carry
    /// entering unit 0.
    pub setup: F,
    pub lost_units: LostUnits,
    /// The EasyCrash-style restart: [`baseline::dirty_restart`] for the
    /// kernels whose loop it re-enters.
    pub dirty_restart: fn(&K, &NvmImage, SystemConfig, K::Carry) -> DirtyRestart,
}

impl<K: Baseline, F> Checkpointed<K, F>
where
    K::Answer: Into<Vec<f64>>,
{
    fn matches(&self, k: &K, sys: &MemorySystem) -> bool {
        max_diff(&k.peek(sys).into(), &self.reference) < self.tol
    }
}

impl<K, F> Workload for Checkpointed<K, F>
where
    K: Baseline + Send + Sync,
    K::Carry: Send + Sync,
    K::Answer: Into<Vec<f64>>,
    F: Fn(&mut MemorySystem) -> (K, K::Carry) + Send + Sync,
{
    type Live = (K, K::Carry, baseline::Mechanism);
    type End = K::Carry;

    fn info(&self) -> &ScenarioInfo {
        &self.info
    }
    fn site_trigger(&self, unit: u64) -> CrashTrigger {
        (self.site_trigger)(unit)
    }

    fn setup(&self, trigger: CrashTrigger) -> (CrashEmulator, Self::Live) {
        let mut sys = MemorySystem::new(self.config.clone());
        let (k, carry0) = (self.setup)(&mut sys);
        let mgr = CkptManager::new_nvm(&mut sys, k.regions(), false);
        let every_unit = baseline::Mechanism::Ckpt { mgr, period: 1 };
        (
            CrashEmulator::from_system(sys, trigger),
            (k, carry0, every_unit),
        )
    }

    fn forward(
        &self,
        (k, carry0, mechanism): &mut Self::Live,
        emu: &mut CrashEmulator,
    ) -> RunOutcome<K::Carry> {
        mechanism.run(emu, k, *carry0)
    }

    fn recover(
        &self,
        (k, carry0, mechanism): &Self::Live,
        site: CrashSite,
        image: &NvmImage,
        profile: Option<ExecutionProfile>,
    ) -> Classified {
        let sys = MemorySystem::from_image(self.config.clone(), image);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        let t0 = emu.now();
        let (start, carry, restored) = mechanism.restore(&mut emu, k, *carry0);
        baseline::resume(&mut emu, k, start, carry);
        Classified::new(
            !restored,
            self.matches(k, &emu),
            (self.lost_units)(site, start),
            (emu.now() - t0).ps(),
            profile,
        )
    }

    fn complete(
        &self,
        (k, ..): &Self::Live,
        _carry: K::Carry,
        emu: &CrashEmulator,
        profile: Option<ExecutionProfile>,
    ) -> Classified {
        verified_completion(self.matches(k, emu), profile)
    }

    fn dirty_reference(&self) -> Option<(Tolerance, Vec<f64>)> {
        Some((self.dirty_tolerance, self.reference.to_vec()))
    }

    fn dirty_restart(&self, (k, carry0, _): &Self::Live, image: &NvmImage) -> DirtyRestart {
        (self.dirty_restart)(k, image, self.config.clone(), *carry0)
    }
}
