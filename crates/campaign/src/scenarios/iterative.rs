//! The one adapter from an iterate-history kernel
//! ([`adcc_core::iterative::Extended`]) to a scenario: a `*-extended`
//! scenario is the kernel plus the data of [`Iterative`], and every hook
//! of [`Workload`] follows from the protocol in `adcc_core::iterative`.

use std::sync::Arc;

use adcc_core::iterative::{self, Extended};
use adcc_core::DirtyRestart;
use adcc_linalg::vecops::max_diff;
use adcc_resilience::Tolerance;
use adcc_sim::crash::{CrashEmulator, CrashSite, CrashTrigger, RunOutcome};
use adcc_sim::image::NvmImage;
use adcc_sim::system::{MemorySystem, SystemConfig};
use adcc_telemetry::ExecutionProfile;

use super::harness::{Classified, Workload};
use super::verified_completion;
use crate::scenario::{ScenarioInfo, Trial};

/// What one `*-extended` scenario states beyond its kernel.
pub(crate) struct Iterative<F> {
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
}

impl<F> Iterative<F> {
    fn matches(&self, answer: impl Into<Vec<f64>>) -> bool {
        max_diff(&answer.into(), &self.reference) < self.tol
    }
}

impl<K, F> Workload for Iterative<F>
where
    K: Extended + Send + Sync,
    K::Carry: Send + Sync,
    F: Fn(&mut MemorySystem) -> (K, K::Carry) + Send + Sync,
{
    type Live = (K, K::Carry);
    type End = K::Carry;
    type State = Classified;

    fn info(&self) -> &ScenarioInfo {
        &self.info
    }
    fn site_trigger(&self, unit: u64) -> CrashTrigger {
        (self.site_trigger)(unit)
    }

    fn setup(&self, trigger: CrashTrigger) -> (CrashEmulator, Self::Live) {
        let mut sys = MemorySystem::new(self.config.clone());
        let live = (self.setup)(&mut sys);
        (CrashEmulator::from_system(sys, trigger), live)
    }

    fn forward(
        &self,
        (k, carry0): &mut Self::Live,
        emu: &mut CrashEmulator,
    ) -> RunOutcome<K::Carry> {
        k.run(emu, 0, k.units(), *carry0)
    }

    fn recover(
        &self,
        (k, _): &Self::Live,
        _site: CrashSite,
        image: &NvmImage,
        profile: Option<ExecutionProfile>,
    ) -> Classified {
        let rec = iterative::recover_and_resume(k, image, self.config.clone());
        let detected = rec.restart_from.is_none();
        Classified::from_report(detected, self.matches(rec.solution), &rec.report, profile)
    }

    fn complete(
        &self,
        (k, _): &Self::Live,
        carry: K::Carry,
        emu: &CrashEmulator,
        profile: Option<ExecutionProfile>,
    ) -> Trial {
        verified_completion(self.matches(k.peek(emu, carry)), 0, profile)
    }

    fn dirty_reference(&self) -> Option<(Tolerance, Vec<f64>)> {
        Some((self.dirty_tolerance, self.reference.to_vec()))
    }

    fn dirty_restart(&self, (k, _): &Self::Live, image: &NvmImage) -> DirtyRestart {
        iterative::dirty_restart(k, image, self.config.clone())
    }
}
