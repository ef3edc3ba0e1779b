//! The six workloads: names, reasons, shapes and sizes.
//!
//! Every workload is a closed loop of fixed work: one campaign (or forward
//! execution) after another, each starting when the previous one returned.
//! Sizes are tuned so one timed repeat is a little over 3 s on the 2-core
//! sandbox; the shapes (registry, budget-to-dense ratio, engine) are the
//! point and must not change with the sizes.

use adcc_campaign::engine::CampaignConfig;
use adcc_campaign::scenario::Registry;
use adcc_campaign::schedule::Schedule;
use adcc_dist::net::FaultProfile;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    KernelSweep,
    ResilienceSweep,
    DistChaos,
    DsSweep,
    DsTriage,
    PaperForward,
}

/// Which public engine function a campaign workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `run_campaign`.
    Plain,
    /// `run_resilience`: the plain sweep with dirty restarts fused in.
    Resilience,
    /// `run_triage`: the plain sweep with the event recorder attached.
    Triage,
}

/// Full size, or ~1/20 of it for `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// One campaign workload's fixed work: `campaigns` back-to-back engine
/// calls, campaign `i` seeded `seed + i`.
#[derive(Debug, Clone, Copy)]
pub struct CampaignShape {
    pub engine: Engine,
    pub registry: Registry,
    pub faults: FaultProfile,
    pub budget_states: u64,
    pub dense_units: u64,
    pub campaigns: u64,
}

impl CampaignShape {
    pub fn config(&self, seed: u64, campaign: u64, threads: usize) -> CampaignConfig {
        CampaignConfig {
            seed: seed + campaign,
            budget_states: self.budget_states,
            schedule: Schedule::Stratified,
            threads,
            telemetry: false,
            dense_units: self.dense_units,
            registry: self.registry,
            faults: self.faults,
            ..CampaignConfig::default()
        }
    }

    /// The warm-up shape: one campaign at a fraction of the budget, enough
    /// to touch every scenario's setup, harvest and recovery code once.
    pub fn warmup(&self) -> CampaignShape {
        CampaignShape {
            budget_states: (self.budget_states / 4).max(40),
            campaigns: 1,
            ..*self
        }
    }
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::KernelSweep,
        Workload::ResilienceSweep,
        Workload::DistChaos,
        Workload::DsSweep,
        Workload::DsTriage,
        Workload::PaperForward,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KernelSweep => "kernel-sweep",
            Workload::ResilienceSweep => "resilience-sweep",
            Workload::DistChaos => "dist-chaos",
            Workload::DsSweep => "ds-sweep",
            Workload::DsTriage => "ds-triage",
            Workload::PaperForward => "paper-forward",
        }
    }

    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload '{name}' (expected one of: {})",
                    names.join(", ")
                )
            })
    }

    /// Why the workload exists, with its final full size (one line, goes
    /// into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::KernelSweep => {
                "8 x run_campaign, kernel registry, budget 260 dense 400: per-state image materialize + reboot + recover/resume in sim/core do nearly all the work; the kernel hot path must show here"
            }
            Workload::ResilienceSweep => {
                "8 x run_resilience, kernel registry, budget 130 dense 400: same harvest, dirty reboot with no recovery, two forward executions per chunk; catches a recover-path gain that costs the dirty path"
            }
            Workload::DistChaos => {
                "14 x run_campaign, dist registry, faults chaotic, budget 1500 dense 80: cluster fork, cached reference, transport retries, node loss; small images, so fixed per-campaign cost is visible"
            }
            Workload::DsSweep => {
                "44 x run_campaign, ds registry, budget 1200: op replay + undo recovery at ~0.06 ms/state, engine overhead is the largest share; a kernel-path optimisation must not move it"
            }
            Workload::DsTriage => {
                "44 x run_triage over the ds-sweep plan: same registry with the event recorder attached and the sanitizer consuming the trace; a ds-sweep gain that costs the recorded path shows here"
            }
            Workload::PaperForward => {
                "crash-free CG class A, ABFT-MM n=256 k=16, MC 68x2048x12000 under native/ckpt/pmem/algo, 1 thread: per-access sim hot path only; bypasses every crash-path optimisation"
            }
        }
    }

    /// The campaign shape; `None` for `paper-forward`.
    pub fn shape(self, scale: Scale) -> Option<CampaignShape> {
        let full = scale == Scale::Full;
        let pick = |full_v: u64, smoke_v: u64| if full { full_v } else { smoke_v };
        let shape = match self {
            Workload::KernelSweep => CampaignShape {
                engine: Engine::Plain,
                registry: Registry::Kernel,
                faults: FaultProfile::Off,
                budget_states: pick(260, 104),
                dense_units: 400,
                campaigns: pick(8, 1),
            },
            Workload::ResilienceSweep => CampaignShape {
                engine: Engine::Resilience,
                registry: Registry::Kernel,
                faults: FaultProfile::Off,
                budget_states: pick(130, 52),
                dense_units: 400,
                campaigns: pick(8, 1),
            },
            Workload::DistChaos => CampaignShape {
                engine: Engine::Plain,
                registry: Registry::Dist,
                faults: FaultProfile::Chaotic,
                budget_states: pick(1500, 1050),
                dense_units: 80,
                campaigns: pick(14, 1),
            },
            Workload::DsSweep => CampaignShape {
                engine: Engine::Plain,
                registry: Registry::Ds,
                faults: FaultProfile::Off,
                budget_states: 1200,
                dense_units: 0,
                campaigns: pick(44, 2),
            },
            Workload::DsTriage => CampaignShape {
                engine: Engine::Triage,
                registry: Registry::Ds,
                faults: FaultProfile::Off,
                budget_states: 1200,
                dense_units: 0,
                campaigns: pick(44, 2),
            },
            Workload::PaperForward => return None,
        };
        Some(shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_parse_back_and_whys_fit_the_manifest() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Ok(w));
            assert!(w.why().len() <= 200, "{}: {}", w.name(), w.why().len());
            assert!(!w.why().contains('\n'));
        }
        assert!(Workload::parse("bogus")
            .unwrap_err()
            .contains("kernel-sweep"));
    }

    #[test]
    fn smoke_is_about_a_twentieth_and_keeps_the_shape() {
        for w in Workload::ALL {
            let (Some(full), Some(smoke)) = (w.shape(Scale::Full), w.shape(Scale::Smoke)) else {
                continue;
            };
            let work = |s: &CampaignShape| s.budget_states * s.campaigns;
            let ratio = work(&full) as f64 / work(&smoke) as f64;
            assert!((15.0..=25.0).contains(&ratio), "{}: {ratio}", w.name());
            assert_eq!(full.engine, smoke.engine);
            assert_eq!(full.registry, smoke.registry);
            assert_eq!(full.faults, smoke.faults);
            assert_eq!(full.dense_units, smoke.dense_units);
        }
    }
}
