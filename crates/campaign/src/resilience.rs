//! EasyCrash-style natural-resilience sweep over a campaign schedule.
//!
//! `run_resilience` is the fused engine behind `campaign run --resilience`:
//! it runs the campaign's schedule through the plain recovery machinery
//! (so the report's outcome section matches a plain run byte-for-byte)
//! and, for every scenario with a dirty-restart step
//! ([`crate::scenario::Passes::dirty`]), reboots each harvested crash
//! image from the raw dirty NVM state with **no**
//! consistency mechanism — no undo replay, no checkpoint rollback, no
//! invariant scan — runs it to the scenario's natural termination bound,
//! and classifies the answer on the five-way
//! [`adcc_resilience::DirtyClass`] ladder.
//!
//! The per-scenario aggregate lands in the report's schema-v7
//! `natural_resilience` block. Scenarios without a dirty-restart path
//! (the `ds` op-stream workloads, whose structures have no iteration loop
//! to re-enter) carry no block, so the sweep degrades gracefully across
//! registries.
//!
//! Determinism matches the plain engine: dirty trials are pure functions
//! of `(scenario, unit)`, results merge in schedule order, and the
//! aggregate stores only integer counters — reruns and any worker-thread
//! count produce byte-identical canonical reports.

use crate::engine::{assemble, drive, CampaignConfig};
use crate::report::CampaignReport;
use crate::scenario::{Passes, Scenario};

/// Run the campaign described by `cfg` with the dirty-restart sweep
/// fused in: every batch task asks its scenario for the recover and the
/// dirty pass of **one** forward execution. The outcome section equals a
/// plain [`crate::engine::run_campaign`] of the same config; scenarios
/// with a dirty-restart step additionally carry a `natural_resilience`
/// block. Deterministic in the config's canonical inputs; the thread
/// count only affects wall-clock.
pub fn run_resilience(cfg: &CampaignConfig) -> CampaignReport {
    let passes = Passes::recover(cfg.telemetry).and_dirty();
    assemble(cfg, drive(cfg, passes, Scenario::harvest), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_campaign;
    use crate::scenario::Registry;
    use crate::schedule::Schedule;
    use adcc_resilience::DirtyClass;

    fn tiny_cfg(registry: Registry) -> CampaignConfig {
        CampaignConfig {
            seed: 42,
            budget_states: 40,
            schedule: Schedule::Stratified,
            threads: 1,
            registry,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn kernel_sweep_covers_every_scenario_and_matches_the_plain_outcomes() {
        let cfg = tiny_cfg(Registry::Kernel);
        let fused = run_resilience(&cfg);
        // The dirty sweep is side-effect-free on the recovery machinery:
        // outcomes must equal a plain run of the same inputs.
        let plain = run_campaign(&cfg);
        assert_eq!(fused.totals, plain.totals);
        for (a, b) in fused.scenarios.iter().zip(&plain.scenarios) {
            assert_eq!(a.outcomes, b.outcomes, "{}", a.name);
            assert_eq!(a.sim_time_ps_total, b.sim_time_ps_total, "{}", a.name);
            // Every kernel scenario has a dirty-restart path and every
            // scheduled unit classifies somewhere on the ladder.
            let r = a.natural_resilience.as_ref().unwrap_or_else(|| {
                panic!("{}: kernel scenario without a resilience block", a.name)
            });
            assert_eq!(r.trials(), a.trials, "{}", a.name);
        }
    }

    #[test]
    fn report_is_thread_count_invariant() {
        let mut cfg = tiny_cfg(Registry::Kernel);
        let one = run_resilience(&cfg).canonical_string();
        cfg.threads = 4;
        let four = run_resilience(&cfg).canonical_string();
        assert_eq!(one, four);
        assert!(one.contains("natural_resilience"));
    }

    #[test]
    fn ds_registry_has_no_dirty_restart_path() {
        let fused = run_resilience(&tiny_cfg(Registry::Ds));
        for s in &fused.scenarios {
            assert!(s.natural_resilience.is_none(), "{}", s.name);
        }
        assert!(!fused.canonical_string().contains("natural_resilience"));
    }

    /// The PR tier's resilience gate (`campaign run --resilience` at the
    /// kernel smoke config: seed 42, 500 states), asserted on the library.
    #[test]
    fn iterative_kernels_show_the_easycrash_contrast() {
        // The paper's natural-consistency claim: iterative solvers absorb
        // dirty restarts (nonzero converged-ok), while the exact-answer MC
        // audit path cannot (its dirty restarts never classify ok).
        let cfg = CampaignConfig {
            budget_states: 500,
            threads: 0,
            ..tiny_cfg(Registry::Kernel)
        };
        let report = run_resilience(&cfg);
        let of = |name: &str| {
            let s = report
                .scenarios
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("scenario {name} missing"));
            s.natural_resilience.as_ref().expect("resilience block")
        };
        assert!(
            of("cg-extended").classes.converged_ok() > 0,
            "iterative CG absorbed no dirty restart at all"
        );
        for mc in ["mc-selective", "mc-epoch"] {
            assert!(
                of(mc).classes.get(DirtyClass::DetectedDirtyAgain) > 0,
                "{mc}: the MC audit never rejected a dirty image"
            );
        }
    }

    /// The same contrast on the dist registry (nightly sweeps a deep dist
    /// campaign with `campaign run --resilience`; this is the gate):
    /// the algorithm-directed protocol's NVM residue *is* the frontier
    /// iterate, so every dirty reboot of a `-local` scenario converges
    /// exactly, while a `-restart` scenario rebooted without its
    /// checkpoint mechanism never absorbs them all.
    #[test]
    fn dist_local_scenarios_absorb_every_dirty_reboot_and_restart_ones_do_not() {
        let report = run_resilience(&CampaignConfig {
            budget_states: 300,
            dense_units: 40,
            threads: 0,
            ..tiny_cfg(Registry::Dist)
        });
        for s in &report.scenarios {
            let r = s.natural_resilience.as_ref().expect("resilience block");
            assert!(r.trials() > 0, "{}", s.name);
            if s.name.ends_with("-local") {
                let exact = r.classes.get(DirtyClass::ConvergedExact);
                assert_eq!(exact, r.trials(), "{}", s.name);
            } else {
                assert!(r.classes.converged_ok() < r.trials(), "{}", s.name);
            }
        }
    }
}
