//! # adcc-resilience — EasyCrash-style dirty restarts
//!
//! EasyCrash (PAPERS.md) asks the question every consistency mechanism
//! should be benchmarked against: if an application simply reboots from
//! the raw dirty NVM image — no undo replay, no checkpoint rollback, no
//! invariant scan — how often does it still finish with an answer that is
//! right, or right enough? Iterative HPC kernels contract small state
//! perturbations toward their fixed point, so the answer is often "more
//! than you'd think", and that *natural resilience* is the baseline the
//! paper's algorithm-directed schemes implicitly rely on.
//!
//! This crate holds the mechanism-agnostic half of the measurement:
//!
//! * [`DirtyClass`] — the five-way classification ladder for one dirty
//!   restart (`converged-exact` … `detected-dirty-again`).
//! * [`Tolerance`] — the per-scenario residual tolerances that draw the
//!   ladder's boundaries, with [`Tolerance::classify`] applying them in
//!   priority order.
//! * [`DirtyTrial`] / [`DirtyClassCounts`] / [`NaturalResilience`] — one
//!   classified restart, the histogram, and the per-scenario aggregate
//!   (rates, mean extra work units to converge, simulated restart time)
//!   that `adcc_campaign` rolls into report schema v7.
//!
//! The kernels' dirty-reboot entry points live next to each kernel
//! (`adcc_core`, `adcc_dist`); the campaign engine feeds their results
//! through this crate so every scenario is scored on the same ladder.

/// Outcome of one dirty restart, in classification-priority order.
///
/// The ladder is applied top to bottom: an application-level audit firing
/// beats everything (the restart never produced an answer), divergence
/// beats any residual comparison, and only then is the answer's distance
/// to the crash-free reference binned by the scenario's tolerances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirtyClass {
    /// The restarted run reproduced the reference answer within the
    /// scenario's exact tolerance (usually the match tolerance the
    /// mechanism campaign itself uses).
    ConvergedExact,
    /// The answer is wrong but within the scenario's acceptable residual
    /// tolerance — a domain scientist would keep it.
    ConvergedAcceptable,
    /// The run terminated with a finite answer outside the acceptable
    /// tolerance: a silent wrong result.
    ConvergedWrong,
    /// The run produced non-finite values or drifted past the divergence
    /// bound — numerically destroyed by the dirty state.
    Diverged,
    /// The application's own sanity audit (counter out of range, count
    /// total mismatch) rejected the dirty image before producing an
    /// answer. Detected, but the work is lost *again*.
    DetectedDirtyAgain,
}

impl DirtyClass {
    /// Every class, in report-histogram order.
    pub const ALL: [DirtyClass; 5] = [
        DirtyClass::ConvergedExact,
        DirtyClass::ConvergedAcceptable,
        DirtyClass::ConvergedWrong,
        DirtyClass::Diverged,
        DirtyClass::DetectedDirtyAgain,
    ];

    /// Stable identifier used in report JSON (the ISSUE's kebab names).
    pub fn name(self) -> &'static str {
        match self {
            DirtyClass::ConvergedExact => "converged-exact",
            DirtyClass::ConvergedAcceptable => "converged-acceptable",
            DirtyClass::ConvergedWrong => "converged-wrong",
            DirtyClass::Diverged => "diverged",
            DirtyClass::DetectedDirtyAgain => "detected-dirty-again",
        }
    }

    /// Parse the identifier emitted by [`DirtyClass::name`].
    pub fn from_name(name: &str) -> Option<DirtyClass> {
        DirtyClass::ALL.into_iter().find(|c| c.name() == name)
    }

    /// Did the restart end with the right-enough answer?
    pub fn is_converged_ok(self) -> bool {
        matches!(
            self,
            DirtyClass::ConvergedExact | DirtyClass::ConvergedAcceptable
        )
    }
}

/// Per-scenario residual tolerances drawing the ladder's boundaries.
///
/// All three bounds compare the restarted run's answer to the crash-free
/// reference in the scenario's own metric (max absolute difference for
/// the solver kernels).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// At or below this the answer counts as exact (reference-equal).
    pub exact: f64,
    /// At or below this the answer is acceptable to the domain.
    pub acceptable: f64,
    /// Above this (or non-finite) the run is classified diverged.
    pub divergence: f64,
}

impl Tolerance {
    /// A ladder with the given exact/acceptable bounds and a divergence
    /// bound a fixed factor above acceptable.
    pub fn new(exact: f64, acceptable: f64, divergence: f64) -> Tolerance {
        let t = Tolerance {
            exact,
            acceptable,
            divergence,
        };
        assert!(t.is_ordered(), "tolerance ladder out of order: {t:?}");
        t
    }

    /// Exact-or-nothing: any mismatch beyond `exact` is wrong, anything
    /// non-finite diverged (integer-result kernels like MC).
    pub fn exact_only(exact: f64) -> Tolerance {
        Tolerance {
            exact,
            acceptable: exact,
            divergence: f64::MAX,
        }
    }

    fn is_ordered(&self) -> bool {
        self.exact >= 0.0 && self.exact <= self.acceptable && self.acceptable <= self.divergence
    }

    /// Apply the ladder: `detected` is the application's own audit
    /// verdict, `diff` the distance to the crash-free reference.
    pub fn classify(&self, detected: bool, diff: f64) -> DirtyClass {
        debug_assert!(self.is_ordered(), "tolerance ladder out of order");
        if detected {
            DirtyClass::DetectedDirtyAgain
        } else if !diff.is_finite() || diff > self.divergence {
            DirtyClass::Diverged
        } else if diff <= self.exact {
            DirtyClass::ConvergedExact
        } else if diff <= self.acceptable {
            DirtyClass::ConvergedAcceptable
        } else {
            DirtyClass::ConvergedWrong
        }
    }
}

/// One classified dirty restart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirtyTrial {
    /// The campaign unit (crash point) this restart rebooted from.
    pub unit: u64,
    /// Where the restart landed on the ladder.
    pub class: DirtyClass,
    /// Work units (iterations, sweeps, blocks, lookups) the dirty restart
    /// executed beyond the crash frontier — the price of convergence.
    pub extra_units: u64,
    /// Simulated time of the dirty continuation (attributed to the
    /// resume bucket).
    pub sim_time_ps: u64,
}

/// Histogram over [`DirtyClass`] (one per scenario, plus campaign total).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirtyClassCounts {
    /// Trials classified [`DirtyClass::ConvergedExact`].
    pub converged_exact: u64,
    /// Trials classified [`DirtyClass::ConvergedAcceptable`].
    pub converged_acceptable: u64,
    /// Trials classified [`DirtyClass::ConvergedWrong`].
    pub converged_wrong: u64,
    /// Trials classified [`DirtyClass::Diverged`].
    pub diverged: u64,
    /// Trials classified [`DirtyClass::DetectedDirtyAgain`].
    pub detected_dirty_again: u64,
}

impl DirtyClassCounts {
    /// Count one class.
    pub fn add(&mut self, class: DirtyClass) {
        *self.slot_mut(class) += 1;
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &DirtyClassCounts) {
        for c in DirtyClass::ALL {
            *self.slot_mut(c) += other.get(c);
        }
    }

    /// Count for one class.
    pub fn get(&self, class: DirtyClass) -> u64 {
        match class {
            DirtyClass::ConvergedExact => self.converged_exact,
            DirtyClass::ConvergedAcceptable => self.converged_acceptable,
            DirtyClass::ConvergedWrong => self.converged_wrong,
            DirtyClass::Diverged => self.diverged,
            DirtyClass::DetectedDirtyAgain => self.detected_dirty_again,
        }
    }

    /// Mutable slot for one class (parse/merge plumbing).
    pub fn slot_mut(&mut self, class: DirtyClass) -> &mut u64 {
        match class {
            DirtyClass::ConvergedExact => &mut self.converged_exact,
            DirtyClass::ConvergedAcceptable => &mut self.converged_acceptable,
            DirtyClass::ConvergedWrong => &mut self.converged_wrong,
            DirtyClass::Diverged => &mut self.diverged,
            DirtyClass::DetectedDirtyAgain => &mut self.detected_dirty_again,
        }
    }

    /// Trials counted across every class.
    pub fn total(&self) -> u64 {
        DirtyClass::ALL.iter().map(|&c| self.get(c)).sum()
    }

    /// Trials that ended converged-exact or converged-acceptable.
    pub fn converged_ok(&self) -> u64 {
        self.converged_exact + self.converged_acceptable
    }
}

/// Per-scenario natural-resilience aggregate: the `natural_resilience`
/// block of report schema v7.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NaturalResilience {
    /// The tolerance ladder every trial was scored with.
    pub tolerance: Tolerance,
    /// Class histogram over the scenario's dirty restarts.
    pub classes: DirtyClassCounts,
    /// Extra work units summed over converged-ok trials only (wrong or
    /// diverged runs spent work too, but there is no convergence to
    /// price).
    pub extra_units_total: u64,
    /// Simulated dirty-continuation time summed over all trials.
    pub sim_time_ps_total: u64,
}

impl NaturalResilience {
    /// An empty aggregate for the given ladder.
    pub fn new(tolerance: Tolerance) -> NaturalResilience {
        NaturalResilience {
            tolerance,
            classes: DirtyClassCounts::default(),
            extra_units_total: 0,
            sim_time_ps_total: 0,
        }
    }

    /// Aggregate a scenario's classified restarts.
    pub fn from_trials(tolerance: Tolerance, trials: &[DirtyTrial]) -> NaturalResilience {
        let mut agg = NaturalResilience::new(tolerance);
        for t in trials {
            agg.add(t);
        }
        agg
    }

    /// Fold one trial in.
    pub fn add(&mut self, trial: &DirtyTrial) {
        self.classes.add(trial.class);
        if trial.class.is_converged_ok() {
            self.extra_units_total += trial.extra_units;
        }
        self.sim_time_ps_total += trial.sim_time_ps;
    }

    /// Fold another aggregate in (shard/batch merge). The tolerances must
    /// agree — they are per-scenario constants.
    pub fn merge(&mut self, other: &NaturalResilience) {
        assert_eq!(
            self.tolerance, other.tolerance,
            "merging resilience aggregates with different tolerances"
        );
        self.classes.merge(&other.classes);
        self.extra_units_total += other.extra_units_total;
        self.sim_time_ps_total += other.sim_time_ps_total;
    }

    /// Trials aggregated.
    pub fn trials(&self) -> u64 {
        self.classes.total()
    }

    /// Per-class rate in parts-per-million of all trials (exact integer
    /// arithmetic, so reports stay byte-reproducible).
    pub fn rate_ppm(&self, class: DirtyClass) -> u64 {
        (self.classes.get(class) * 1_000_000)
            .checked_div(self.classes.total())
            .unwrap_or(0)
    }

    /// Mean extra work units per converged-ok trial, in thousandths
    /// (`None` when nothing converged).
    pub fn mean_extra_units_milli(&self) -> Option<u64> {
        (self.extra_units_total * 1_000).checked_div(self.classes.converged_ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_priority_order() {
        let t = Tolerance::new(1e-9, 1e-3, 1e6);
        // Detection wins even over a perfect answer.
        assert_eq!(t.classify(true, 0.0), DirtyClass::DetectedDirtyAgain);
        assert_eq!(t.classify(false, f64::NAN), DirtyClass::Diverged);
        assert_eq!(t.classify(false, f64::INFINITY), DirtyClass::Diverged);
        assert_eq!(t.classify(false, 1e7), DirtyClass::Diverged);
        assert_eq!(t.classify(false, 0.0), DirtyClass::ConvergedExact);
        assert_eq!(t.classify(false, 1e-10), DirtyClass::ConvergedExact);
        assert_eq!(t.classify(false, 1e-5), DirtyClass::ConvergedAcceptable);
        assert_eq!(t.classify(false, 0.5), DirtyClass::ConvergedWrong);
    }

    #[test]
    fn ladder_boundaries_are_inclusive() {
        let t = Tolerance::new(1e-9, 1e-3, 1e6);
        assert_eq!(t.classify(false, 1e-9), DirtyClass::ConvergedExact);
        assert_eq!(t.classify(false, 1e-3), DirtyClass::ConvergedAcceptable);
        assert_eq!(t.classify(false, 1e6), DirtyClass::ConvergedWrong);
    }

    #[test]
    fn exact_only_has_no_acceptable_band() {
        let t = Tolerance::exact_only(0.0);
        assert_eq!(t.classify(false, 0.0), DirtyClass::ConvergedExact);
        assert_eq!(t.classify(false, 1e-300), DirtyClass::ConvergedWrong);
        assert_eq!(t.classify(false, f64::NAN), DirtyClass::Diverged);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn unordered_ladder_is_rejected() {
        Tolerance::new(1e-3, 1e-9, 1e6);
    }

    #[test]
    fn names_roundtrip() {
        for c in DirtyClass::ALL {
            assert_eq!(DirtyClass::from_name(c.name()), Some(c));
        }
        assert_eq!(DirtyClass::from_name("nope"), None);
    }

    #[test]
    fn counts_add_merge_total() {
        let mut a = DirtyClassCounts::default();
        a.add(DirtyClass::ConvergedExact);
        a.add(DirtyClass::ConvergedAcceptable);
        a.add(DirtyClass::ConvergedWrong);
        let mut b = DirtyClassCounts::default();
        b.add(DirtyClass::Diverged);
        b.merge(&a);
        assert_eq!(b.total(), 4);
        assert_eq!(b.converged_ok(), 2);
        assert_eq!(b.get(DirtyClass::ConvergedWrong), 1);
    }

    #[test]
    fn aggregate_prices_only_converged_ok_trials() {
        let t = Tolerance::new(1e-9, 1e-3, 1e6);
        let trials = [
            DirtyTrial {
                unit: 0,
                class: DirtyClass::ConvergedExact,
                extra_units: 4,
                sim_time_ps: 100,
            },
            DirtyTrial {
                unit: 1,
                class: DirtyClass::ConvergedAcceptable,
                extra_units: 6,
                sim_time_ps: 150,
            },
            DirtyTrial {
                unit: 2,
                class: DirtyClass::ConvergedWrong,
                extra_units: 99,
                sim_time_ps: 50,
            },
        ];
        let agg = NaturalResilience::from_trials(t, &trials);
        assert_eq!(agg.trials(), 3);
        assert_eq!(agg.extra_units_total, 10);
        assert_eq!(agg.sim_time_ps_total, 300);
        assert_eq!(agg.mean_extra_units_milli(), Some(5_000));
        assert_eq!(agg.rate_ppm(DirtyClass::ConvergedWrong), 333_333);
    }

    #[test]
    fn empty_aggregate_rates_are_zero() {
        let agg = NaturalResilience::new(Tolerance::exact_only(0.0));
        assert_eq!(agg.trials(), 0);
        assert_eq!(agg.rate_ppm(DirtyClass::ConvergedExact), 0);
        assert_eq!(agg.mean_extra_units_milli(), None);
    }

    #[test]
    fn merge_is_additive() {
        let t = Tolerance::new(1e-9, 1e-3, 1e6);
        let mut a = NaturalResilience::from_trials(
            t,
            &[DirtyTrial {
                unit: 0,
                class: DirtyClass::ConvergedExact,
                extra_units: 2,
                sim_time_ps: 10,
            }],
        );
        let b = NaturalResilience::from_trials(
            t,
            &[DirtyTrial {
                unit: 1,
                class: DirtyClass::DetectedDirtyAgain,
                extra_units: 0,
                sim_time_ps: 5,
            }],
        );
        a.merge(&b);
        assert_eq!(a.trials(), 2);
        assert_eq!(a.classes.detected_dirty_again, 1);
        assert_eq!(a.sim_time_ps_total, 15);
    }
}
