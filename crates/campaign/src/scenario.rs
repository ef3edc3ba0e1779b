//! The scenario registry: every workload × persistence-mechanism pair the
//! campaign engine can inject crashes into.

use adcc_core::RecoveryReport;
use adcc_dist::net::FaultProfile;
use adcc_sim::crash::CrashTrigger;
use adcc_telemetry::ExecutionProfile;

use crate::memstats::ImageMemory;
use crate::outcome::{classify, Outcome};
use crate::scenarios;

/// Kernel family (the paper's three workloads plus the extension kernels
/// and the persistent data-structure workloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Conjugate gradient (the paper's main workload).
    Cg,
    /// BiCGSTAB (extension kernel).
    BiCgStab,
    /// Jacobi iteration (extension kernel).
    Jacobi,
    /// Heat stencil (extension kernel).
    Stencil,
    /// Checksum-protected blocked LU (extension kernel).
    Lu,
    /// Monte-Carlo particle transport (paper workload).
    Mc,
    /// Persistent MSC queue (`adcc::ds` workload).
    Queue,
    /// Persistent open-addressing hash table (`adcc::ds` workload).
    Hash,
}

impl Kernel {
    /// Every kernel family.
    pub const ALL: [Kernel; 8] = [
        Kernel::Cg,
        Kernel::BiCgStab,
        Kernel::Jacobi,
        Kernel::Stencil,
        Kernel::Lu,
        Kernel::Mc,
        Kernel::Queue,
        Kernel::Hash,
    ];

    /// The compute-kernel families covered by the default (`kernel`)
    /// registry.
    pub const COMPUTE: [Kernel; 6] = [
        Kernel::Cg,
        Kernel::BiCgStab,
        Kernel::Jacobi,
        Kernel::Stencil,
        Kernel::Lu,
        Kernel::Mc,
    ];

    /// Stable identifier used in report JSON.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Cg => "cg",
            Kernel::BiCgStab => "bicgstab",
            Kernel::Jacobi => "jacobi",
            Kernel::Stencil => "stencil",
            Kernel::Lu => "lu",
            Kernel::Mc => "mc",
            Kernel::Queue => "queue",
            Kernel::Hash => "hash",
        }
    }

    /// The family whose [`Kernel::name`] is `name`.
    pub fn parse(name: &str) -> Result<Kernel, String> {
        let found = Kernel::ALL.into_iter().find(|k| k.name() == name);
        found.ok_or_else(|| format!("unknown kernel '{name}'"))
    }
}

/// Persistence mechanism under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// The paper's algorithm extension (history arrays / checksums).
    Extended,
    /// Algorithm extension with a bounded history ring.
    ExtendedWindowed,
    /// Per-unit checkpoint/restart through `CkptManager`.
    Checkpoint,
    /// PMDK-style undo-log transactions.
    Pmem,
    /// MC selective flushing with replay recovery.
    Selective,
    /// MC epoch-tagged counters (exact replay).
    Epoch,
    /// No transactional protection: tagged writes + batched epoch syncs,
    /// detect-and-rebuild recovery (the `adcc::ds` unprotected baseline).
    Baseline,
}

impl Mechanism {
    /// Every mechanism.
    pub const ALL: [Mechanism; 7] = [
        Mechanism::Extended,
        Mechanism::ExtendedWindowed,
        Mechanism::Checkpoint,
        Mechanism::Pmem,
        Mechanism::Selective,
        Mechanism::Epoch,
        Mechanism::Baseline,
    ];

    /// Stable identifier used in report JSON.
    pub fn name(self) -> &'static str {
        match self {
            Mechanism::Extended => "extended",
            Mechanism::ExtendedWindowed => "extended-windowed",
            Mechanism::Checkpoint => "checkpoint",
            Mechanism::Pmem => "pmem",
            Mechanism::Selective => "selective",
            Mechanism::Epoch => "epoch",
            Mechanism::Baseline => "baseline",
        }
    }

    /// The mechanism whose [`Mechanism::name`] is `name`.
    pub fn parse(name: &str) -> Result<Mechanism, String> {
        let found = Mechanism::ALL.into_iter().find(|m| m.name() == name);
        found.ok_or_else(|| format!("unknown mechanism '{name}'"))
    }
}

/// A named scenario registry the campaign engine can sweep, selected by
/// name (`campaign run --registry <name>`). The selected registry is part
/// of the report format: reports carry a `registry` header whenever a
/// non-default registry produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Registry {
    /// The default single-node compute-kernel registry.
    #[default]
    Kernel,
    /// The distributed (`adcc::dist`) registry: multi-rank kernels under
    /// rank-granular crash injection.
    Dist,
    /// The persistent data-structure (`adcc::ds`) registry: queue/hash
    /// op-stream workloads under undo-logged and baseline protection.
    Ds,
}

impl Registry {
    /// Every registry, in documentation order.
    pub const ALL: [Registry; 3] = [Registry::Kernel, Registry::Dist, Registry::Ds];

    /// Stable identifier used by `--registry` and in report JSON.
    pub fn name(self) -> &'static str {
        match self {
            Registry::Kernel => "kernel",
            Registry::Dist => "dist",
            Registry::Ds => "ds",
        }
    }

    /// Parse a `--registry` value. Unknown names list the valid set.
    pub fn parse(name: &str) -> Result<Registry, String> {
        match name {
            "kernel" => Ok(Registry::Kernel),
            "dist" => Ok(Registry::Dist),
            "ds" => Ok(Registry::Ds),
            other => Err(format!(
                "unknown registry '{other}' (expected one of: kernel, dist, ds)"
            )),
        }
    }

    /// Build this registry's scenario list with the fabric fault profile
    /// every constituent cluster injects. Only the `dist` registry reacts
    /// to the profile (its kernels own fabrics); the others ignore it.
    /// Order is part of the report format: reports list scenarios in
    /// registry order, and the determinism suite compares reports
    /// byte-for-byte.
    pub fn scenarios_with(self, faults: FaultProfile) -> Vec<Box<dyn Scenario>> {
        match self {
            Registry::Kernel => scenarios::all(),
            Registry::Dist => scenarios::dist::all_with(faults),
            Registry::Ds => scenarios::ds::all(),
        }
    }

    /// Build this registry's scenario list under the faultless profile.
    pub fn scenarios(self) -> Vec<Box<dyn Scenario>> {
        self.scenarios_with(FaultProfile::Off)
    }
}

/// One trial of an analyzer-instrumented batch: the classified
/// [`Trial`] plus the persist-order sanitizer's crash facts at its crash
/// point (tracked lines dirty or flushed-but-unfenced when the crash
/// image was harvested). Completion trials carry no facts.
#[derive(Debug, Clone)]
pub struct AnalyzedTrial {
    /// The classified trial, identical to the plain batch path's.
    pub trial: Trial,
    /// Sanitizer crash facts at this trial's crash point.
    pub facts: Vec<adcc_analyze::Diagnostic>,
}

/// Output of one analyzer-instrumented batch execution
/// ([`Scenario::run_analyzed`]).
#[derive(Debug, Clone, Default)]
pub struct AnalyzedBatch {
    /// Per-unit analyzed trials, in engine (schedule) order.
    pub trials: Vec<AnalyzedTrial>,
    /// Protocol violations of the completed forward execution. A clean
    /// tree reports none; the CI triage smoke gate enforces it.
    pub protocol: Vec<adcc_analyze::Diagnostic>,
}

/// Output of one dirty-restart batch execution
/// ([`Scenario::run_resilience`]): the EasyCrash-style natural-resilience
/// sweep over the scenario's scheduled crash points.
#[derive(Debug, Clone)]
pub struct ResilienceBatch {
    /// Per-unit dirty-restart trials, in engine (schedule) order.
    pub trials: Vec<adcc_resilience::DirtyTrial>,
    /// The residual tolerance the classification ladder used.
    pub tolerance: adcc_resilience::Tolerance,
}

/// Which passes one batch execution ([`Scenario::run_passes`]) applies to
/// each crash state it harvests. Every pass works on the same harvested
/// state, so asking for several costs one forward execution, not one each.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Passes {
    /// Recover each crash state through the scenario's mechanism and
    /// classify it into a [`Trial`].
    pub recover: bool,
    /// Capture the forward-execution [`ExecutionProfile`] of every
    /// recovered trial (only meaningful with `recover`).
    pub telemetry: bool,
    /// Reboot each crash state dirty — no mechanism — and classify the
    /// answer (EasyCrash). Skipped by scenarios with no loop to re-enter.
    pub dirty: bool,
    /// Record the forward execution over the scenario's declared protocol
    /// regions and run the persist-order sanitizer (WITCHER). Skipped by
    /// scenarios that declare no regions.
    pub analyze: bool,
}

impl Passes {
    /// The recover pass, with or without telemetry.
    pub const fn recover(telemetry: bool) -> Passes {
        Passes {
            recover: true,
            telemetry,
            dirty: false,
            analyze: false,
        }
    }

    /// These passes plus the dirty-restart pass.
    pub const fn and_dirty(self) -> Passes {
        Passes {
            dirty: true,
            ..self
        }
    }

    /// These passes plus the analyze pass.
    pub const fn and_analyze(self) -> Passes {
        Passes {
            analyze: true,
            ..self
        }
    }
}

/// What the analyze pass found in one batch execution.
#[derive(Debug, Clone, Default)]
pub struct Analyzed {
    /// Sanitizer crash facts per scheduled unit, in engine (schedule)
    /// order; units whose trigger never fired carry none.
    pub facts: Vec<Vec<adcc_analyze::Diagnostic>>,
    /// Protocol violations of the completed forward execution.
    pub protocol: Vec<adcc_analyze::Diagnostic>,
}

/// Output of one batch execution ([`Scenario::run_passes`]): one entry per
/// requested pass the scenario supports.
#[derive(Debug, Clone, Default)]
pub struct PassOutput {
    /// The recover pass: per-unit trials in engine (schedule) order.
    /// Empty unless [`Passes::recover`] was requested.
    pub trials: Vec<Trial>,
    /// The dirty-restart pass; `None` when not requested or the scenario
    /// has no dirty-restart step.
    pub dirty: Option<ResilienceBatch>,
    /// The analyze pass; `None` when not requested or the scenario
    /// declares no protocol regions.
    pub analysis: Option<Analyzed>,
}

impl PassOutput {
    /// Append the output of the scenario's next chunk (same passes).
    pub(crate) fn absorb(&mut self, next: PassOutput) {
        self.trials.extend(next.trials);
        if let Some(d) = next.dirty {
            match &mut self.dirty {
                Some(acc) => {
                    // The ladder is a per-scenario constant; chunks of the
                    // same scenario cannot disagree.
                    debug_assert_eq!(acc.tolerance, d.tolerance);
                    acc.trials.extend(d.trials);
                }
                slot @ None => *slot = Some(d),
            }
        }
        if let Some(a) = next.analysis {
            let acc = self.analysis.get_or_insert_with(Analyzed::default);
            acc.facts.extend(a.facts);
            acc.protocol.extend(a.protocol);
        }
    }
}

/// A batch between its forward execution and its merge
/// ([`Scenario::harvest`]): the distinct crash states one execution
/// harvested, each an independent job — materialize the image, recover,
/// (dirty-restart) — whose result lands in a slot indexed by the state's
/// poll order. Jobs may run on any thread, several at once; the merge reads
/// the slots in poll order, so who ran what cannot reach the output.
pub trait Harvested: Send + Sync {
    /// Claim one crash state no caller has claimed yet and run its job;
    /// `false` once every state is claimed. Safe to call concurrently.
    fn run_next(&self) -> bool;

    /// The merge: stamp every state's verdict onto its units, classify the
    /// units that ran to completion, run the analysis. Call once every
    /// [`Harvested::run_next`] call has returned, `false` included.
    fn finish(self: Box<Self>) -> PassOutput;
}

/// A batch whose scenario does not split: the harvest step already
/// computed the whole output, no job is left to share.
pub(crate) struct Whole(pub(crate) PassOutput);

impl Harvested for Whole {
    fn run_next(&self) -> bool {
        false
    }
    fn finish(self: Box<Self>) -> PassOutput {
        self.0
    }
}

/// Result of injecting one crash state and attempting recovery.
#[derive(Debug, Clone, Copy)]
pub struct Trial {
    /// The scheduled crash unit this trial evaluated.
    pub unit: u64,
    /// Classified recovery outcome.
    pub outcome: Outcome,
    /// Work units re-executed by recovery.
    pub lost_units: u64,
    /// Simulated clock spent by recovery (detect + resume), picoseconds.
    /// Deterministic, unlike wall-clock.
    pub sim_time_ps: u64,
    /// Forward-execution cost profile (setup → crash or completion):
    /// flushes, fences, log traffic, dirty residency. Present when the
    /// campaign ran with telemetry enabled.
    pub telemetry: Option<ExecutionProfile>,
}

/// The verdict on one crash state: a [`Trial`] without its `unit`. Every
/// unit whose trigger fired at the state's poll gets the same verdict,
/// stamped with [`Classified::trial`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Classified {
    pub outcome: Outcome,
    pub lost_units: u64,
    pub sim_time_ps: u64,
    pub telemetry: Option<ExecutionProfile>,
}

impl Classified {
    /// Classify a recovery that re-executed `lost_units` work units in
    /// `sim_time_ps` of simulated detect + resume time.
    pub(crate) fn new(
        detected: bool,
        matches: bool,
        lost_units: u64,
        sim_time_ps: u64,
        telemetry: Option<ExecutionProfile>,
    ) -> Classified {
        Classified {
            outcome: classify(detected, matches, lost_units),
            lost_units,
            sim_time_ps,
            telemetry,
        }
    }

    /// Classify a recovery the kernel itself measured (the
    /// algorithm-directed `recover_and_resume` paths).
    pub(crate) fn from_report(
        detected: bool,
        matches: bool,
        report: &RecoveryReport,
        telemetry: Option<ExecutionProfile>,
    ) -> Classified {
        Classified::new(
            detected,
            matches,
            report.lost_units,
            report.total().ps(),
            telemetry,
        )
    }

    /// This verdict as the trial of `unit`.
    pub(crate) fn trial(self, unit: u64) -> Trial {
        Trial {
            unit,
            outcome: self.outcome,
            lost_units: self.lost_units,
            sim_time_ps: self.sim_time_ps,
            telemetry: self.telemetry,
        }
    }
}

/// A scenario's crash-point unit space: how many site-grain units it
/// enumerates and how densely the access-grain tail subdivides beyond
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitSpace {
    /// Number of site-grain units (`0..sites` map to instrumented sites).
    pub sites: u64,
    /// Element-access spacing between dense (access-grain) crash points.
    pub dense_stride: u64,
}

impl UnitSpace {
    /// A unit space with `sites` site-grain points and the given dense
    /// spacing.
    pub const fn new(sites: u64, dense_stride: u64) -> UnitSpace {
        UnitSpace {
            sites,
            dense_stride,
        }
    }

    /// Crash trigger for any unit: site-grain units resolve through
    /// `site`, dense unit `sites + d` crashes at the first poll past
    /// `(d + 1) * dense_stride` element accesses.
    pub fn trigger_of(&self, unit: u64, site: impl FnOnce(u64) -> CrashTrigger) -> CrashTrigger {
        if unit < self.sites {
            site(unit)
        } else {
            CrashTrigger::AtAccessCount((unit - self.sites + 1) * self.dense_stride)
        }
    }
}

/// Who a scenario is: the facts its report row states about it, fixed
/// when the scenario is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioInfo {
    /// Unique scenario name (report key).
    pub name: &'static str,
    /// Kernel family under test.
    pub kernel: Kernel,
    /// Persistence mechanism under test.
    pub mechanism: Mechanism,
    /// Platform preset name (report metadata).
    pub platform: &'static str,
    /// The scenario's crash-point geometry.
    pub unit_space: UnitSpace,
}

impl ScenarioInfo {
    /// A scenario on the default `nvm-only` platform.
    pub const fn new(
        name: &'static str,
        kernel: Kernel,
        mechanism: Mechanism,
        unit_space: UnitSpace,
    ) -> ScenarioInfo {
        ScenarioInfo {
            name,
            kernel,
            mechanism,
            platform: "nvm-only",
            unit_space,
        }
    }
}

/// One workload × mechanism pair the engine can sweep crash points over.
///
/// `run_trial` must be a pure function of `(self, unit, telemetry)`: each
/// call builds its own `MemorySystem`, so trials can run on any worker
/// thread in any order and the campaign stays deterministic. The
/// `telemetry` flag only controls whether the [`Trial::telemetry`] profile
/// is captured — probes are passive counter snapshots, so it must never
/// change the simulated execution itself.
///
/// ## Unit space
///
/// A scenario describes its crash-point geometry with the [`UnitSpace`] of
/// its [`ScenarioInfo`]: units `0..sites` are **site-grain** crash points, each mapping to an
/// instrumented crash site via [`Scenario::site_trigger`]. Units at or
/// above `sites` are **dense** (access-grain) points the engine can
/// append on demand: unit `sites + d` crashes at the first poll after
/// `(d + 1) * dense_stride` element accesses, which subdivides the
/// crash-point space far below statement granularity without any
/// per-scenario enumeration. Dense points whose threshold lands past the
/// end of the run complete cleanly and are classified as such.
///
/// ## Batch path
///
/// [`Scenario::harvest`] is the one batch hook; [`Scenario::run_passes`]
/// composes it with its jobs and merge sequentially, and
/// [`Scenario::run_batch`], [`Scenario::run_analyzed`] and
/// [`Scenario::run_resilience`] are provided over that. The recover pass
/// must produce trials **identical** to calling
/// [`Scenario::run_trial`] per unit (the delta-equivalence suite enforces
/// this): the forward execution is deterministic, so its state at a crash
/// point's poll equals the state of an individual run crashed there.
pub trait Scenario: Send + Sync {
    /// Who this scenario is.
    fn info(&self) -> &ScenarioInfo;
    /// Unique scenario name (report key).
    fn name(&self) -> &'static str {
        self.info().name
    }
    /// Size of the site-grain crash-point space.
    fn total_units(&self) -> u64 {
        self.info().unit_space.sites
    }
    /// Crash trigger for a site-grain unit (`unit < total_units`).
    fn site_trigger(&self, unit: u64) -> CrashTrigger;
    /// Crash trigger for any unit, dense units included.
    fn trigger_of(&self, unit: u64) -> CrashTrigger {
        self.info()
            .unit_space
            .trigger_of(unit, |u| self.site_trigger(u))
    }
    /// Whether each pass over a batch's crash states is **one** job — a
    /// chain that other workers cannot take a share of — rather than one
    /// job per crash state. The engine starts such batches first.
    fn chains(&self) -> bool {
        false
    }
    /// Inject one crash state, recover, classify. This is the reference
    /// (full-copy) path: one instrumented execution per unit, crash image
    /// via `crash_now`.
    fn run_trial(&self, unit: u64, telemetry: bool) -> Trial;

    /// The batch hook, first half: run the forward execution **once**,
    /// harvesting every scheduled crash point of `units` (sorted ascending)
    /// as copy-on-write [`adcc_sim::image::DeltaImage`]s, and hand back
    /// what is left to do as a [`Harvested`] batch — the per-state jobs
    /// the requested `passes` ask for, then the merge. `mem` accumulates
    /// crash-image memory accounting, once per forward execution. A
    /// requested pass the scenario does not support is skipped and its
    /// output left `None`; with no pass left to apply nothing runs at all.
    fn harvest<'a>(
        &'a self,
        units: &'a [u64],
        passes: Passes,
        mem: &ImageMemory,
    ) -> Box<dyn Harvested + 'a>;

    /// One whole batch on the calling thread: [`Scenario::harvest`], every
    /// per-state job in poll order (one transient materialization at a
    /// time), the merge. The engine runs the same three steps, only with
    /// idle workers taking jobs too.
    fn run_passes(&self, units: &[u64], passes: Passes, mem: &ImageMemory) -> PassOutput {
        let batch = self.harvest(units, passes, mem);
        while batch.run_next() {}
        batch.finish()
    }

    /// The recover pass alone: trials identical to [`Scenario::run_trial`]
    /// per unit. Always `Some` — every scenario batches.
    fn run_batch(&self, units: &[u64], telemetry: bool, mem: &ImageMemory) -> Option<Vec<Trial>> {
        Some(
            self.run_passes(units, Passes::recover(telemetry), mem)
                .trials,
        )
    }

    /// Recover + analyze in one execution: the same trials as
    /// [`Scenario::run_batch`] (recording is outcome-neutral) plus the
    /// sanitizer's per-crash facts and end-of-run protocol diagnostics.
    /// `None` for scenarios that declare no protocol regions — after the
    /// recover pass ran anyway; a caller that wants those trials either
    /// way asks [`Scenario::run_passes`] directly, as the triage engine does.
    fn run_analyzed(&self, units: &[u64], mem: &ImageMemory) -> Option<AnalyzedBatch> {
        let out = self.run_passes(units, Passes::recover(false).and_analyze(), mem);
        let analysis = out.analysis?;
        Some(AnalyzedBatch {
            trials: out
                .trials
                .into_iter()
                .zip(analysis.facts)
                .map(|(trial, facts)| AnalyzedTrial { trial, facts })
                .collect(),
            protocol: analysis.protocol,
        })
    }

    /// The dirty-restart (EasyCrash) pass alone: reboot each crash image
    /// from the raw dirty NVM state — no invariant scan, no checkpoint
    /// rollback, no log replay — re-enter the iteration loop from whatever
    /// counters/values survived, run to the natural termination bound, and
    /// classify the answer against the reference through the scenario's
    /// residual tolerance. Units whose trigger never fires complete cleanly
    /// and classify as `converged-exact` with zero extra work. `None` for
    /// scenarios with no dirty-restart step.
    fn run_resilience(&self, units: &[u64], mem: &ImageMemory) -> Option<ResilienceBatch> {
        self.run_passes(units, Passes::default().and_dirty(), mem)
            .dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The mechanisms `kernel` runs under in `reg`, in registry order.
    fn mechanisms(reg: &[Box<dyn Scenario>], kernel: Kernel) -> Vec<&'static str> {
        reg.iter()
            .map(|s| s.info())
            .filter(|i| i.kernel == kernel)
            .map(|i| i.mechanism.name())
            .collect()
    }

    #[test]
    fn registry_covers_every_compute_kernel_with_two_mechanisms() {
        let reg = Registry::Kernel.scenarios();
        for kernel in Kernel::COMPUTE {
            let mut found = mechanisms(&reg, kernel);
            found.sort_unstable();
            found.dedup();
            assert!(
                found.len() >= 2,
                "kernel {} has only {found:?}",
                kernel.name()
            );
        }
    }

    #[test]
    fn registry_names_are_unique_and_units_positive() {
        for registry in Registry::ALL {
            let reg = registry.scenarios();
            let mut names: Vec<&str> = reg.iter().map(|s| s.name()).collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            assert_eq!(names.len(), before, "duplicate scenario names");
            for s in &reg {
                assert!(s.total_units() > 0, "{} has no crash points", s.name());
            }
        }
    }

    #[test]
    fn registry_names_parse_and_roundtrip() {
        for registry in Registry::ALL {
            assert_eq!(Registry::parse(registry.name()), Ok(registry));
        }
        let err = Registry::parse("bogus").unwrap_err();
        assert!(err.contains("unknown registry"), "{err}");
        assert!(err.contains("kernel, dist, ds"), "{err}");
    }

    #[test]
    fn unit_space_maps_site_and_dense_units() {
        let space = UnitSpace::new(4, 100);
        let site = |u| CrashTrigger::AtSite {
            site: adcc_sim::crash::CrashSite::new(0, u),
            occurrence: 1,
        };
        assert_eq!(space.trigger_of(2, site), site(2));
        assert_eq!(space.trigger_of(4, site), CrashTrigger::AtAccessCount(100));
        assert_eq!(space.trigger_of(5, site), CrashTrigger::AtAccessCount(200));
    }

    #[test]
    fn dist_registry_pairs_both_recovery_modes_per_kernel() {
        let reg = Registry::Dist.scenarios();
        assert_eq!(reg.len(), 6);
        for kernel in [Kernel::Stencil, Kernel::Jacobi, Kernel::Cg] {
            assert_eq!(
                mechanisms(&reg, kernel),
                ["extended", "checkpoint"],
                "kernel {} missing a recovery mode",
                kernel.name()
            );
        }
        for s in &reg {
            assert!(s.name().starts_with("dist-"), "{}", s.name());
            assert_eq!(s.info().platform, "dist-4rank");
            assert!(s.total_units() > 0);
        }
    }

    #[test]
    fn ds_registry_pairs_both_protections_per_structure() {
        let reg = Registry::Ds.scenarios();
        assert_eq!(reg.len(), 4);
        for kernel in [Kernel::Queue, Kernel::Hash] {
            assert_eq!(
                mechanisms(&reg, kernel),
                ["pmem", "baseline"],
                "kernel {} missing a protection mode",
                kernel.name()
            );
        }
        for s in &reg {
            assert!(s.name().starts_with("ds-"), "{}", s.name());
            assert!(s.total_units() > 0);
        }
    }
}
