//! The one adapter from an iterate-history kernel
//! ([`adcc_core::iterative::Extended`]) to a scenario: a `*-extended`
//! scenario is the kernel plus the data of [`Iterative`], and every hook
//! of [`Workload`] follows from the protocol in `adcc_core::iterative`.
//!
//! A recovery's tail — the run from its crash point to the end — is
//! untimed: it is simulated only for the answer. So the batch path joins
//! the crash-free run there ([`Iterative::joined`]): a recovered machine
//! that reads, byte for byte, as the crash-free run's did at that unit,
//! with the same carry bits, has the crash-free run's answer.

use std::sync::Arc;

use adcc_core::iterative::{self, Extended, Resumed};
use adcc_core::DirtyRestart;
use adcc_linalg::vecops::max_diff;
use adcc_resilience::Tolerance;
use adcc_sim::crash::{CrashEmulator, CrashSite, CrashTrigger, RunOutcome};
use adcc_sim::image::NvmImage;
use adcc_sim::system::{MemorySystem, SystemConfig};
use adcc_telemetry::ExecutionProfile;

use super::harness::{HarvestedState, Workload};
use super::{once_per_process, verified_completion};
use crate::scenario::{Classified, ScenarioInfo};

/// A loop carry compared bit for bit, never by `==`: `-0.0` and `0.0`
/// divide apart, and a NaN equals nothing, itself included.
pub(crate) trait SameBits: Copy {
    fn same_bits(self, other: Self) -> bool;
}

impl SameBits for f64 {
    fn same_bits(self, other: f64) -> bool {
        self.to_bits() == other.to_bits()
    }
}

impl SameBits for () {
    fn same_bits(self, (): ()) -> bool {
        true
    }
}

/// Whether a crash-free pilot to unit `at` of `units` pays: it never
/// simulates more units than the tail it would save.
pub(crate) fn pilot_pays(at: usize, units: usize) -> bool {
    at <= units - at
}

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

impl<K, F> Iterative<F>
where
    K: Extended,
    K::Carry: SameBits,
    F: Fn(&mut MemorySystem) -> (K, K::Carry),
{
    /// The crash-free run on a fresh machine, `at` units in: the kernel,
    /// its machine and the carry entering unit `at`.
    fn crash_free(&self, at: usize) -> (K, CrashEmulator, K::Carry) {
        let mut sys = MemorySystem::new(self.config.clone());
        let (k, carry0) = (self.setup)(&mut sys);
        let (emu, carry) = iterative::crash_free_to(&k, sys, carry0, at);
        (k, emu, carry)
    }

    /// Whether the answer of the crash-free run of `units` units matches
    /// the reference.
    fn crash_free_verdict(&self, units: usize) -> bool {
        let (k, emu, carry) = self.crash_free(units);
        self.matches(k.peek(&emu, carry))
    }

    /// [`Iterative::crash_free_verdict`], computed once per process.
    /// Persists and cache geometry move no value, so neither the mutation
    /// hook nor a cache override can change it.
    fn cached_verdict(&self, units: usize) -> bool {
        *once_per_process((self.info.name, "crash-free verdict"), || {
            self.crash_free_verdict(units)
        })
    }

    /// The crash-free run's verdict, when `resumed` stands where that run
    /// stood `resumed.at` units in: the same carry bits, and the same byte
    /// at every address. The kernel's run allocates nothing, so its answer
    /// from there is the crash-free run's. `None` otherwise, and where the
    /// pilot would not pay.
    fn joined(&self, k: &K, resumed: &Resumed<K::Carry>) -> Option<bool> {
        let units = k.units();
        if !pilot_pays(resumed.at, units) {
            return None;
        }
        let (_, pilot, carry) = self.crash_free(resumed.at);
        let joins = carry.same_bits(resumed.carry) && pilot.same_contents(&resumed.emu);
        drop(pilot);
        joins.then(|| self.cached_verdict(units))
    }
}

impl<K, F> Workload for Iterative<F>
where
    K: Extended + Send + Sync,
    K::Carry: SameBits + Send + Sync,
    F: Fn(&mut MemorySystem) -> (K, K::Carry) + Send + Sync,
{
    type Live = (K, K::Carry);
    type End = K::Carry;

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

    /// [`Workload::recover`], booted from the owned image, with the untimed
    /// tail skipped wherever the recovery [joins](Iterative::joined) the
    /// crash-free run.
    fn recover_chain(
        &self,
        (k, _): &Self::Live,
        states: &mut dyn Iterator<Item = HarvestedState>,
    ) -> Vec<Classified> {
        states
            .map(|s| {
                let sys = MemorySystem::from_owned_image(self.config.clone(), s.image);
                let resumed = iterative::resume_to_crash(k, sys);
                let (detected, report) = (resumed.restart_from.is_none(), resumed.report);
                let matches = match self.joined(k, &resumed) {
                    Some(matches) => matches,
                    None => self.matches(resumed.finish(k).solution),
                };
                Classified::from_report(detected, matches, &report, s.profile)
            })
            .collect()
    }

    fn complete(
        &self,
        (k, _): &Self::Live,
        carry: K::Carry,
        emu: &CrashEmulator,
        profile: Option<ExecutionProfile>,
    ) -> Classified {
        verified_completion(self.matches(k.peek(emu, carry)), profile)
    }

    fn dirty_reference(&self) -> Option<(Tolerance, Vec<f64>)> {
        Some((self.dirty_tolerance, self.reference.to_vec()))
    }

    fn dirty_restart(&self, (k, _): &Self::Live, image: &NvmImage) -> DirtyRestart {
        iterative::dirty_restart(k, image, self.config.clone())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::{plan, CampaignConfig};
    use crate::outcome::Outcome;
    use crate::scenario::{Registry, Scenario};
    use crate::scenarios::{bicgstab, cg, jacobi, lu, stencil};
    use adcc_sim::crash::poll_groups;
    use adcc_sim::hook::{self, Op};
    use adcc_sim::lru::CacheConfig;

    /// A scenario whose batch recover step joins the crash-free run.
    pub(crate) trait Joining: Workload {
        /// Whether the recovery of `image` joins the crash-free run.
        fn joins(&self, live: &Self::Live, image: NvmImage) -> bool;
        /// The whole crash-free run's verdict, computed afresh.
        fn fresh_verdict(&self) -> bool;
        /// Where the crash-free run's next NVM and DRAM allocations would
        /// land: after set-up, and after the whole run.
        fn next_allocations(&self) -> [(u64, u64); 2];
    }

    pub(crate) fn next_allocation(sys: &MemorySystem) -> (u64, u64) {
        let mut sys = sys.clone();
        (sys.alloc_nvm(1), sys.alloc_dram(1))
    }

    impl<K, F> Joining for Iterative<F>
    where
        K: Extended + Send + Sync,
        K::Carry: SameBits + Send + Sync,
        F: Fn(&mut MemorySystem) -> (K, K::Carry) + Send + Sync,
    {
        fn joins(&self, (k, _): &Self::Live, image: NvmImage) -> bool {
            let sys = MemorySystem::from_owned_image(self.config.clone(), image);
            self.joined(k, &iterative::resume_to_crash(k, sys))
                .is_some()
        }
        fn fresh_verdict(&self) -> bool {
            let (k, ..) = self.crash_free(0);
            self.crash_free_verdict(k.units())
        }
        fn next_allocations(&self) -> [(u64, u64); 2] {
            let (k, emu, carry) = self.crash_free(0);
            let before = next_allocation(&emu);
            let (emu, _) = iterative::crash_free_to(&k, emu.into_system(), carry, k.units());
            [before, next_allocation(&emu)]
        }
    }

    /// `$f(scenario, $args...)` for each of the six joining scenarios, in
    /// registry order.
    macro_rules! each_joining {
        ($f:ident $(, $arg:expr)*) => {
            [
                $f(&cg::extended(&cg::problem()) $(, $arg)*),
                $f(&bicgstab::extended(&bicgstab::problem(), bicgstab::FULL) $(, $arg)*),
                $f(&bicgstab::extended(&bicgstab::problem(), bicgstab::WINDOW) $(, $arg)*),
                $f(&jacobi::extended(&jacobi::problem()) $(, $arg)*),
                $f(&stencil::extended(&stencil::reference()) $(, $arg)*),
                $f(&lu::LuExtended(lu::problem()) $(, $arg)*),
            ]
        };
    }

    /// The distinct crash states one forward run of `w` harvests at
    /// `units`, each as its site and materialized image.
    pub(crate) fn states<W: Workload>(
        w: &W,
        units: &[u64],
    ) -> (W::Live, Vec<(CrashSite, NvmImage)>) {
        let (mut emu, mut live) = w.setup(CrashTrigger::Never);
        emu.arm_harvest(units.iter().map(|&u| (w.trigger_of(u), u)));
        assert!(w.forward(&mut live, &mut emu).completed().is_some());
        let harvests = emu.take_harvests();
        let states = poll_groups(&harvests)
            .map(|group| (group[0].site, group[0].image.materialize()))
            .collect();
        (live, states)
    }

    /// At every site poll of each joining scenario, the batch's recover
    /// step — the tail skipped where the recovery joins the crash-free run —
    /// classifies the state as [`Workload::recover`], which simulates the
    /// whole tail, does: the same outcome, lost units and simulated time.
    /// On a clean tree every recovery is right, so the states are also
    /// recovered under each seeded bug their recovery reaches (the
    /// iterate-history one believes the flushed counter): there some
    /// answers are wrong, and a join must not hide one.
    #[test]
    fn a_joined_recovery_classifies_as_its_whole_tail_does() {
        /// States, joined states and silent states over every run.
        fn differential<W: Joining>(w: &W) -> (&'static str, [usize; 3]) {
            let name = Workload::info(w).name;
            let sites: Vec<u64> = (0..Workload::info(w).unit_space.sites).collect();
            let (live, states) = states(w, &sites);
            let (site, image) = &states[0];
            let (_, reached) = hook::record(|| w.recover(&live, *site, image, None));
            let seeds = reached.into_iter().filter(|s| s.op == Op::Seed);
            let mut seen = [0; 3];
            let mut run = || {
                for (site, image) in states.iter().cloned() {
                    let whole = w.recover(&live, site, &image, None);
                    seen[0] += 1;
                    seen[1] += usize::from(w.joins(&live, image.clone()));
                    seen[2] += usize::from(whole.outcome == Outcome::SilentCorruption);
                    let state = HarvestedState {
                        site,
                        image,
                        profile: None,
                    };
                    let batch = w.recover_chain(&live, &mut std::iter::once(state));
                    let verdict = |c: &Classified| (c.outcome, c.lost_units, c.sim_time_ps);
                    assert_eq!(verdict(&batch[0]), verdict(&whole), "{name} at {site:?}");
                }
            };
            run();
            for seed in seeds {
                hook::mutating(seed, &mut run);
            }
            (name, seen)
        }
        let seen = each_joining!(differential);
        for (name, [states, joined, _]) in seen {
            assert!(
                0 < joined && joined < states,
                "{name}: {joined} of {states} joined"
            );
        }
        let silent: usize = seen.iter().map(|(_, [.., silent])| silent).sum();
        assert!(silent > 0, "no seeded recovery went wrong: {seen:?}");
    }

    /// How many distinct crash states of a `kernel-sweep` campaign (260
    /// states, 400 dense units) each joining scenario's recoveries join the
    /// crash-free run at, out of how many it recovers.
    fn joins_at(seed: u64) -> [(&'static str, usize, usize); 6] {
        let cfg = CampaignConfig {
            budget_states: 260,
            dense_units: 400,
            seed,
            ..CampaignConfig::default()
        };
        let registry = Registry::Kernel.scenarios();
        let planned = plan(&cfg, &registry);
        let units_of = |name: &str| {
            let at = registry.iter().position(|s| s.name() == name);
            planned[at.expect("registered")].clone()
        };
        fn count<W: Joining>(
            w: &W,
            units_of: &dyn Fn(&str) -> Vec<u64>,
            batch: usize,
        ) -> (&'static str, usize, usize) {
            let name = Workload::info(w).name;
            let (mut states_total, mut joined) = (0, 0);
            for chunk in units_of(name).chunks(batch) {
                let (live, states) = states(w, chunk);
                states_total += states.len();
                joined += states
                    .into_iter()
                    .filter(|(_, image)| w.joins(&live, image.clone()))
                    .count();
            }
            (name, joined, states_total)
        }
        each_joining!(count, &units_of, cfg.max_batch as usize)
    }

    /// A change that quietly stops joining fails here: the joined states of
    /// the `kernel-sweep` campaign at seed 42, scenario by scenario, and
    /// over the eight seeds the benchmark's repeat runs (42–49).
    #[test]
    fn the_kernel_sweep_joins_as_many_states_as_pinned() {
        let at_42 = [
            ("cg-extended", 2, 3),
            ("bicgstab-extended", 2, 2),
            ("bicgstab-extended-windowed", 1, 1),
            ("jacobi-extended", 2, 2),
            ("stencil-extended", 3, 3),
            ("lu-extended", 6, 7),
        ];
        assert_eq!(joins_at(42), at_42);
        let mut sweep = (0, 0);
        for seed in 42..50 {
            for (_, joined, states) in joins_at(seed) {
                sweep = (sweep.0 + joined, sweep.1 + states);
            }
        }
        assert_eq!(sweep, (117, 153), "(joined, states) over seeds 42-49");
    }

    /// The join compares values, not allocators: it holds only because no
    /// unit of a joining kernel allocates (only set-up and
    /// `ExtendedCg::detect_restart` do), so a tail run from a joined state
    /// allocates nowhere the crash-free run would not.
    #[test]
    fn a_crash_free_run_moves_neither_bump_allocator() {
        fn unmoved<W: Joining>(w: &W) -> (&'static str, bool) {
            let [before, after] = w.next_allocations();
            (Workload::info(w).name, before == after)
        }
        for (name, unmoved) in each_joining!(unmoved) {
            assert!(unmoved, "{name}: a unit allocates");
        }
    }

    /// The cached verdict is one value per process, whoever computes it
    /// first: no seeded bug lies on a crash-free run, so a planted seed
    /// cannot reach it, and a dropped persist or another CPU cache moves no
    /// value the answer is computed from.
    #[test]
    fn the_crash_free_verdict_is_the_same_under_every_hook() {
        fn verdicts<W: Joining>(w: &W) -> (&'static str, Vec<Op>, [bool; 2]) {
            let (plain, sites) = hook::record(|| w.fresh_verdict());
            let big = CacheConfig::new(1 << 20, 16);
            let cached = hook::with_cpu_cache(big, || w.fresh_verdict());
            let ops = sites.iter().map(|s| s.op).collect();
            (Workload::info(w).name, ops, [plain, cached])
        }
        for (name, ops, verdicts) in each_joining!(verdicts) {
            assert!(ops.contains(&Op::Flush), "{name}: persists were recorded");
            assert!(
                !ops.contains(&Op::Seed),
                "{name}: a seed on the crash-free run"
            );
            assert_eq!(verdicts, [true, true], "{name}");
        }
    }

    /// A carry joins on its bits: `-0.0 == 0.0` and no NaN equals another,
    /// but neither pair is one carry.
    #[test]
    fn carries_join_on_their_bits_only() {
        assert_eq!(0.0f64, -0.0);
        assert!(!0.0f64.same_bits(-0.0));
        let (nan, other_nan) = (f64::from_bits(0x7ff8_0000_0000_0001), f64::NAN);
        assert!(nan.is_nan() && other_nan.is_nan());
        assert!(!nan.same_bits(other_nan));
        assert!(nan.same_bits(nan) && 1.5f64.same_bits(1.5) && ().same_bits(()));

        // Through the join: a BiCGSTAB recovery that joins stops joining
        // once its carry is one bit off.
        let w = bicgstab::extended(&bicgstab::problem(), bicgstab::FULL);
        let (live, states) = states(&w, &[0, 1, 2, 3]);
        let (k, _) = &live;
        let mut joined = 0;
        for (_, image) in states {
            let sys = MemorySystem::from_owned_image(w.config.clone(), image);
            let mut resumed = iterative::resume_to_crash(k, sys);
            if w.joined(k, &resumed).is_none() {
                continue;
            }
            joined += 1;
            resumed.carry = f64::from_bits(resumed.carry.to_bits() ^ 1);
            assert_eq!(w.joined(k, &resumed), None);
        }
        assert!(joined > 0, "no state joined");
    }
}
