//! Crash-point schedules: which work units of a scenario get a crash
//! injected, derived deterministically from the campaign seed.

use rand::prelude::*;

/// How crash points are chosen inside a scenario's `[0, total_units)`
/// space, subject to the per-scenario state budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// The unit space is split into `budget` equal strata and one point is
    /// drawn uniformly (seeded) from each — coverage across the whole run
    /// with reproducible jitter. A budget that covers the space takes
    /// every unit.
    Stratified,
}

impl Schedule {
    /// Stable identifier used in report JSON.
    pub fn name(&self) -> &'static str {
        "stratified"
    }

    /// Parse the report spelling produced by [`Schedule::name`].
    pub fn parse(text: &str) -> Result<Schedule, String> {
        match text {
            "stratified" => Ok(Schedule::Stratified),
            _ => Err(format!("unknown schedule {text:?} (expected stratified)")),
        }
    }

    /// The crash points for one scenario: sorted, deduplicated, all in
    /// `[0, total_units)`, at most `budget` of them. Deterministic in
    /// `(seed, scenario_name, total_units, budget)`.
    pub fn crash_points(
        &self,
        seed: u64,
        scenario_name: &str,
        total_units: u64,
        budget: u64,
    ) -> Vec<u64> {
        if total_units == 0 || budget == 0 {
            return Vec::new();
        }
        if budget >= total_units {
            return (0..total_units).collect();
        }
        // Stratum bounds in u128: `s * total_units` overflows u64 for large
        // unit spaces. With exact arithmetic and `budget < total_units`,
        // consecutive bounds differ by at least ⌊total/budget⌋ ≥ 1, so
        // strata are disjoint and non-empty and the draw count equals the
        // budget.
        let mut rng = StdRng::seed_from_u64(seed ^ fnv1a(scenario_name));
        let stratum_lo =
            |s: u64| -> u64 { (s as u128 * total_units as u128 / budget as u128) as u64 };
        let mut points: Vec<u64> = (0..budget)
            .map(|s| {
                let lo = stratum_lo(s);
                let hi = stratum_lo(s + 1);
                debug_assert!(lo < hi, "stratum {s} empty: {lo}..{hi}");
                rng.random_range(lo..hi)
            })
            .collect();
        points.sort_unstable();
        points.dedup();
        debug_assert_eq!(
            points.len() as u64,
            budget,
            "disjoint strata cannot collide"
        );
        points
    }
}

/// FNV-1a over the scenario name: decorrelates per-scenario streams drawn
/// from one campaign seed.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips() {
        let s = Schedule::Stratified;
        assert_eq!(Schedule::parse(s.name()).unwrap(), s);
        for other in ["bogus", "every-k:3", "exhaustive:8"] {
            let err = Schedule::parse(other).expect_err(other);
            assert!(err.contains("stratified"), "{other}: {err}");
        }
    }

    #[test]
    fn stratified_is_deterministic_and_covering() {
        let a = Schedule::Stratified.crash_points(42, "cg-extended", 1000, 20);
        let b = Schedule::Stratified.crash_points(42, "cg-extended", 1000, 20);
        assert_eq!(a, b);
        assert_eq!(a.len(), 20, "strata are disjoint, so no dedup losses");
        // One point per stratum of width 50.
        for (s, &p) in a.iter().enumerate() {
            assert!(p >= s as u64 * 50 && p < (s as u64 + 1) * 50, "{s}: {p}");
        }
        // Different scenarios draw different streams.
        let c = Schedule::Stratified.crash_points(42, "lu-ckpt", 1000, 20);
        assert_ne!(a, c);
    }

    #[test]
    fn stratified_saturates_to_exhaustive() {
        let pts = Schedule::Stratified.crash_points(7, "x", 10, 50);
        assert_eq!(pts, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn stratified_full_budget_on_huge_unit_spaces() {
        // `s * total_units` overflows u64 here; the old u64 arithmetic
        // wrapped stratum bounds around, collided strata, and silently
        // returned fewer points than the budget after dedup.
        let total = u64::MAX / 2;
        let pts = Schedule::Stratified.crash_points(42, "huge", total, 1000);
        assert_eq!(pts.len(), 1000, "count equals min(budget, total_units)");
        assert!(pts.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
        assert!(pts.iter().all(|&p| p < total));
        // Still one point per stratum.
        for (s, &p) in pts.iter().enumerate() {
            let lo = (s as u128 * total as u128 / 1000) as u64;
            let hi = ((s as u128 + 1) * total as u128 / 1000) as u64;
            assert!(p >= lo && p < hi, "{s}: {p} outside [{lo}, {hi})");
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The stratified draw returns exactly `min(budget,
            /// total_units)` sorted, distinct, in-range points — for any
            /// seed and any unit-space size up to the overflow regime.
            #[test]
            fn stratified_count_equals_min_budget_total(
                seed in any::<u64>(),
                total in 1u64..=u64::MAX,
                budget in 1u64..=2048,
            ) {
                // Keep the every-unit branch's allocation bounded.
                let budget = budget.min(2048);
                let pts = Schedule::Stratified.crash_points(seed, "prop", total, budget);
                prop_assert_eq!(pts.len() as u64, budget.min(total));
                prop_assert!(pts.windows(2).all(|w| w[0] < w[1]));
                prop_assert!(pts.iter().all(|&p| p < total));
            }
        }
    }
}
