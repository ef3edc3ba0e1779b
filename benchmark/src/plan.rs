//! Plan reconstruction: the crash points `run_campaign` will evaluate,
//! rebuilt from public calls (`Scenario::total_units`,
//! `Schedule::crash_points`) so the benchmark can drive
//! `Scenario::run_batch` over exactly the engine's chunks. The engine's own
//! planner is crate-private; the unit tests pin this copy against real
//! reports.

use adcc_campaign::engine::CampaignConfig;
use adcc_campaign::scenario::Scenario;

/// Per-scenario state budget: an even split, remainder to the earliest
/// scenarios.
pub fn budget_split(budget_states: u64, scenarios: u64) -> Vec<u64> {
    let base = budget_states / scenarios;
    let rem = budget_states % scenarios;
    (0..scenarios).map(|i| base + u64::from(i < rem)).collect()
}

/// Scheduled crash points per scenario, in registry order (unsharded).
pub fn crash_points(cfg: &CampaignConfig, scenarios: &[Box<dyn Scenario>]) -> Vec<Vec<u64>> {
    assert!(cfg.shard.is_none(), "the benchmark never shards");
    budget_split(cfg.budget_states, scenarios.len() as u64)
        .into_iter()
        .zip(scenarios)
        .map(|(budget, s)| {
            cfg.schedule.crash_points(
                cfg.seed,
                s.name(),
                s.total_units() + cfg.dense_units,
                budget,
            )
        })
        .collect()
}

/// One forward execution's worth of work: a scenario index and the units
/// it harvests, in the engine's task order.
pub struct Chunk {
    pub scenario: usize,
    pub units: Vec<u64>,
}

pub fn chunks(points: &[Vec<u64>], max_batch: u64) -> Vec<Chunk> {
    points
        .iter()
        .enumerate()
        .flat_map(|(scenario, units)| {
            units.chunks(max_batch.max(1) as usize).map(move |c| Chunk {
                scenario,
                units: c.to_vec(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcc_campaign::engine::run_campaign;
    use adcc_campaign::scenario::Registry;
    use adcc_dist::net::FaultProfile;

    #[test]
    fn budget_split_gives_the_remainder_to_the_earliest() {
        assert_eq!(budget_split(14, 4), vec![4, 4, 3, 3]);
        assert_eq!(budget_split(3, 5), vec![1, 1, 1, 0, 0]);
        assert_eq!(budget_split(12, 4), vec![3, 3, 3, 3]);
    }

    /// The reconstruction must reproduce the per-scenario `trials` counts
    /// of a real report, for every registry the workloads sweep.
    #[test]
    fn reconstructed_plan_matches_real_reports() {
        let cases = [
            (Registry::Kernel, FaultProfile::Off, 100, 40),
            (Registry::Dist, FaultProfile::Chaotic, 90, 20),
            (Registry::Ds, FaultProfile::Off, 61, 0),
        ];
        for (registry, faults, budget, dense) in cases {
            let cfg = CampaignConfig {
                seed: 7,
                budget_states: budget,
                dense_units: dense,
                threads: 1,
                registry,
                faults,
                ..CampaignConfig::default()
            };
            let scenarios = registry.scenarios_with(faults);
            let points = crash_points(&cfg, &scenarios);
            let report = run_campaign(&cfg);
            assert_eq!(points.len(), report.scenarios.len());
            for (units, s) in points.iter().zip(&report.scenarios) {
                assert_eq!(units.len() as u64, s.trials, "{}", s.name);
            }
            let per_chunk: u64 = chunks(&points, cfg.max_batch)
                .iter()
                .map(|c| c.units.len() as u64)
                .sum();
            assert_eq!(per_chunk, report.totals.total());
        }
    }
}
