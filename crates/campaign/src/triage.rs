//! WITCHER-style root-cause triage over an analyzer-instrumented
//! campaign.
//!
//! `run_triage` re-runs a campaign's exact schedule with the
//! persist-order event recorder attached (the analyze pass,
//! [`crate::scenario::Passes::analyze`], on scenarios that declare
//! protocol regions; the rest contribute their trials with empty facts),
//! then:
//!
//! 1. infers per-mechanism persist-order invariants from the **passing**
//!    trials (evidence counts: "N states of mechanism M crashed and
//!    recovered with this protocol intact"),
//! 2. checks every **failing** trial's sanitizer crash facts against
//!    them, and
//! 3. clusters the failing states by violated invariant into a bounded
//!    list of [`RootCause`] reports (`adcc_analyze::cluster_failures`).
//!
//! The output is deterministic: trials merge in schedule order, protocol
//! findings dedupe through ordered maps, and the emitted document
//! carries no host section — reruns and any worker-thread count produce
//! byte-identical text. The campaign report embedded in the triage
//! document carries the schema-v6 `diagnostics` block.

use std::collections::BTreeMap;

use adcc_analyze::{cluster_failures, RootCause, TrialDigest};

use crate::engine::{assemble, drive, CampaignConfig};
use crate::json::Json;
use crate::outcome::Outcome;
use crate::report::{CampaignReport, DiagnosticRecord, DiagnosticsBlock};
use crate::scenario::{Passes, Scenario};

/// Triage document format identifier.
pub const TRIAGE_SCHEMA: &str = "adcc-triage-report/v1";

/// Root causes reported before the remainder folds into one residual
/// cluster (see `adcc_analyze::cluster_failures`).
pub const ROOT_CAUSE_CAP: usize = 10;

/// Outcomes the triage engine counts as failing states.
fn failed(outcome: Outcome) -> bool {
    matches!(outcome, Outcome::DetectedDirty | Outcome::SilentCorruption)
}

/// A triaged campaign: the analyzer-instrumented report plus the
/// clustered root causes of its failing states.
#[derive(Debug, Clone)]
pub struct TriageReport {
    /// The re-run campaign report, `diagnostics` block included.
    pub report: CampaignReport,
    /// Clustered root causes, most states first.
    pub root_causes: Vec<RootCause>,
    /// Failing states across the campaign (detected-dirty plus
    /// silent-corruption).
    pub failing_states: u64,
}

impl TriageReport {
    /// The triage document: schema header, failing-state count, root
    /// causes, and the canonical (host-less) campaign report. Carries no
    /// host facts at all, so reruns are byte-identical regardless of
    /// thread count.
    pub fn to_string_pretty(&self) -> String {
        let mut j = Json::obj();
        j.push("schema", Json::Str(TRIAGE_SCHEMA.into()));
        j.push("failing_states", Json::Int(self.failing_states));
        let causes = self
            .root_causes
            .iter()
            .map(|c| {
                let mut e = Json::obj();
                e.push("invariant", Json::Str(c.invariant.clone()));
                e.push("mechanism", Json::Str(c.mechanism.clone()));
                e.push("category", Json::Str(c.category.clone()));
                e.push("states", Json::Int(c.states));
                e.push(
                    "scenarios",
                    Json::Arr(c.scenarios.iter().map(|s| Json::Str(s.clone())).collect()),
                );
                e.push(
                    "regions",
                    Json::Arr(c.regions.iter().map(|r| Json::Str(r.clone())).collect()),
                );
                e.push(
                    "unit_window",
                    Json::Arr(vec![Json::Int(c.unit_window.0), Json::Int(c.unit_window.1)]),
                );
                e.push(
                    "event_window",
                    Json::Arr(vec![
                        Json::Int(c.event_window.0),
                        Json::Int(c.event_window.1),
                    ]),
                );
                e
            })
            .collect();
        j.push("root_causes", Json::Arr(causes));
        let campaign = Json::parse(&self.report.canonical_string())
            .expect("a report's own canonical emission parses");
        j.push("campaign", campaign);
        j.pretty()
    }
}

/// Run the campaign described by `cfg` with the analyzer attached and
/// triage its failing states: every batch task asks its scenario for the
/// recover and the analyze pass of one forward execution; scenarios that
/// declare no protocol regions contribute trials with empty facts, so
/// triage still covers the registry — just without sanitizer evidence.
/// Deterministic in the config's canonical inputs; the thread count only
/// affects wall-clock.
pub fn run_triage(cfg: &CampaignConfig) -> TriageReport {
    let driven = drive(cfg, Passes::recover(false).and_analyze(), Scenario::harvest);

    // Protocol findings repeat once per chunk (each chunk is its own
    // forward execution over the same deterministic op stream): dedupe by
    // (scenario, category, region, line), keeping the first occurrence's
    // event window. The ordered map also fixes the emission order.
    let mut findings: BTreeMap<(String, String, String, u64), DiagnosticRecord> = BTreeMap::new();
    let mut analyzed: Vec<String> = Vec::new();
    // Per-trial digests feed invariant inference: passing trials are the
    // evidence base, failing trials the states to explain.
    let mut digests: Vec<TrialDigest> = Vec::new();
    for (s, out) in driven.scenarios.iter().zip(&driven.outputs) {
        if let Some(analysis) = &out.analysis {
            analyzed.push(s.name().to_string());
            for d in &analysis.protocol {
                let key = (
                    s.name().to_string(),
                    d.category.name().to_string(),
                    d.region.clone(),
                    d.line,
                );
                findings.entry(key).or_insert_with(|| DiagnosticRecord {
                    scenario: s.name().to_string(),
                    category: d.category.name().to_string(),
                    region: d.region.clone(),
                    line: d.line,
                    first_event: d.first_event,
                    last_event: d.last_event,
                    epoch: d.epoch,
                });
            }
        }
        let facts = out.analysis.as_ref().map(|a| a.facts.as_slice());
        for (i, t) in out.trials.iter().enumerate() {
            digests.push(TrialDigest {
                scenario: s.name().to_string(),
                mechanism: s.info().mechanism.name().to_string(),
                unit: t.unit,
                outcome: t.outcome.name().to_string(),
                failed: failed(t.outcome),
                facts: facts.map_or_else(Vec::new, |f| f[i].clone()),
            });
        }
    }
    let failing_states = digests.iter().filter(|d| d.failed).count() as u64;
    let root_causes = cluster_failures(&digests, ROOT_CAUSE_CAP);

    let diagnostics = DiagnosticsBlock {
        analyzed,
        findings: findings.into_values().collect(),
    };
    TriageReport {
        report: assemble(cfg, driven, Some(diagnostics)),
        root_causes,
        failing_states,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Registry;
    use crate::schedule::Schedule;

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
    fn ds_triage_marks_every_scenario_analyzed_and_matches_the_plain_run() {
        let cfg = tiny_cfg(Registry::Ds);
        let triaged = run_triage(&cfg);
        let diags = triaged.report.diagnostics.as_ref().unwrap();
        assert_eq!(
            diags.analyzed,
            vec![
                "ds-queue-undo",
                "ds-queue-base",
                "ds-hash-undo",
                "ds-hash-base"
            ],
        );
        // Recording is outcome-neutral: the triage run's outcomes must
        // equal the plain engine's for the same inputs.
        let plain = crate::engine::run_campaign(&cfg);
        assert_eq!(triaged.report.totals, plain.totals);
        for (a, b) in triaged.report.scenarios.iter().zip(&plain.scenarios) {
            assert_eq!(a.outcomes, b.outcomes, "{}", a.name);
            assert_eq!(a.sim_time_ps_total, b.sim_time_ps_total, "{}", a.name);
        }
        // A clean tree raises no protocol findings.
        assert!(diags.findings.is_empty(), "{:?}", diags.findings);
        // Failing states exist at this budget and every one is explained
        // by a bounded root-cause list.
        assert!(triaged.failing_states > 0);
        assert!(triaged.root_causes.len() <= ROOT_CAUSE_CAP);
        let explained: u64 = triaged.root_causes.iter().map(|c| c.states).sum();
        assert_eq!(explained, triaged.failing_states);
    }

    #[test]
    fn triage_document_is_thread_count_invariant() {
        let mut cfg = tiny_cfg(Registry::Ds);
        let one = run_triage(&cfg).to_string_pretty();
        cfg.threads = 4;
        let four = run_triage(&cfg).to_string_pretty();
        assert_eq!(one, four);
        assert!(one.contains(TRIAGE_SCHEMA));
    }

    #[test]
    fn kernel_registry_triages_without_an_analyzed_path() {
        let triaged = run_triage(&tiny_cfg(Registry::Kernel));
        let diags = triaged.report.diagnostics.as_ref().unwrap();
        assert!(diags.analyzed.is_empty());
        assert!(diags.findings.is_empty());
        // Root causes fall back to outcome clustering (no facts).
        for c in &triaged.root_causes {
            assert!(c.category.starts_with("outcome:"), "{c:?}");
        }
    }
}
