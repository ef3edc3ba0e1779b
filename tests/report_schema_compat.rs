//! Report-schema compatibility: the committed fixture of the one accepted
//! schema generation (`adcc-campaign-report/v7`) must stay parseable by
//! everything `campaign replay`, `campaign merge`, and `campaign compare`
//! use; the telemetry, diagnostics, and natural-resilience blocks must
//! survive a full JSON round-trip bit-for-bit; and every other generation
//! is refused by the one parser.

use adcc::campaign::engine::{run_campaign, CampaignConfig};
use adcc::campaign::report::{CampaignReport, SCHEMA};
use adcc::campaign::resilience::run_resilience;
use adcc::campaign::scenario::Registry;

const V7_FIXTURE: &str = include_str!("fixtures/campaign-report-v7.json");

fn v2_config() -> CampaignConfig {
    CampaignConfig {
        seed: 42,
        budget_states: 26,
        threads: 2,
        telemetry: true,
        ..CampaignConfig::default()
    }
}

#[test]
fn v7_fixture_parses_and_roundtrips_bit_for_bit() {
    // The v7 generation: per-scenario `natural_resilience` blocks from the
    // EasyCrash-style dirty-restart sweep (`campaign run --resilience`),
    // each carrying the tolerance ladder, the five-way class counts, and
    // the derived rates. It is the current schema, so parse → emit must be
    // byte-identical — including the float tolerances and the recomputed
    // `rate_ppm` / `mean_extra_units_milli` fields.
    assert!(V7_FIXTURE.contains(SCHEMA));
    let report = CampaignReport::parse(V7_FIXTURE).expect("v7 fixture must stay readable");
    assert_eq!(report.registry, Registry::Kernel);
    assert!(report.telemetry.is_some());
    for s in &report.scenarios {
        let r = s
            .natural_resilience
            .as_ref()
            .unwrap_or_else(|| panic!("{}: kernel scenario without a resilience block", s.name));
        assert_eq!(r.trials(), s.trials, "{}: every unit classifies", s.name);
    }
    assert!(
        report.scenarios.iter().any(|s| s
            .natural_resilience
            .as_ref()
            .unwrap()
            .classes
            .converged_ok()
            > 0),
        "iterative kernels absorb some dirty restarts"
    );
    assert_eq!(report.to_string_pretty(), V7_FIXTURE);
    // Replaying the fixture's header inputs through the fused resilience
    // engine reproduces it exactly — the `campaign replay --expect`
    // guarantee extends to the dirty-restart sweep.
    let rerun = run_resilience(&v2_config());
    assert_eq!(rerun.canonical_string(), report.canonical_string());
}

#[test]
fn merging_never_fabricates_resilience_blocks() {
    // `campaign merge` unions shard reports, and shards never run the
    // dirty-restart sweep — so even when fed full (unsharded) reports the
    // merged scenarios must drop any `natural_resilience` block rather
    // than pretend partial sweeps aggregated.
    let report = CampaignReport::parse(V7_FIXTURE).unwrap();
    let mut shard = report.clone();
    shard.shard = Some((0, 1));
    let merged = CampaignReport::merge_shards(&[shard]).expect("1-way merge succeeds");
    assert!(merged
        .scenarios
        .iter()
        .all(|s| s.natural_resilience.is_none()));
    assert_eq!(merged.totals, report.totals);
}

#[test]
fn every_fixture_generation_parses() {
    // One committed fixture, of the one generation the parser accepts.
    let report = CampaignReport::parse(V7_FIXTURE).expect("v7 fixture must parse");
    assert!(report.totals.total() > 0);
    assert!(report.to_string_pretty().contains(SCHEMA));
    // Every other generation is refused, and the error names the one
    // accepted.
    for v in ["v4", "v5", "v6"] {
        let other = format!("adcc-campaign-report/{v}");
        let err = CampaignReport::parse(&V7_FIXTURE.replace(SCHEMA, &other))
            .expect_err("only the current generation parses");
        assert!(
            err.contains("unsupported schema") && err.contains(SCHEMA),
            "{err}"
        );
    }
}

#[test]
fn v2_telemetry_block_roundtrips() {
    let report = run_campaign(&v2_config());
    assert!(report.telemetry.is_some());
    let text = report.to_string_pretty();
    assert!(text.contains(SCHEMA));
    let parsed = CampaignReport::parse(&text).expect("v2 with telemetry parses");
    assert_eq!(parsed, report, "telemetry block survives the round-trip");
    // Emission is deterministic: parse → emit is byte-identical, including
    // the derived adr/eadr/consistency-window fields.
    assert_eq!(parsed.to_string_pretty(), text);
    assert_eq!(parsed.canonical_string(), report.canonical_string());
}

#[test]
fn v2_without_telemetry_is_v1_shaped() {
    // The one schema rule: a block the run did not produce is absent from
    // the document and parses as `None` — a report produced without
    // `--telemetry` carries no trace of the block.
    let report = run_campaign(&CampaignConfig {
        telemetry: false,
        ..v2_config()
    });
    let text = report.to_string_pretty();
    assert!(!text.contains("\"telemetry\""));
    let parsed = CampaignReport::parse(&text).unwrap();
    assert!(parsed.telemetry.is_none());
    assert!(parsed.scenarios.iter().all(|s| s.telemetry.is_none()));
    assert_eq!(parsed.canonical_string(), report.canonical_string());
}
