//! Report-schema compatibility: the committed fixtures for every accepted
//! schema generation (`adcc-campaign-report/v5` through `/v7` — the ones
//! whose header today's engine can re-run) must stay parseable by
//! everything `campaign replay`, `campaign merge`, and `campaign compare`
//! use; the current telemetry, diagnostics, and natural-resilience blocks
//! must survive a full JSON round-trip bit-for-bit; and older generations
//! are refused by the one parser.

use adcc::campaign::engine::{run_campaign, CampaignConfig};
use adcc::campaign::report::{CampaignReport, RERUNNABLE_SCHEMAS, SCHEMA, SCHEMA_V5, SCHEMA_V6};
use adcc::campaign::resilience::run_resilience;
use adcc::campaign::scenario::Registry;
use adcc::dist::net::FaultProfile;

const V5_FIXTURE: &str = include_str!("fixtures/campaign-report-v5.json");
const V6_FIXTURE: &str = include_str!("fixtures/campaign-report-v6.json");
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
fn v5_fixture_still_parses_and_upgrades_cleanly() {
    // The v5 generation: a `faults` header naming the fabric fault profile
    // plus the injected-fault telemetry keys (`net_dropped`, `net_reordered`,
    // `net_duplicated`, `net_retries`, `remote_restore_bytes`), but no
    // analyzer `diagnostics` block yet.
    assert!(V5_FIXTURE.contains(SCHEMA_V5));
    assert!(!V5_FIXTURE.contains("\"diagnostics\""));
    let report = CampaignReport::parse(V5_FIXTURE).expect("v5 fixture must stay readable");
    assert_eq!(
        report.registry,
        Registry::Dist,
        "v5 fixture sweeps the distributed registry"
    );
    assert_eq!(
        report.faults,
        FaultProfile::Lossy,
        "v5 fixture ran under the lossy fabric profile"
    );
    assert!(
        report.diagnostics.is_none(),
        "pre-v6 reports carry no block"
    );
    let t = report
        .telemetry
        .as_ref()
        .expect("v5 fixture carries telemetry");
    assert!(t.net_dropped > 0, "the lossy fabric drops transmits");
    assert!(t.net_retries > 0, "every drop forces a retransmission");
    assert_eq!(
        report.totals.silent_corruption, 0,
        "fabric faults never corrupt results silently"
    );
    // Re-emission upgrades to v6 (the schema string only — no
    // `diagnostics` block appears, since the run never attached the
    // analyzer) and parses back to the same report.
    let upgraded = report.to_string_pretty();
    assert!(upgraded.contains(SCHEMA) && !upgraded.contains(SCHEMA_V5));
    assert!(!upgraded.contains("\"diagnostics\""));
    let reparsed = CampaignReport::parse(&upgraded).unwrap();
    assert_eq!(reparsed, report);
    assert_eq!(reparsed.canonical_string(), report.canonical_string());
}

#[test]
fn v6_fixture_still_parses_and_upgrades_cleanly() {
    // The v6 generation: an optional `diagnostics` block recording which
    // scenarios ran under the persist-order analyzer and what protocol
    // findings the sanitizer raised (empty on a clean tree), but no
    // `natural_resilience` blocks yet.
    assert!(V6_FIXTURE.contains(SCHEMA_V6));
    assert!(!V6_FIXTURE.contains("natural_resilience"));
    let report = CampaignReport::parse(V6_FIXTURE).expect("v6 fixture must stay readable");
    assert_eq!(
        report.registry,
        Registry::Ds,
        "v6 fixture triages the persistent data-structure registry"
    );
    let diags = report
        .diagnostics
        .as_ref()
        .expect("v6 fixture carries the analyzer block");
    assert_eq!(
        diags.analyzed,
        vec![
            "ds-queue-undo",
            "ds-queue-base",
            "ds-hash-undo",
            "ds-hash-base"
        ],
        "every ds scenario ran under the analyzer"
    );
    assert!(
        diags.findings.is_empty(),
        "a clean tree raises zero protocol findings"
    );
    assert!(
        report
            .scenarios
            .iter()
            .all(|s| s.natural_resilience.is_none()),
        "pre-v7 reports never carry a resilience block"
    );
    // Re-emission upgrades to v7 (the schema string only — the ds
    // registry has no dirty-restart path, so no `natural_resilience`
    // block appears) and parses back to the same report.
    let upgraded = report.to_string_pretty();
    assert!(upgraded.contains(SCHEMA) && !upgraded.contains(SCHEMA_V6));
    assert!(!upgraded.contains("natural_resilience"));
    let reparsed = CampaignReport::parse(&upgraded).unwrap();
    assert_eq!(reparsed, report);
    assert_eq!(reparsed.canonical_string(), report.canonical_string());
    // Replaying the fixture's header inputs through the analyzer-attached
    // engine reproduces it exactly: recording is outcome-neutral and the
    // triage path is deterministic.
    let rerun = adcc::campaign::triage::run_triage(&CampaignConfig {
        registry: Registry::Ds,
        ..v2_config()
    });
    assert_eq!(rerun.report.canonical_string(), report.canonical_string());
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
    for (name, text) in [("v5", V5_FIXTURE), ("v6", V6_FIXTURE), ("v7", V7_FIXTURE)] {
        let report = CampaignReport::parse(text)
            .unwrap_or_else(|e| panic!("{name} fixture must parse: {e}"));
        assert!(report.totals.total() > 0, "{name}");
        // Re-emission always upgrades to the current schema string.
        assert!(report.to_string_pretty().contains(SCHEMA), "{name}");
    }
    // One constant per accepted generation, and nothing older parses.
    assert_eq!(RERUNNABLE_SCHEMAS, [SCHEMA, SCHEMA_V6, SCHEMA_V5]);
    let err = CampaignReport::parse(&V5_FIXTURE.replace(SCHEMA_V5, "adcc-campaign-report/v4"))
        .expect_err("pre-v5 headers name a schedule today's engine cannot re-run");
    assert!(err.contains("unsupported schema"), "{err}");
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
