//! The machine-readable cost table (`campaign cost --json`).
//!
//! The human-readable cost table prints per-scenario flush/fence/log
//! volume and the modeled ADR/NearPM/eADR prices; this module emits the same
//! rows as a schema-versioned JSON document so CI can *diff* cost-model
//! outputs instead of scraping a text table. Parsing and emission
//! round-trip byte-for-byte (insertion-ordered objects, exact integers),
//! the same replayability contract campaign reports carry.

use adcc_telemetry::platform_costs;

use crate::json::Json;
use crate::report::CampaignReport;

/// Cost-table document schema (bump on breaking changes).
///
/// v2 added the `nearpm_cost_ps` column (near-data persistence preset)
/// between the ADR and eADR prices. It is the only generation parsed.
pub const COST_SCHEMA: &str = "adcc-cost-table/v2";

/// One scenario's cost row (or the campaign total).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostRow {
    /// Scenario name, or `"TOTAL"` for the campaign aggregate.
    pub name: String,
    /// Trials the aggregate covers.
    pub trials: u64,
    /// Write-back instructions of any flavour.
    pub flushes: u64,
    /// `SFENCE` persist barriers.
    pub sfences: u64,
    /// Transaction-log payload bytes.
    pub log_bytes: u64,
    /// Dirty residency at crash, bytes.
    pub dirty_bytes: u64,
    /// Average gap between persist barriers, picoseconds.
    pub consistency_window_ps: u64,
    /// Modeled cost under the ADR preset, picoseconds.
    pub adr_cost_ps: u64,
    /// Modeled cost under the NearPM near-data preset, picoseconds.
    pub nearpm_cost_ps: u64,
    /// Modeled cost under the eADR preset, picoseconds.
    pub eadr_cost_ps: u64,
}

impl CostRow {
    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.push("name", Json::Str(self.name.clone()));
        j.push("trials", Json::Int(self.trials));
        j.push("flushes", Json::Int(self.flushes));
        j.push("sfences", Json::Int(self.sfences));
        j.push("log_bytes", Json::Int(self.log_bytes));
        j.push("dirty_bytes", Json::Int(self.dirty_bytes));
        j.push(
            "consistency_window_ps",
            Json::Int(self.consistency_window_ps),
        );
        j.push("adr_cost_ps", Json::Int(self.adr_cost_ps));
        j.push("nearpm_cost_ps", Json::Int(self.nearpm_cost_ps));
        j.push("eadr_cost_ps", Json::Int(self.eadr_cost_ps));
        j
    }

    fn from_json(j: &Json) -> Result<CostRow, String> {
        let n = |key: &str| -> Result<u64, String> {
            j.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("cost row missing {key}"))
        };
        Ok(CostRow {
            name: j
                .get("name")
                .and_then(Json::as_str)
                .ok_or("cost row missing name")?
                .to_string(),
            trials: n("trials")?,
            flushes: n("flushes")?,
            sfences: n("sfences")?,
            log_bytes: n("log_bytes")?,
            dirty_bytes: n("dirty_bytes")?,
            consistency_window_ps: n("consistency_window_ps")?,
            adr_cost_ps: n("adr_cost_ps")?,
            nearpm_cost_ps: n("nearpm_cost_ps")?,
            eadr_cost_ps: n("eadr_cost_ps")?,
        })
    }
}

/// The full cost table: campaign header plus one row per
/// telemetry-carrying scenario and an optional campaign total.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostTable {
    /// Seed of the underlying campaign.
    pub seed: u64,
    /// Its crash-state budget.
    pub budget_states: u64,
    /// Its schedule spelling.
    pub schedule: String,
    /// Per-scenario rows, registry order.
    pub rows: Vec<CostRow>,
    /// Campaign-wide aggregate (absent when the campaign carried no
    /// telemetry at all).
    pub total: Option<CostRow>,
}

impl CostTable {
    /// Build the table from a telemetry-carrying campaign report.
    /// Scenarios without a telemetry block are skipped.
    pub fn from_report(report: &CampaignReport) -> CostTable {
        let row = |name: &str, trials: u64, t: &adcc_telemetry::ExecutionProfile| -> CostRow {
            let (adr, nearpm, eadr) = platform_costs(t);
            CostRow {
                name: name.to_string(),
                trials,
                flushes: t.flush_total(),
                sfences: t.sfences,
                log_bytes: t.log_bytes,
                dirty_bytes: t.dirty_bytes_at_crash(),
                consistency_window_ps: t.consistency_window_ps(),
                adr_cost_ps: adr,
                nearpm_cost_ps: nearpm,
                eadr_cost_ps: eadr,
            }
        };
        CostTable {
            seed: report.seed,
            budget_states: report.budget_states,
            schedule: report.schedule.clone(),
            rows: report
                .scenarios
                .iter()
                .filter_map(|s| s.telemetry.as_ref().map(|t| row(&s.name, s.trials, t)))
                .collect(),
            total: report
                .telemetry
                .as_ref()
                .map(|t| row("TOTAL", report.totals.total(), t)),
        }
    }

    /// Emit the schema-versioned JSON document.
    pub fn to_string_pretty(&self) -> String {
        let mut j = Json::obj();
        j.push("schema", Json::Str(COST_SCHEMA.into()));
        j.push("seed", Json::Int(self.seed));
        j.push("budget_states", Json::Int(self.budget_states));
        j.push("schedule", Json::Str(self.schedule.clone()));
        j.push(
            "scenarios",
            Json::Arr(self.rows.iter().map(CostRow::to_json).collect()),
        );
        if let Some(total) = &self.total {
            j.push("total", total.to_json());
        }
        j.pretty()
    }

    /// Parse a document produced by [`CostTable::to_string_pretty`].
    pub fn parse(text: &str) -> Result<CostTable, String> {
        let j = Json::parse(text)?;
        let schema = j
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing schema")?;
        if schema != COST_SCHEMA {
            return Err(format!(
                "unsupported schema {schema:?} (want {COST_SCHEMA:?})"
            ));
        }
        let n = |key: &str| -> Result<u64, String> {
            j.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing {key}"))
        };
        Ok(CostTable {
            seed: n("seed")?,
            budget_states: n("budget_states")?,
            schedule: j
                .get("schedule")
                .and_then(Json::as_str)
                .ok_or("missing schedule")?
                .to_string(),
            rows: j
                .get("scenarios")
                .and_then(Json::as_arr)
                .ok_or("missing scenarios")?
                .iter()
                .map(CostRow::from_json)
                .collect::<Result<Vec<_>, String>>()?,
            total: j.get("total").map(CostRow::from_json).transpose()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_campaign, CampaignConfig};

    #[test]
    fn cost_table_roundtrips_byte_for_byte() {
        let report = run_campaign(&CampaignConfig {
            budget_states: 26,
            telemetry: true,
            threads: 2,
            ..CampaignConfig::default()
        });
        let table = CostTable::from_report(&report);
        assert!(!table.rows.is_empty(), "telemetry campaign yields rows");
        let total = table.total.as_ref().expect("campaign total present");
        assert!(
            total.adr_cost_ps >= total.nearpm_cost_ps && total.nearpm_cost_ps >= total.eadr_cost_ps,
            "presets must price in ADR >= NearPM >= eADR order"
        );
        let text = table.to_string_pretty();
        let parsed = CostTable::parse(&text).unwrap();
        assert_eq!(parsed, table);
        assert_eq!(parsed.to_string_pretty(), text, "emit∘parse is identity");
    }

    #[test]
    fn telemetry_free_reports_yield_an_empty_table() {
        let report = run_campaign(&CampaignConfig {
            budget_states: 13,
            telemetry: false,
            threads: 2,
            ..CampaignConfig::default()
        });
        let table = CostTable::from_report(&report);
        assert!(table.rows.is_empty());
        assert!(table.total.is_none());
        // Still a valid, parseable document.
        assert_eq!(CostTable::parse(&table.to_string_pretty()).unwrap(), table);
    }

    #[test]
    fn parse_rejects_other_schemas() {
        for other in ["adcc-cost-table/v1", "adcc-cost-table/v3"] {
            let err = CostTable::parse(&format!(r#"{{"schema": "{other}"}}"#)).unwrap_err();
            assert!(err.contains("unsupported schema"), "{other}: {err}");
        }
    }
}
