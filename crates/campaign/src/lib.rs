//! # adcc-campaign — crash-injection campaigns at scale
//!
//! The paper validates its scheme by sweeping crash points across kernel
//! iterations and checking recomputation-based recovery (§IV–V). This
//! crate turns that methodology into a single engine, in the spirit of
//! systematic crash-state enumerators like WITCHER and the campaign
//! statistics EasyCrash reports:
//!
//! * named [`scenario::Scenario`] **registries** ([`Registry`], selected
//!   with `campaign run --registry <name>`): `kernel` unifies every
//!   compute workload — CG, BiCGSTAB, Jacobi, heat stencil, checksum-LU,
//!   MC — under the mechanisms the paper compares (algorithm extension,
//!   checkpoint, undo-log transactions, selective/epoch flushing);
//!   `dist` sweeps the multi-rank `adcc::dist` kernels; `ds` sweeps the
//!   persistent data-structure (`adcc::ds`) queue/hash op-stream
//!   workloads under undo-logged and baseline protection;
//! * deterministic, seedable **schedules** ([`schedule::Schedule`]) that
//!   pick crash points: every-k, stratified random, exhaustive-below-N;
//! * a parallel **engine** ([`engine::run_campaign`]) fanning trials out
//!   across OS threads (each worker owns its own `MemorySystem`, so the
//!   single-clock simulator is untouched), classifying each outcome as
//!   recovered-exact / recovered-recomputed / detected-dirty /
//!   silent-corruption (plus completed-clean for points past the run);
//! * machine-readable JSON **reports** ([`report::CampaignReport`]) that
//!   are replayable from `(seed, budget, schedule)` alone — byte-for-byte
//!   identical across reruns and thread counts;
//! * the `campaign` **CLI** (`run`, `replay`, `merge`, `triage`,
//!   `resilience`, `compare`, `cost`) driving the PR-smoke and
//!   nightly-deep CI tiers. Throughput is measured from outside, by
//!   `benchmark/run.sh`.
//!
//! ## Example: run a 50-state campaign and read the report
//!
//! ```
//! use adcc_campaign::engine::{run_campaign, CampaignConfig};
//! use adcc_campaign::report::CampaignReport;
//! use adcc_campaign::schedule::Schedule;
//!
//! let cfg = CampaignConfig {
//!     seed: 42,
//!     budget_states: 50,
//!     schedule: Schedule::Stratified,
//!     threads: 2,
//!     telemetry: true,
//!     ..CampaignConfig::default()
//! };
//! cfg.validate().unwrap();
//! let report = run_campaign(&cfg);
//! assert_eq!(report.totals.total(), 50);
//! assert_eq!(report.silent_corruption_total(), 0);
//!
//! // The on-disk JSON round-trips, telemetry block included.
//! let parsed = CampaignReport::parse(&report.to_string_pretty()).unwrap();
//! let telemetry = parsed.telemetry.expect("campaign ran with telemetry");
//! assert!(telemetry.flush_total() > 0, "mechanisms flush");
//! ```

#![deny(missing_docs)]

pub mod cost;
pub mod engine;
pub mod json;
pub mod memstats;
pub mod outcome;
pub mod report;
pub mod resilience;
pub mod scenario;
pub mod scenarios;
pub mod schedule;
pub mod triage;

pub use cost::{CostRow, CostTable};
pub use engine::{run_campaign, CampaignConfig};
pub use memstats::{ImageMemory, ImageMemorySummary};
pub use outcome::{Outcome, OutcomeCounts};
pub use report::{
    compare, flush_audit, CampaignReport, DiagnosticRecord, DiagnosticsBlock, ScenarioReport,
};
pub use resilience::run_resilience;
pub use scenario::{
    Analyzed, AnalyzedBatch, AnalyzedTrial, Kernel, Mechanism, PassOutput, Passes, Registry,
    ResilienceBatch, Scenario, ScenarioInfo, Trial, UnitSpace,
};
pub use schedule::Schedule;
pub use triage::{run_triage, TriageReport};
