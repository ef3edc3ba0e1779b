//! # adcc-analyze — persist-order race detector and root-cause triage
//!
//! The campaign engine (`adcc::campaign`) classifies crash states; this
//! crate explains them. It is a two-layer analysis engine over the
//! persistency event streams recorded by `adcc_sim::events`:
//!
//! 1. **Persistency sanitizer** ([`sanitizer`]): a pmemcheck/PMTest-style
//!    happens-before-persist checker. Protocol code declares the regions
//!    it is responsible for ([`Region`]), the sanitizer replays the
//!    store/flush/fence/crash stream through a per-line state machine and
//!    flags [`Diagnostic`]s: stores still unpersisted at the end of the
//!    run, flushes never ordered by a fence, redundant flushes of clean
//!    lines, and ordering races where a publishing store becomes durable
//!    before the payload it guards.
//! 2. **WITCHER-style triage** ([`triage`]): infer per-mechanism
//!    persist-order invariants from *passing* trials, then cluster the
//!    campaign's failing crash states by which invariant they violate,
//!    deduplicating thousands of `(rank, site)` failure points into a
//!    handful of [`RootCause`] reports with concrete event windows.
//!
//! Detector validity is proven by mutation testing: the `analyzer_mutants`
//! suites of the `sim`, `ds`, and `pmem` crates seed one classic
//! crash-consistency bug each through the mutation hook `adcc_sim::hook`
//! (a dropped fence, a skipped ordered persist, a skipped transaction-commit
//! writeback, a reordered two-slot publish) and assert the sanitizer flags
//! each with the correct category — and stays silent on the clean tree.

#![deny(missing_docs)]

pub mod sanitizer;
pub mod triage;

pub use sanitizer::{analyze, Analysis, Category, Checks, Diagnostic, Region, Role};
pub use triage::{cluster_failures, RootCause, TrialDigest};
