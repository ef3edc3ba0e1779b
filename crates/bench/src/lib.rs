//! Empty on purpose: the frozen `benchmark/Cargo.lock` names `adcc_bench`
//! and its seven dependency edges, so the package stays until that lockfile
//! may be regenerated. Figures are measured by `repro` and by `benchmark/`.
