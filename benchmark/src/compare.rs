//! `compare A.json B.json`: judge result B against baseline A, one row per
//! (metric, workload). Exact metrics must be identical; host-timing
//! end-to-end metrics must stay within their bound and are reported
//! *unresolved* rather than unchanged when either side's spread is wider
//! than the bound; host-timing per-layer metrics have no bound and are
//! listed for attribution only.

use adcc_campaign::json::Json;

use crate::metrics::{self, Better, Kind};
use crate::stats::{as_f64, Summary};
use crate::suite::RESULT_SCHEMA;
use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Exact metric, same value on both sides.
    Identical,
    /// Exact metric moved: a failure whatever the direction.
    Changed,
    /// Host metric worse than the baseline by more than its bound.
    Regression,
    /// Host metric within its bound, spreads narrower than the bound.
    WithinBound,
    /// Every sample of B reads better than every sample of A.
    Better,
    /// Within the bound by medians, but a spread is wider than the bound.
    Unresolved,
    /// Per-layer host timing: no bound, listed for attribution.
    Info,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Identical => "identical",
            Verdict::Changed => "CHANGED",
            Verdict::Regression => "REGRESSION",
            Verdict::WithinBound => "within-bound",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "info",
        }
    }

    pub fn fails(self) -> bool {
        matches!(self, Verdict::Changed | Verdict::Regression)
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    let delta = match better {
        Better::Higher => a - b,
        Better::Lower => b - a,
    };
    delta / a.abs().max(f64::MIN_POSITIVE)
}

/// Judge one bounded host-timing metric.
pub fn judge_host(better: Better, bound: f64, a: &Summary, b: &Summary) -> Verdict {
    if worse_by(better, a.median, b.median) > bound {
        return Verdict::Regression;
    }
    let all_better = match better {
        Better::Higher => b.min > a.max,
        Better::Lower => b.max < a.min,
    };
    if all_better {
        Verdict::Better
    } else if a.spread_pct().max(b.spread_pct()) > bound * 100.0 {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    }
}

pub fn judge_exact(a: &Summary, b: &Summary) -> Verdict {
    if a.median == b.median {
        Verdict::Identical
    } else {
        Verdict::Changed
    }
}

struct Side {
    doc: Json,
}

impl Side {
    fn load(path: &str) -> Result<Side, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if doc.get("schema").and_then(Json::as_str) != Some(RESULT_SCHEMA) {
            return Err(format!("{path}: not a {RESULT_SCHEMA} document"));
        }
        Ok(Side { doc })
    }

    fn header(&self, key: &str) -> Option<&Json> {
        self.doc.get(key)
    }

    fn entry(&self, w: Workload) -> Option<&Json> {
        self.doc.get("workloads")?.get(w.name())
    }

    /// The metric's summary if the pass reported it as applicable.
    fn metric(&self, w: Workload, pass: &str, name: &str) -> Option<Summary> {
        let m = self.entry(w)?.get(pass)?.get("metrics")?.get(name)?;
        if m.get("applies") != Some(&Json::Bool(true)) {
            return None;
        }
        Summary::from_json(m).ok()
    }

    fn noisy(&self, w: Workload) -> bool {
        self.entry(w).and_then(|e| e.get("noisy")) == Some(&Json::Bool(true))
    }

    fn correct(&self, w: Workload, pass: &str) -> bool {
        self.entry(w)
            .and_then(|e| e.get(pass))
            .and_then(|p| p.get("correct"))
            == Some(&Json::Bool(true))
    }
}

fn row(w: Workload, name: &str, unit: &str, a: &Summary, b: &Summary, v: Verdict, note: &str) {
    let change = if a.median == 0.0 {
        0.0
    } else {
        (b.median / a.median - 1.0) * 100.0
    };
    println!(
        "{:<18} {:<46} {:>6} {:>16.6} {:>16.6} {:>9.2} {:>8.2} {:>8.2}  {:<12} {note}",
        w.name(),
        name,
        unit,
        a.median,
        b.median,
        change,
        a.spread_pct(),
        b.spread_pct(),
        v.name()
    );
}

/// Compare two result files; `Ok(true)` when nothing regressed.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (Side::load(path_a)?, Side::load(path_b)?);
    for key in ["seed", "scale", "seconds"] {
        if a.header(key) != b.header(key) {
            return Err(format!(
                "{key} differs ({:?} vs {:?}): exact metrics only compare on equal inputs",
                a.header(key),
                b.header(key)
            ));
        }
    }
    println!(
        "{:<18} {:<46} {:>6} {:>16} {:>16} {:>9} {:>8} {:>8}  verdict",
        "workload", "metric", "unit", "A median", "B median", "change_%", "A sprd%", "B sprd%"
    );
    let mut failures = 0u32;
    let mut unresolved = 0u32;
    for w in Workload::ALL {
        for pass in ["timed", "traced"] {
            if !(a.correct(w, pass) && b.correct(w, pass)) {
                println!(
                    "{:<18} {pass} pass: outputs NOT correct on one side",
                    w.name()
                );
                failures += 1;
            }
        }
        let noisy_note = if a.noisy(w) || b.noisy(w) {
            "(workload marked noisy)"
        } else {
            ""
        };
        for m in &metrics::END_TO_END {
            let (Some(sa), Some(sb)) = (a.metric(w, "timed", m.name), b.metric(w, "timed", m.name))
            else {
                continue;
            };
            let v = match m.kind {
                Kind::Exact => judge_exact(&sa, &sb),
                Kind::Host => judge_host(m.better, m.bound, &sa, &sb),
            };
            failures += u32::from(v.fails());
            unresolved += u32::from(v == Verdict::Unresolved);
            row(w, m.name, m.unit, &sa, &sb, v, noisy_note);
        }
        for m in metrics::per_layer() {
            let (Some(sa), Some(sb)) = (
                a.metric(w, "traced", &m.name),
                b.metric(w, "traced", &m.name),
            ) else {
                continue;
            };
            let v = match m.kind {
                Kind::Exact => judge_exact(&sa, &sb),
                Kind::Host => Verdict::Info,
            };
            failures += u32::from(v.fails());
            row(w, &m.name, m.unit, &sa, &sb, v, "");
        }
    }
    let failed_share = |s: &Side| -> f64 {
        Workload::ALL
            .iter()
            .flat_map(|&w| ["timed", "traced"].map(|p| (w, p)))
            .filter_map(|(w, p)| as_f64(s.entry(w)?.get(p)?.get("failed_share")))
            .fold(0.0, f64::max)
    };
    println!(
        "max failed_share: A {} B {}; {failures} failing rows, {unresolved} unresolved",
        failed_share(&a),
        failed_share(&b)
    );
    Ok(failures == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(values: &[f64]) -> Summary {
        Summary::of(values)
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(Better::Higher, 100.0, 85.0) - 0.15).abs() < 1e-12);
        assert!((worse_by(Better::Lower, 100.0, 85.0) + 0.15).abs() < 1e-12);
        assert!((worse_by(Better::Lower, 2.0, 2.5) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn host_verdicts() {
        let base = s(&[99.0, 100.0, 101.0]);
        // 15% slower throughput against a 10% bound.
        assert_eq!(
            judge_host(Better::Higher, 0.10, &base, &s(&[84.0, 85.0, 86.0])),
            Verdict::Regression
        );
        // 3% slower, tight spreads.
        assert_eq!(
            judge_host(Better::Higher, 0.10, &base, &s(&[96.0, 97.0, 98.0])),
            Verdict::WithinBound
        );
        // Same median, but B spreads 20%.
        assert_eq!(
            judge_host(Better::Higher, 0.10, &base, &s(&[90.0, 100.0, 110.0])),
            Verdict::Unresolved
        );
        // Every B sample beats every A sample, even with a wide spread.
        assert_eq!(
            judge_host(Better::Higher, 0.10, &base, &s(&[120.0, 140.0, 160.0])),
            Verdict::Better
        );
        assert_eq!(
            judge_host(Better::Lower, 0.25, &s(&[1.0]), &s(&[1.3])),
            Verdict::Regression
        );
    }

    #[test]
    fn exact_metrics_must_be_identical() {
        assert_eq!(judge_exact(&s(&[6.129]), &s(&[6.129])), Verdict::Identical);
        assert_eq!(judge_exact(&s(&[6.129]), &s(&[6.128])), Verdict::Changed);
        assert!(Verdict::Changed.fails() && !Verdict::Unresolved.fails());
    }
}
