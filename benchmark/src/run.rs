//! One workload run's result: metrics, output checks, and the two forms it
//! is emitted in — the driver's one-line JSON object and the detailed
//! document the suite and `compare` read.

use adcc_campaign::json::Json;

use crate::metrics::{self, Kind};
use crate::stats::Summary;
use crate::workloads::Workload;

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub kind: Kind,
    /// `false` for an end-to-end metric on a workload it does not cover
    /// (reads [`metrics::NOT_APPLICABLE`]) and for a per-layer metric of a
    /// layer the workload does not exercise (reads 0).
    pub applies: bool,
    pub summary: Summary,
}

pub struct Check {
    pub name: String,
    pub ok: bool,
}

pub struct RunOutput {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    /// Operations attempted: crash states classified (or forward
    /// executions run) plus output checks made.
    pub attempted: u64,
    /// Silent-corruption trials + panicked campaigns + failed checks.
    pub failed: u64,
    pub host: Json,
    /// The timed repeats' host-speed calibration; `None` for traced passes,
    /// whose overheads are ratios of neighbours in time.
    pub calibration: Option<Calibration>,
}

/// See `calib.rs`: host timings of a timed run are scaled by `slowdown`.
pub struct Calibration {
    pub slowdown: f64,
    pub median_slice_ms: f64,
    pub slices: usize,
}

impl Calibration {
    pub fn of(calib: &crate::calib::Calibrator) -> Calibration {
        Calibration {
            slowdown: calib.slowdown(),
            median_slice_ms: calib.median_slice_s() * 1e3,
            slices: calib.slices(),
        }
    }
}

/// Collects a run's measurements against the metric registry, so a run
/// can only report declared names and every declared name is reported.
pub struct MetricSet {
    workload: Workload,
    traced: bool,
    values: Vec<(String, Summary)>,
}

impl MetricSet {
    pub fn new(workload: Workload, traced: bool) -> MetricSet {
        MetricSet {
            workload,
            traced,
            values: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &str, summary: Summary) {
        assert!(
            !self.values.iter().any(|(n, _)| n == name),
            "metric {name} reported twice"
        );
        self.values.push((name.to_string(), summary));
    }

    pub fn exact(&mut self, name: &str, value: f64) {
        self.set(name, Summary::exact(value));
    }

    /// Resolve against the registry: declared order, undeclared names are
    /// a bug, unreported names read as not applicable.
    pub fn finish(mut self) -> Vec<Metric> {
        let mut take = |name: &str| {
            self.values
                .iter()
                .position(|(n, _)| n == name)
                .map(|i| self.values.swap_remove(i).1)
        };
        let out: Vec<Metric> = if self.traced {
            metrics::per_layer()
                .into_iter()
                .map(|m| {
                    let found = take(&m.name);
                    Metric {
                        applies: found.is_some(),
                        summary: found.unwrap_or_else(|| Summary::exact(0.0)),
                        name: m.name,
                        unit: m.unit,
                        kind: m.kind,
                    }
                })
                .collect()
        } else {
            metrics::END_TO_END
                .iter()
                .map(|m| {
                    let applies = (m.applies)(self.workload);
                    let found = take(m.name);
                    assert_eq!(
                        found.is_some(),
                        applies,
                        "{} on {}: reported and declared applicability differ",
                        m.name,
                        self.workload.name()
                    );
                    Metric {
                        name: m.name.to_string(),
                        unit: m.unit,
                        kind: m.kind,
                        applies,
                        summary: found.unwrap_or_else(|| Summary::exact(metrics::NOT_APPLICABLE)),
                    }
                })
                .collect()
        };
        assert!(
            self.values.is_empty(),
            "undeclared metrics: {:?}",
            self.values.iter().map(|(n, _)| n).collect::<Vec<_>>()
        );
        out
    }
}

/// Serialize without newlines: the driver reads the last stdout line.
pub fn compact(j: &Json) -> String {
    fn esc(s: &str) -> String {
        // Metric names, units and check names are plain ASCII; escape the
        // two characters that would break a JSON string anyway.
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    match j {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Int(v) => v.to_string(),
        Json::Float(v) if v.is_finite() => format!("{v:?}"),
        Json::Float(_) => "null".into(),
        Json::Str(s) => format!("\"{}\"", esc(s)),
        Json::Arr(items) => format!(
            "[{}]",
            items.iter().map(compact).collect::<Vec<_>>().join(", ")
        ),
        Json::Obj(fields) => format!(
            "{{{}}}",
            fields
                .iter()
                .map(|(k, v)| format!("\"{}\": {}", esc(k), compact(v)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// `failed / attempted`: must stay 0.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The driver's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn driver_line(&self) -> String {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            let mut v = Json::obj();
            v.push("value", Json::Float(m.summary.median));
            v.push("unit", Json::Str(m.unit.to_string()));
            metrics.push(&m.name, v);
        }
        let mut j = Json::obj();
        j.push("correct", Json::Bool(self.correct()));
        j.push("attempted", Json::Int(self.attempted));
        j.push("failed", Json::Int(self.failed));
        j.push("metrics", metrics);
        compact(&j)
    }

    /// The detailed document (`benchmark/out/run-<workload>-trace<t>.json`).
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.push("workload", Json::Str(self.workload.name().into()));
        j.push("seed", Json::Int(self.seed));
        j.push("traced", Json::Bool(self.traced));
        j.push("correct", Json::Bool(self.correct()));
        j.push("attempted", Json::Int(self.attempted));
        j.push("failed", Json::Int(self.failed));
        j.push("failed_share", Json::Float(self.failed_share()));
        j.push("host", self.host.clone());
        if let Some(c) = &self.calibration {
            let mut v = Json::obj();
            v.push("slowdown", Json::Float(c.slowdown));
            v.push("median_slice_ms", Json::Float(c.median_slice_ms));
            v.push("slices", Json::Int(c.slices as u64));
            j.push("calibration", v);
        }
        // For orientation, not a metric: see `heap.rs` for why `VmHWM`
        // cannot carry a bound.
        j.push("vm_hwm_mb", Json::Float(crate::host::vm_hwm_mb()));
        let mut metrics = Json::obj();
        for m in &self.metrics {
            let mut v = m.summary.to_json();
            v.push("unit", Json::Str(m.unit.to_string()));
            v.push(
                "kind",
                Json::Str(
                    if m.kind == Kind::Exact {
                        "exact"
                    } else {
                        "host"
                    }
                    .into(),
                ),
            );
            v.push("applies", Json::Bool(m.applies));
            metrics.push(&m.name, v);
        }
        j.push("metrics", metrics);
        let checks = self
            .checks
            .iter()
            .map(|c| {
                let mut v = Json::obj();
                v.push("name", Json::Str(c.name.clone()));
                v.push("ok", Json::Bool(c.ok));
                v
            })
            .collect();
        j.push("checks", Json::Arr(checks));
        j
    }

    /// Every metric by name with unit, median, min, max, n and spread,
    /// then the checks.
    pub fn print(&self) {
        println!(
            "== {} (seed {}, {}) ==",
            self.workload.name(),
            self.seed,
            if self.traced {
                "traced pass: per-layer metrics"
            } else {
                "timed repeats: end-to-end metrics, tracing off"
            }
        );
        println!(
            "{:<46} {:>8} {:>16} {:>16} {:>16} {:>3} {:>9}",
            "metric", "unit", "median", "min", "max", "n", "spread_%"
        );
        for m in self.metrics.iter().filter(|m| m.applies) {
            let s = &m.summary;
            println!(
                "{:<46} {:>8} {:>16.6} {:>16.6} {:>16.6} {:>3} {:>9.2}",
                m.name,
                m.unit,
                s.median,
                s.min,
                s.max,
                s.n,
                s.spread_pct()
            );
        }
        let skipped = self.metrics.iter().filter(|m| !m.applies).count();
        if skipped > 0 {
            println!("({skipped} metrics do not apply to this workload)");
        }
        for c in &self.checks {
            println!("check {:<4} {}", if c.ok { "ok" } else { "FAIL" }, c.name);
        }
        if let Some(c) = &self.calibration {
            println!(
                "host slowdown {:.3} (median of {} reference slices {:.2} ms): host timings \
                 above are scaled to the reference host; raw rate = value / slowdown, raw \
                 time = value x slowdown",
                c.slowdown, c.slices, c.median_slice_ms
            );
        }
        println!("VmHWM {:.1} MB (informational)", crate::host::vm_hwm_mb());
        println!(
            "attempted {} failed {} failed_share {}",
            self.attempted,
            self.failed,
            self.failed_share()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_is_one_line_and_parses_back() {
        let mut inner = Json::obj();
        inner.push("value", Json::Float(-1.25));
        inner.push("unit", Json::Str("1/s".into()));
        let mut j = Json::obj();
        j.push("correct", Json::Bool(true));
        j.push("attempted", Json::Int(7));
        j.push("metrics", inner);
        let line = compact(&j);
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), j);
    }

    #[test]
    fn timed_metric_set_fills_inapplicable_cells() {
        let mut set = MetricSet::new(Workload::PaperForward, false);
        set.set("setup_s", Summary::of(&[0.5, 0.6, 0.7]));
        set.exact("sim_maccess_per_s", 40.0);
        set.exact("peak_heap_mb", 30.0);
        set.exact("passed_share_pct", 100.0);
        set.exact("algo_overhead_pct", 6.0);
        let out = set.finish();
        assert_eq!(out.len(), metrics::END_TO_END.len());
        let states = out.iter().find(|m| m.name == "states_per_s").unwrap();
        assert!(!states.applies);
        assert_eq!(states.summary.median, metrics::NOT_APPLICABLE);
        assert!(out.iter().all(|m| m.summary.median != 0.0));
    }

    #[test]
    fn traced_metric_set_reads_zero_for_unexercised_layers() {
        let mut set = MetricSet::new(Workload::DsSweep, true);
        set.exact("ds.ops_replayed", 12.0);
        let out = set.finish();
        assert_eq!(out.len(), metrics::per_layer().len());
        assert!(
            out.iter()
                .find(|m| m.name == "ds.ops_replayed")
                .unwrap()
                .applies
        );
        let net = out.iter().find(|m| m.name == "dist.net_msgs").unwrap();
        assert!(!net.applies && net.summary.median == 0.0);
    }
}
