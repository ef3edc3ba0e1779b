//! Outside-in span recorder for the traced pass.
//!
//! Every call the benchmark makes into a layer is wrapped in a span
//! `(id, parent, layer, name, key, start_ns, end_ns, count)`. Spans stay in
//! memory and are written out once, at exit. A layer's self time is its
//! span's duration minus its direct children's durations. The traced pass
//! is single-threaded, so the open-span stack is the parent chain.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use adcc_campaign::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Crate the wrapped call belongs to (`sim`, `core`, `campaign`, ...);
    /// `bench` for the benchmark's own structural spans.
    pub layer: &'static str,
    pub name: &'static str,
    /// Scenario or kernel the span belongs to; empty when there is none.
    pub key: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work items the span covered (states, bytes, ops: the span's own unit).
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A disabled tracer records nothing and never reads the clock, so the
    /// same orchestration code runs as the untraced side of
    /// `campaign.trace_overhead_pct`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, layer: &'static str, name: &'static str, key: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            layer,
            name,
            key,
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, id: SpanId, count: u64) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.count = count;
    }

    /// Wrap one leaf call into a layer.
    pub fn leaf<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        key: &'static str,
        count: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(layer, name, key);
        let out = f();
        self.end(id, count);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span (indexed like `spans`): duration minus the durations
/// of direct children, floored at zero against clock granularity.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Per-(layer, name, key) aggregate of a span list.
#[derive(Debug, Clone, Default)]
pub struct Rollup {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub count: u64,
    /// Per-call durations, for medians.
    pub durations_ns: Vec<u64>,
}

pub type RollupKey = (&'static str, &'static str, &'static str);

pub fn rollup(spans: &[Span]) -> BTreeMap<RollupKey, Rollup> {
    let own = self_times(spans);
    let mut out: BTreeMap<RollupKey, Rollup> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(own) {
        let r = out.entry((s.layer, s.name, s.key)).or_default();
        r.calls += 1;
        r.total_ns += s.dur_ns();
        r.self_ns += self_ns;
        r.count += s.count;
        r.durations_ns.push(s.dur_ns());
    }
    out
}

/// Share of the traced wall (the top-level spans' durations) that lies in
/// spans of a named layer — anything but the benchmark's own `bench`
/// structure — in percent.
pub fn named_layer_share_pct(spans: &[Span]) -> f64 {
    let wall: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum();
    let own = self_times(spans);
    let named: u64 = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.layer != "bench")
        .map(|(_, &ns)| ns)
        .sum();
    named as f64 / wall.max(1) as f64 * 100.0
}

/// The trace document: the span list plus the per-layer self-time table.
fn to_json(workload: &str, spans: &[Span]) -> Json {
    let own = self_times(spans);
    let mut doc = Json::obj();
    doc.push("workload", Json::Str(workload.to_string()));
    let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
    for (s, &ns) in spans.iter().zip(&own) {
        *layers.entry(s.layer).or_default() += ns;
    }
    let mut by_layer = Json::obj();
    for (layer, ns) in layers {
        by_layer.push(layer, Json::Int(ns));
    }
    doc.push("self_ns_by_layer", by_layer);
    doc.push(
        "named_layer_share_pct",
        Json::Float(named_layer_share_pct(spans)),
    );
    let items = spans
        .iter()
        .zip(&own)
        .map(|(s, &self_ns)| {
            let mut j = Json::obj();
            j.push("id", Json::Int(s.id as u64));
            j.push(
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
            );
            j.push("workload", Json::Str(workload.to_string()));
            j.push("layer", Json::Str(s.layer.to_string()));
            j.push("name", Json::Str(s.name.to_string()));
            j.push("key", Json::Str(s.key.to_string()));
            j.push("start_ns", Json::Int(s.start_ns));
            j.push("end_ns", Json::Int(s.end_ns));
            j.push("self_ns", Json::Int(self_ns));
            j.push("count", Json::Int(s.count));
            j
        })
        .collect();
    doc.push("spans", Json::Arr(items));
    doc
}

/// Write the trace document to `<out_dir>/trace-<workload>.json`.
pub fn write(out_dir: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    std::fs::write(
        out_dir.join(format!("trace-{workload}.json")),
        to_json(workload, spans).pretty(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: "n",
            key: "",
            start_ns: start,
            end_ns: end,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100 ⊃ a 10..60 ⊃ b 20..30 ; root ⊃ c 70..90
        let spans = vec![
            span(0, None, "bench", 0, 100),
            span(1, Some(0), "campaign", 10, 60),
            span(2, Some(1), "sim", 20, 30),
            span(3, Some(0), "core", 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        // 70 of the root's 100 ns sit in named layers.
        assert!((named_layer_share_pct(&spans) - 70.0).abs() < 1e-9);
        let r = rollup(&spans);
        assert_eq!(r[&("campaign", "n", "")].self_ns, 40);
        assert_eq!(r[&("campaign", "n", "")].total_ns, 50);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let root = t.begin("bench", "workload", "");
        let v = t.leaf("sim", "materialize", "cg", 64, || 7);
        t.end(root, 1);
        assert_eq!(v, 7);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].count, 64);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        let mut off = Tracer::new(false);
        let root = off.begin("bench", "workload", "");
        assert_eq!(off.leaf("sim", "x", "", 1, || 3), 3);
        off.end(root, 1);
        assert!(off.spans().is_empty());
    }
}
