//! The metric registry: every end-to-end and per-layer metric by name,
//! with its unit, direction, kind and (end-to-end only) regression bound.
//! `BENCHMARK.json` is generated from these tables (`adcc_benchmark
//! manifest`) and a unit test keeps the committed file in step.

use adcc_campaign::json::Json;

use crate::workloads::Workload;

/// *Host* metrics are wall-clock measurements and carry a spread. *Exact*
/// metrics are deterministic counts or simulated values: the same seed
/// must reproduce them bit-for-bit, and a change under a PR that claims
/// only host speed is a failure, not a data point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Host,
    Exact,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median the metric may worsen by before it is
    /// a regression. Host timings get 25 %: ten runs of unchanged code
    /// spread 5-10 % between their quartiles on the sandbox, and a bound
    /// inside the instrument's own spread rejects unchanged code. For exact
    /// metrics the bound is the allowance the driver's cross-seed protocol
    /// needs; `compare` on equal seeds demands identity.
    pub bound: f64,
    pub kind: Kind,
    pub applies: fn(Workload) -> bool,
}

/// What an end-to-end metric reads on a workload it does not apply to.
/// The driver's contract wants every metric on every workload and never
/// zero; summaries and `compare` show these cells as `n/a`.
pub const NOT_APPLICABLE: f64 = 1.0;

fn campaign_workload(w: Workload) -> bool {
    w != Workload::PaperForward
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::Host,
        applies: |_| true,
    },
    EndToEnd {
        name: "states_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        kind: Kind::Host,
        applies: campaign_workload,
    },
    EndToEnd {
        name: "dirty_restarts_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        kind: Kind::Host,
        applies: |w| w == Workload::ResilienceSweep,
    },
    EndToEnd {
        name: "sim_maccess_per_s",
        unit: "M/s",
        better: Better::Higher,
        bound: 0.25,
        kind: Kind::Host,
        applies: |w| w == Workload::PaperForward,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
        kind: Kind::Host,
        applies: |_| true,
    },
    EndToEnd {
        name: "passed_share_pct",
        unit: "%",
        better: Better::Higher,
        bound: 0.001,
        kind: Kind::Exact,
        applies: |_| true,
    },
    EndToEnd {
        name: "algo_overhead_pct",
        unit: "%",
        better: Better::Lower,
        bound: 0.001,
        kind: Kind::Exact,
        applies: |w| w == Workload::PaperForward,
    },
    EndToEnd {
        name: "recompute_units_per_crash",
        unit: "units",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::Exact,
        applies: campaign_workload,
    },
];

/// The workload's primary throughput metric, the one the noise guard
/// watches.
pub fn primary_metric(w: Workload) -> &'static str {
    match w {
        Workload::ResilienceSweep => "dirty_restarts_per_s",
        Workload::PaperForward => "sim_maccess_per_s",
        _ => "states_per_s",
    }
}

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
}

/// Every scenario of the three registries, in registry order (a unit test
/// pins the list against the registries).
pub const SCENARIOS: [&str; 23] = [
    "cg-extended",
    "cg-ckpt",
    "cg-pmem",
    "bicgstab-extended",
    "bicgstab-extended-windowed",
    "jacobi-extended",
    "jacobi-ckpt",
    "stencil-extended",
    "stencil-ckpt",
    "lu-extended",
    "lu-ckpt",
    "mc-selective",
    "mc-epoch",
    "dist-stencil-local",
    "dist-stencil-restart",
    "dist-jacobi-local",
    "dist-jacobi-restart",
    "dist-cg-local",
    "dist-cg-restart",
    "ds-queue-undo",
    "ds-queue-base",
    "ds-hash-undo",
    "ds-hash-base",
];

/// Kernel scenarios whose harvest pipeline the traced pass replicates from
/// public calls.
pub const KERNEL_REPLICAS: [&str; 4] = ["cg-extended", "cg-ckpt", "cg-pmem", "mc-selective"];

/// Simulated-clock buckets reported for `paper-forward`.
pub const BUCKETS: [&str; 9] = [
    "compute",
    "memory",
    "ckpt-copy",
    "flush",
    "fence",
    "log",
    "io",
    "detect",
    "resume",
];

pub const MECHANISMS: [&str; 3] = ["ckpt-nvm", "pmem-nvm", "algo-nvm"];

/// The per-layer metric list, layer by layer (layer = crate name). A
/// workload that does not exercise a layer reads 0 for its metrics: the
/// layer did no work there.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    use Kind::{Exact, Host};
    let mut out: Vec<PerLayer> = Vec::new();
    let mut add = |name: String, unit: &'static str, better: Better, kind: Kind| {
        out.push(PerLayer {
            name,
            unit,
            better,
            kind,
        })
    };
    // sim
    add("sim.forward_ns_per_access".into(), "ns", Lower, Host);
    add("sim.harvest_fork_us".into(), "us", Lower, Host);
    add("sim.materialize_us".into(), "us", Lower, Host);
    add("sim.from_image_us".into(), "us", Lower, Host);
    add("sim.accesses".into(), "count", Lower, Exact);
    add("sim.hit_ratio_ppm".into(), "ppm", Higher, Exact);
    add("sim.nvm_line_writes".into(), "count", Lower, Exact);
    add("sim.flushes".into(), "count", Lower, Exact);
    add("sim.sfences".into(), "count", Lower, Exact);
    add("sim.materialize_bytes".into(), "B", Lower, Exact);
    add("sim.delta_bytes_per_state".into(), "B", Lower, Exact);
    for b in BUCKETS {
        add(format!("sim.bucket_ps.{b}"), "ps", Lower, Exact);
    }
    // core
    for k in crate::forward::KERNELS {
        add(format!("core.forward_ms.{k}"), "ms", Lower, Host);
    }
    for s in KERNEL_REPLICAS {
        add(format!("core.recover_resume_ms.{s}"), "ms", Lower, Host);
    }
    add("core.detect_ms.cg-extended".into(), "ms", Lower, Host);
    add(
        "core.dirty_restart_ms.cg-extended".into(),
        "ms",
        Lower,
        Host,
    );
    for k in crate::forward::KERNELS {
        for m in MECHANISMS {
            add(format!("core.overhead_pct.{k}.{m}"), "%", Lower, Exact);
        }
    }
    // pmem, ckpt
    add("pmem.log_bytes".into(), "B", Lower, Exact);
    add("pmem.log_appends".into(), "count", Lower, Exact);
    add("pmem.undo_recover_us".into(), "us", Lower, Host);
    add("ckpt.copy_ps".into(), "ps", Lower, Exact);
    add("ckpt.checkpoint_ms".into(), "ms", Lower, Host);
    // dist
    add("dist.reference_run_ms".into(), "ms", Lower, Host);
    add("dist.fork_us".into(), "us", Lower, Host);
    add("dist.batch_us_per_state".into(), "us", Lower, Host);
    add("dist.net_msgs".into(), "count", Lower, Exact);
    add("dist.net_bytes".into(), "B", Lower, Exact);
    add("dist.net_retries".into(), "count", Lower, Exact);
    add("dist.net_dropped".into(), "count", Lower, Exact);
    add(
        "dist.recovery_net_bytes_per_trial.local".into(),
        "B",
        Lower,
        Exact,
    );
    add(
        "dist.recovery_net_bytes_per_trial.restart".into(),
        "B",
        Lower,
        Exact,
    );
    add("dist.remote_restore_bytes".into(), "B", Lower, Exact);
    // ds, analyze
    add("ds.batch_us_per_state".into(), "us", Lower, Host);
    add("ds.replay_us_per_op".into(), "us", Lower, Host);
    add("ds.ops_replayed".into(), "count", Lower, Exact);
    add("analyze.events_recorded".into(), "count", Lower, Exact);
    add("analyze.sanitize_us_per_kevent".into(), "us", Lower, Host);
    add("analyze.recording_overhead_pct".into(), "%", Lower, Host);
    // resilience, telemetry
    add("resilience.converged_ok_ppm".into(), "ppm", Higher, Exact);
    add("resilience.extra_units_total".into(), "count", Lower, Exact);
    add("resilience.images_per_state".into(), "ratio", Lower, Exact);
    add("telemetry.probe_overhead_pct".into(), "%", Lower, Host);
    // campaign
    add("campaign.registry_build_ms".into(), "ms", Lower, Host);
    add("campaign.engine_overhead_pct".into(), "%", Lower, Host);
    for s in SCENARIOS {
        add(format!("campaign.scenario_ms.{s}"), "ms", Lower, Host);
    }
    add("campaign.parallel_efficiency".into(), "ratio", Higher, Host);
    add("campaign.report_serialize_ms".into(), "ms", Lower, Host);
    add("campaign.report_parse_ms".into(), "ms", Lower, Host);
    add("campaign.report_bytes".into(), "B", Lower, Exact);
    add("campaign.forward_executions".into(), "count", Lower, Exact);
    add("campaign.images_harvested".into(), "count", Lower, Exact);
    add("campaign.image_bytes_per_state".into(), "B", Lower, Exact);
    add("campaign.peak_live_bytes".into(), "B", Lower, Exact);
    add("campaign.trace_overhead_pct".into(), "%", Lower, Host);
    add("campaign.traced_named_share_pct".into(), "%", Higher, Host);
    // harness
    add("harness.figure_match".into(), "count", Higher, Exact);
    out
}

/// Seconds one driver run measures.
pub const RUN_SECONDS: u64 = 16;

/// The `BENCHMARK.json` document.
pub fn manifest() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str(s.to_string())).collect());
    let mut doc = Json::obj();
    doc.push("command", strs(&["bash", "benchmark/run.sh"]));
    doc.push("paths", strs(&["benchmark"]));
    doc.push("run_seconds", Json::Int(RUN_SECONDS));
    let workloads = Workload::ALL
        .iter()
        .map(|w| {
            let mut j = Json::obj();
            j.push("name", Json::Str(w.name().into()));
            j.push("why", Json::Str(w.why().into()));
            j
        })
        .collect();
    doc.push("workloads", Json::Arr(workloads));
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            let mut j = Json::obj();
            j.push("name", Json::Str(m.name.into()));
            j.push("unit", Json::Str(m.unit.into()));
            j.push("better", Json::Str(m.better.name().into()));
            j.push("bound", Json::Float(m.bound));
            j
        })
        .collect();
    doc.push("end_to_end", Json::Arr(e2e));
    let layers = per_layer()
        .iter()
        .map(|m| {
            let mut j = Json::obj();
            j.push("name", Json::Str(m.name.clone()));
            j.push("unit", Json::Str(m.unit.into()));
            j.push("better", Json::Str(m.better.name().into()));
            j
        })
        .collect();
    doc.push("per_layer", Json::Arr(layers));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcc_campaign::scenario::Registry;
    use std::collections::BTreeSet;

    #[test]
    fn scenario_list_matches_the_registries() {
        let names: Vec<&str> = Registry::ALL
            .iter()
            .flat_map(|r| r.scenarios())
            .map(|s| s.name())
            .collect();
        assert_eq!(names, SCENARIOS);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .chain(layers.iter().map(|m| (m.name.clone(), m.unit)))
            .chain(Workload::ALL.iter().map(|w| (w.name().to_string(), "x")))
        {
            assert!(ok_name(&name), "bad name {name}");
            assert!(ok_unit(unit), "bad unit {unit} on {name}");
            assert!(seen.insert(name.clone()), "duplicate name {name}");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
        assert!(setup.is_some_and(|m| m.bound == 0.25 && m.unit == "s"));
    }

    /// The committed `BENCHMARK.json` is exactly what the tables generate.
    #[test]
    fn committed_manifest_is_current() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest().pretty(),
            "regenerate with: benchmark/run.sh manifest > BENCHMARK.json"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
