//! The one command: every workload in its own child process (so
//! `peak_heap_mb` is per workload), timed repeats first, then one separate
//! traced pass, with the noise guard in between.

use std::path::Path;
use std::process::Command;

use adcc_campaign::json::Json;

use crate::host;
use crate::metrics;
use crate::stats::{as_f64, Summary};
use crate::workloads::{Scale, Workload};

/// A primary metric whose repeats spread wider than this is rerun once and
/// marked noisy if it stays that wide.
pub const NOISY_SPREAD_PCT: f64 = 15.0;

pub const RESULT_SCHEMA: &str = "adcc-benchmark-result/v1";

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
}

/// Run one workload pass in a child process and read back its detailed
/// document. The child prints its own metric table.
fn child(args: &SuiteArgs, w: Workload, traced: bool, out_dir: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.scale == Scale::Smoke {
        cmd.arg("--smoke");
    }
    // `status` waits for the child: nothing outlives the suite.
    let status = cmd
        .status()
        .map_err(|e| format!("cannot start {}: {e}", w.name()))?;
    if !status.success() {
        return Err(format!("{} exited with {status}", w.name()));
    }
    let path = out_dir.join(run_file(w, traced));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn run_file(w: Workload, traced: bool) -> String {
    format!("run-{}-trace{}.json", w.name(), u8::from(traced))
}

fn metric_summary(doc: &Json, name: &str) -> Option<Summary> {
    Summary::from_json(doc.get("metrics")?.get(name)?).ok()
}

fn is_correct(doc: &Json) -> bool {
    doc.get("correct") == Some(&Json::Bool(true))
}

/// Run everything; returns whether every workload's outputs were correct.
pub fn run(args: &SuiteArgs, out_dir: &Path) -> Result<bool, String> {
    let host_block = host::host_block();
    println!("host: {}", crate::run::compact(&host_block));
    let mut all_ok = true;
    let mut workloads = Json::obj();
    for w in Workload::ALL {
        let primary = metrics::primary_metric(w);
        let spread = |doc: &Json| metric_summary(doc, primary).map_or(0.0, |s| s.spread_pct());
        let mut timed = child(args, w, false, out_dir)?;
        let mut noisy = false;
        if spread(&timed) > NOISY_SPREAD_PCT {
            println!(
                "noise guard: {} {primary} spread {:.1}% > {NOISY_SPREAD_PCT}%, rerunning once",
                w.name(),
                spread(&timed)
            );
            timed = child(args, w, false, out_dir)?;
            noisy = spread(&timed) > NOISY_SPREAD_PCT;
        }
        let traced = child(args, w, true, out_dir)?;
        all_ok &= is_correct(&timed) && is_correct(&traced);
        let mut entry = Json::obj();
        entry.push("noisy", Json::Bool(noisy));
        entry.push("timed", timed);
        entry.push("traced", traced);
        workloads.push(w.name(), entry);
    }

    let mut doc = Json::obj();
    doc.push("schema", Json::Str(RESULT_SCHEMA.into()));
    doc.push("seed", Json::Int(args.seed));
    doc.push("seconds", Json::Float(args.seconds));
    doc.push(
        "scale",
        Json::Str(
            if args.scale == Scale::Smoke {
                "smoke"
            } else {
                "full"
            }
            .into(),
        ),
    );
    doc.push("host", host_block);
    doc.push("workloads", workloads);
    print_summary(&doc);
    let path = out_dir.join(format!("result-seed{}.json", args.seed));
    std::fs::write(&path, doc.pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("result written to {}", path.display());
    Ok(all_ok)
}

/// One row per (end-to-end metric, workload) it applies to.
fn print_summary(doc: &Json) {
    println!("== summary: end-to-end metrics ==");
    println!(
        "{:<18} {:<28} {:>8} {:>14} {:>9} {:>3}  flags",
        "workload", "metric", "unit", "median", "spread_%", "n"
    );
    for w in Workload::ALL {
        let Some(entry) = doc.get("workloads").and_then(|ws| ws.get(w.name())) else {
            continue;
        };
        let noisy = entry.get("noisy") == Some(&Json::Bool(true));
        let Some(timed) = entry.get("timed") else {
            continue;
        };
        for m in metrics::END_TO_END.iter().filter(|m| (m.applies)(w)) {
            let Some(s) = metric_summary(timed, m.name) else {
                continue;
            };
            let flag = if noisy && m.name == metrics::primary_metric(w) {
                "noisy"
            } else {
                ""
            };
            println!(
                "{:<18} {:<28} {:>8} {:>14.4} {:>9.2} {:>3}  {flag}",
                w.name(),
                m.name,
                m.unit,
                s.median,
                s.spread_pct(),
                s.n
            );
        }
        let share = |pass: &str| as_f64(entry.get(pass).and_then(|d| d.get("failed_share")));
        println!(
            "{:<18} {:<28} {:>8} {:>14} (timed) {:>6} (traced)",
            w.name(),
            "failed_share",
            "share",
            share("timed").map_or("?".into(), |v| v.to_string()),
            share("traced").map_or("?".into(), |v| v.to_string()),
        );
    }
}
