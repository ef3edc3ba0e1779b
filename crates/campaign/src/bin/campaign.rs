//! The `campaign` CLI: run crash-injection campaigns, replay them from a
//! seed, re-run them under the analyzer, diff two reports, and price them
//! under the cost models. (Throughput is measured from outside, by
//! `benchmark/run.sh`.)
//!
//! ```text
//! campaign run     [--registry kernel|dist|ds] [--budget-states N]
//!                  [--seed S] [--threads T]
//!                  [--schedule stratified|every-k:K|exhaustive:N]
//!                  [--telemetry] [--resilience] [--out PATH]
//! campaign replay  --seed S [--registry NAME] [--budget-states N]
//!                  [--threads T] [--schedule SPEC] [--telemetry]
//!                  [--expect PATH]
//! campaign compare OLD.json NEW.json
//! campaign cost    [--budget-states N] [--seed S] [--threads T]
//!                  [--schedule SPEC] [--out PATH]
//! ```
//!
//! `--telemetry` embeds per-scenario flush/fence/log/dirty-residency
//! aggregates in the report; `campaign cost` runs a telemetry campaign
//! and prints the per-scenario cost table under the ADR, NearPM, and
//! eADR cost models. `--resilience` fuses the EasyCrash-style
//! dirty-restart sweep into the campaign, adding per-scenario
//! `natural_resilience` blocks to the report; `replay --expect` of such a
//! report re-runs the sweep.
//!
//! Exit codes: `run` fails (1) on any silent-corruption outcome and — with
//! `--telemetry` — on a flush-based scenario recording zero flushes,
//! `replay --expect` fails on a canonical-report mismatch, `compare` fails
//! on a regression (new silent corruption or dropped scenarios).

use std::io::{self, Write};
use std::process::ExitCode;

use adcc_campaign::cost::{CostTable, COST_SCHEMA};
use adcc_campaign::engine::{run_campaign, CampaignConfig};
use adcc_campaign::report::{compare, flush_audit, parse_shard, CampaignReport};
use adcc_campaign::resilience::run_resilience;
use adcc_campaign::scenario::Registry;
use adcc_campaign::schedule::Schedule;
use adcc_campaign::triage::run_triage;
use adcc_dist::net::FaultProfile;
use adcc_telemetry::platform_costs;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..], false),
        Some("replay") => cmd_run(&args[1..], true),
        Some("merge") => cmd_merge(&args[1..]),
        Some("triage") => cmd_triage(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("cost") => cmd_cost(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprint!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("campaign: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The usage text with the schema names it quotes filled in from their
/// constants, so it cannot name a generation the code no longer emits.
struct Usage;

const USAGE: Usage = Usage;

impl std::fmt::Display for Usage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&USAGE_TEXT.replace("{COST_SCHEMA}", COST_SCHEMA))
    }
}

const USAGE_TEXT: &str = "\
usage:
  campaign run     [--registry kernel|dist|ds] [--budget-states N]
                   [--seed S] [--threads T]
                   [--schedule stratified|every-k:K|exhaustive:N]
                   [--dense D] [--max-batch B] [--shard I/N]
                   [--faults off|lossy|chaotic]
                   [--telemetry] [--resilience] [--out PATH]
  campaign replay  --seed S [--registry NAME] [--budget-states N]
                   [--threads T] [--schedule SPEC] [--dense D]
                   [--max-batch B] [--shard I/N] [--faults PROFILE]
                   [--telemetry] [--resilience] [--expect PATH]
                   [--out PATH]
  campaign merge   --out PATH SHARD.json SHARD.json ...
  campaign triage  REPORT.json [--threads T] [--out PATH]
                   [--fail-on-diagnostics]
  campaign compare OLD.json NEW.json
  campaign cost    [--budget-states N] [--seed S] [--threads T]
                   [--schedule SPEC] [--registry NAME] [--json] [--out PATH]

--registry NAME selects the scenario registry to sweep (recorded in the
report; replays reproduce it): `kernel` (default) is the single-rank
compute-kernel suite, `dist` the multi-rank cluster scenarios with
(rank, site) crash points comparing global checkpoint restart against
algorithm-directed local recovery, `ds` the persistent data-structure
op-stream workloads (MSC queue, open-addressing hash table) under
undo-logged and unprotected-baseline protection.
--dense D appends D access-grain crash points per scenario after its
site-grain space (recorded in the report; replays reproduce it).
--max-batch B caps crash points harvested per forward execution (batched
copy-on-write delta images; the canonical report does not depend on it).
--faults PROFILE (dist registry only) injects seeded fabric faults under
every cluster's reliable transport: `off` (default) is the faultless
fabric, `lossy` drops/duplicates/reorders a small fraction of messages,
`chaotic` roughly quadruples the lossy rates AND swaps the dist presets
to 16-rank 2-D grid clusters with a remote checkpoint level plus
node-loss crash units (the failed rank's NVM image is unrecoverable and
recovery restores from the remote level). Recorded in the report;
replays reproduce it.
--shard I/N runs the I-th of an N-way positional split of the schedule
and emits a partial report carrying a shard marker; `campaign merge`
folds the complete shard set back into a report byte-identical to an
unsharded run of the same seed (partial campaigns are resumable: rerun
only the missing shards, then merge).
cost --json emits the cost table as a schema-versioned JSON document
({COST_SCHEMA}) instead of the text table, for CI diffing.
triage re-runs REPORT.json's exact schedule with the persist-order event
recorder attached, infers per-mechanism persist-order invariants from
the passing trials, and clusters the failing states by violated
invariant into a bounded root-cause list (adcc-triage-report/v1, no host
section: byte-identical across reruns and thread counts). The re-run
campaign report embeds the schema-v6 diagnostics block. Needs a v5+
unsharded report (older schemas predate the analyzed unit spaces; merge
shards first). --fail-on-diagnostics exits nonzero when the clean-tree
gate is violated (any protocol finding).
--resilience fuses an EasyCrash-style dirty-restart sweep into the run:
every harvested crash state is additionally rebooted from its raw dirty
NVM image with NO consistency mechanism (no undo replay, no checkpoint
rollback, no detection pass), run to its natural termination bound, and
classified converged-exact / converged-acceptable / converged-wrong /
diverged / detected-dirty-again against the crash-free reference. The
per-scenario aggregate lands in the schema-v7 natural_resilience block;
scenarios without a dirty-restart path (the ds registry) carry no block.
Incompatible with --shard (the sweep needs the full schedule).
";

/// Pull `--flag value` out of an option list.
fn take_opt(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .cloned()
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn parse_u64(text: &str, what: &str) -> Result<u64, String> {
    text.parse().map_err(|_| format!("bad {what}: {text:?}"))
}

/// Validate an option list against the flags a subcommand accepts:
/// `value_flags` consume the following argument, `bool_flags` stand alone.
fn check_known_flags(
    args: &[String],
    value_flags: &[&str],
    bool_flags: &[&str],
) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if value_flags.contains(&a.as_str()) {
            i += 2;
        } else if bool_flags.contains(&a.as_str()) {
            i += 1;
        } else {
            return Err(format!("unknown option {a:?}\n{USAGE}"));
        }
    }
    Ok(())
}

/// Run `print` against a locked stdout. A reader that went away (`campaign
/// run … | head -1`) is not a failure: the output stops there and the
/// command carries on to its exit code.
fn to_stdout(print: impl FnOnce(&mut io::StdoutLock) -> io::Result<()>) -> Result<(), String> {
    match print(&mut io::stdout().lock()) {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
            Err(format!("cannot write to stdout: {e}"))
        }
        _ => Ok(()),
    }
}

/// Presence test for a standalone boolean flag.
fn take_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn cmd_run(args: &[String], replay: bool) -> Result<ExitCode, String> {
    check_known_flags(
        args,
        &[
            "--registry",
            "--budget-states",
            "--seed",
            "--threads",
            "--schedule",
            "--dense",
            "--max-batch",
            "--shard",
            "--faults",
            "--out",
            "--expect",
        ],
        &["--telemetry", "--resilience"],
    )?;
    let expect_path = take_opt(args, "--expect")?;
    if expect_path.is_some() && !replay {
        return Err("--expect is a replay option".into());
    }
    let expected = expect_path.map(|p| read_report(&p)).transpose()?;

    // A replay inherits the expected report's inputs; explicit flags win.
    let mut cfg = match &expected {
        Some(exp) => config_of(exp)?,
        None => CampaignConfig::default(),
    };
    if let Some(v) = take_opt(args, "--seed")? {
        cfg.seed = parse_u64(&v, "seed")?;
    } else if replay && expected.is_none() {
        return Err("replay needs --seed (or --expect REPORT)".into());
    }
    if let Some(v) = take_opt(args, "--budget-states")? {
        cfg.budget_states = parse_u64(&v, "budget")?;
    }
    if let Some(v) = take_opt(args, "--threads")? {
        cfg.threads = parse_u64(&v, "threads")? as usize;
    }
    if let Some(v) = take_opt(args, "--schedule")? {
        cfg.schedule = Schedule::parse(&v)?;
    }
    if let Some(v) = take_opt(args, "--dense")? {
        cfg.dense_units = parse_u64(&v, "dense")?;
    }
    if let Some(v) = take_opt(args, "--max-batch")? {
        cfg.max_batch = parse_u64(&v, "max-batch")?.max(1);
    }
    if let Some(v) = take_opt(args, "--shard")? {
        cfg.shard = Some(parse_shard(&v)?);
    }
    // An explicit `--registry` wins over an inherited report value.
    if let Some(v) = take_opt(args, "--registry")? {
        cfg.registry = Registry::parse(&v).map_err(|e| format!("{e}\n{USAGE}"))?;
    }
    if let Some(v) = take_opt(args, "--faults")? {
        cfg.faults = FaultProfile::parse(&v).map_err(|e| format!("{e}\n{USAGE}"))?;
    }
    // A replay of a telemetry-carrying report must re-measure telemetry or
    // the canonical comparison could never match.
    cfg.telemetry =
        take_flag(args, "--telemetry") || expected.as_ref().is_some_and(|e| e.telemetry.is_some());
    // Same inheritance for the dirty-restart sweep: replaying a report
    // that carries natural_resilience blocks must re-run the sweep.
    let resilience = take_flag(args, "--resilience")
        || expected
            .as_ref()
            .is_some_and(|e| e.scenarios.iter().any(|s| s.natural_resilience.is_some()));
    if resilience && cfg.shard.is_some() {
        return Err(format!(
            "--resilience cannot be combined with --shard: the dirty-restart \
             sweep needs the full schedule (merged reports drop the block)\n{USAGE}"
        ));
    }
    // Resolve the output path up front: a malformed --out must not cost a
    // completed (possibly multi-minute) campaign.
    let out_path = take_opt(args, "--out")?;
    // Surface incoherent flag values (e.g. --faults on a registry without
    // a fabric) before the campaign spends any time running.
    cfg.validate().map_err(|e| format!("{e}\n{USAGE}"))?;

    let report = if resilience {
        run_resilience(&cfg)
    } else {
        run_campaign(&cfg)
    };
    // The report goes to disk before anything is printed: a closed or
    // failing stdout must not cost a completed campaign.
    if let Some(out) = &out_path {
        std::fs::write(out, report.to_string_pretty())
            .map_err(|e| format!("cannot write {out}: {e}"))?;
    }
    let matches_expected = expected
        .as_ref()
        .map(|exp| exp.canonical_string() == report.canonical_string());
    to_stdout(|o| {
        print_summary(o, &report)?;
        print_resilience(o, &report)?;
        if let Some(out) = &out_path {
            writeln!(o, "report written to {out}")?;
        } else if replay && expected.is_none() {
            // Bare replay: emit the canonical form for eyeballing/diffing.
            write!(o, "{}", report.canonical_string())?;
        }
        if matches_expected == Some(true) {
            writeln!(o, "replay OK: canonical report matches byte-for-byte")?;
        }
        Ok(())
    })?;
    if matches_expected == Some(false) {
        eprintln!("replay MISMATCH: canonical report differs from the expected file");
        return Ok(ExitCode::FAILURE);
    }
    Ok(exit_gate(&report))
}

/// The exit policy of every subcommand that ran or folded a campaign: any
/// silent-corruption outcome fails it, and so does a telemetry-carrying
/// report whose flush-based mechanisms recorded zero flushes
/// ([`flush_audit`]; vacuous without telemetry).
fn exit_gate(report: &CampaignReport) -> ExitCode {
    if report.silent_corruption_total() > 0 {
        eprintln!(
            "FAIL: {} silent-corruption outcome(s)",
            report.silent_corruption_total()
        );
        return ExitCode::FAILURE;
    }
    let audit = flush_audit(report);
    if !audit.is_empty() {
        for line in &audit {
            eprintln!("FLUSH AUDIT: {line}");
        }
        eprintln!("FAIL: flush-based mechanism(s) recorded zero flushes");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn print_summary(o: &mut impl Write, report: &CampaignReport) -> io::Result<()> {
    writeln!(
        o,
        "campaign: seed {} budget {} schedule {}{}{} threads {} wall {} ms",
        report.seed,
        report.budget_states,
        report.schedule,
        if report.dense_units > 0 {
            format!(" dense {}", report.dense_units)
        } else {
            String::new()
        },
        match report.registry {
            Registry::Kernel => String::new(),
            r => format!(" registry {}", r.name()),
        } + &match report.faults {
            FaultProfile::Off => String::new(),
            f => format!(" faults {}", f.name()),
        },
        report.threads,
        report.wall_clock_ms
    )?;
    if let Some((i, n)) = report.shard {
        writeln!(
            o,
            "partial report: shard {i}/{n} (merge the full set with `campaign merge`)"
        )?;
    }
    let m = &report.image_memory;
    if m.images > 0 {
        let distinct = match m.distinct_states {
            Some(d) => format!(", {d} distinct states"),
            None => String::new(),
        };
        writeln!(
            o,
            "crash-image memory: {} B/state resident ({} images{distinct} over {} executions; \
             logical dense copy {} B/state, {:.1}x; peak resident {:.2} MiB)",
            m.bytes_per_crash_state(),
            m.images,
            m.executions,
            m.full_copy_bytes_per_state(),
            m.full_copy_bytes_per_state() as f64 / m.bytes_per_crash_state().max(1) as f64,
            m.peak_live_bytes as f64 / (1024.0 * 1024.0),
        )?;
    }
    writeln!(
        o,
        "{:<30} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "scenario", "trials", "exact", "recomp", "detect", "clean", "SILENT"
    )?;
    for s in &report.scenarios {
        writeln!(
            o,
            "{:<30} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
            s.name,
            s.trials,
            s.outcomes.recovered_exact,
            s.outcomes.recovered_recomputed,
            s.outcomes.detected_dirty,
            s.outcomes.completed_clean,
            s.outcomes.silent_corruption
        )?;
    }
    let t = &report.totals;
    writeln!(
        o,
        "{:<30} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "TOTAL",
        t.total(),
        t.recovered_exact,
        t.recovered_recomputed,
        t.detected_dirty,
        t.completed_clean,
        t.silent_corruption
    )
}

/// Per-scenario natural-resilience table (printed only when the report
/// carries dirty-restart sweeps — a plain run shows nothing extra).
fn print_resilience(o: &mut impl Write, report: &CampaignReport) -> io::Result<()> {
    if !report
        .scenarios
        .iter()
        .any(|s| s.natural_resilience.is_some())
    {
        return Ok(());
    }
    writeln!(
        o,
        "{:<30} {:>6} {:>6} {:>6} {:>6} {:>7} {:>6} {:>5} {:>9}",
        "natural resilience",
        "trials",
        "exact",
        "accept",
        "wrong",
        "diverge",
        "detect",
        "ok%",
        "extra/ok"
    )?;
    for s in &report.scenarios {
        let Some(r) = s.natural_resilience.as_ref() else {
            continue;
        };
        let c = &r.classes;
        let total = c.total();
        let ok_pct = if total == 0 {
            0.0
        } else {
            c.converged_ok() as f64 * 100.0 / total as f64
        };
        writeln!(
            o,
            "{:<30} {:>6} {:>6} {:>6} {:>6} {:>7} {:>6} {:>5.1} {:>9}",
            s.name,
            total,
            c.converged_exact,
            c.converged_acceptable,
            c.converged_wrong,
            c.diverged,
            c.detected_dirty_again,
            ok_pct,
            match r.mean_extra_units_milli() {
                Some(m) => format!("{:.3}", m as f64 / 1e3),
                None => "-".to_string(),
            },
        )?;
    }
    Ok(())
}

/// Fold a complete set of shard reports into the canonical unsharded
/// report. Validation failures (overlap, gaps, mismatched campaigns,
/// unsharded inputs) exit nonzero without writing anything; the merged
/// document then passes through the same silent-corruption and flush-audit
/// gates as `run`, so a merged campaign is held to the run's standard.
fn cmd_merge(args: &[String]) -> Result<ExitCode, String> {
    let out = take_opt(args, "--out")?.ok_or_else(|| format!("merge needs --out PATH\n{USAGE}"))?;
    let paths: Vec<&String> = {
        let mut skip = false;
        args.iter()
            .filter(|a| {
                if skip {
                    skip = false;
                    return false;
                }
                if *a == "--out" {
                    skip = true;
                    return false;
                }
                true
            })
            .collect()
    };
    if paths.is_empty() {
        return Err(format!("merge needs at least one shard report\n{USAGE}"));
    }
    if let Some(flag) = paths.iter().find(|p| p.starts_with("--")) {
        return Err(format!("unknown option {flag:?}\n{USAGE}"));
    }
    let partials = paths
        .iter()
        .map(|p| read_report(p))
        .collect::<Result<Vec<_>, String>>()?;
    let merged = CampaignReport::merge_shards(&partials)?;
    std::fs::write(&out, merged.to_string_pretty())
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    to_stdout(|o| {
        print_summary(o, &merged)?;
        writeln!(o, "merged report written to {out}")
    })?;
    Ok(exit_gate(&merged))
}

/// Read and parse a report file; anything [`CampaignReport::parse`]
/// accepts.
fn read_report(path: &str) -> Result<CampaignReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    CampaignReport::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The config that reproduces `report`: the campaign inputs its header
/// records. `replay --expect` and `triage` both re-run a report from it.
fn config_of(report: &CampaignReport) -> Result<CampaignConfig, String> {
    Ok(CampaignConfig {
        seed: report.seed,
        budget_states: report.budget_states,
        schedule: Schedule::parse(&report.schedule)?,
        dense_units: report.dense_units,
        registry: report.registry,
        shard: report.shard,
        faults: report.faults,
        ..CampaignConfig::default()
    })
}

/// Re-run a report's exact schedule under the persist-order analyzer and
/// triage its failing states into clustered root causes. Rejects pre-v5
/// schemas (their unit spaces predate the analyzed scenarios) and shard
/// reports (triage needs the full schedule). `--fail-on-diagnostics` is
/// the CI clean-tree gate: any protocol finding exits nonzero.
fn cmd_triage(args: &[String]) -> Result<ExitCode, String> {
    let (value_flags, bool_flags) = (["--threads", "--out"], ["--fail-on-diagnostics"]);
    let (path, rest) = match args.split_first() {
        Some((p, rest)) if !p.starts_with("--") => (p, rest),
        _ => {
            // Surface an unknown option before complaining about the
            // missing positional, so typo'd flags get the right message.
            check_known_flags(args, &value_flags, &bool_flags)?;
            return Err(format!("triage needs a report path\n{USAGE}"));
        }
    };
    check_known_flags(rest, &value_flags, &bool_flags)?;
    let report = read_report(path)?;
    if report.shard.is_some() {
        return Err(format!(
            "{path}: cannot triage a shard report — merge the full set first \
             (campaign merge)\n{USAGE}"
        ));
    }
    let mut cfg = config_of(&report)?;
    if let Some(v) = take_opt(rest, "--threads")? {
        cfg.threads = parse_u64(&v, "threads")? as usize;
    }
    let out_path = take_opt(rest, "--out")?;
    cfg.validate().map_err(|e| format!("{e}\n{USAGE}"))?;

    let triaged = run_triage(&cfg);
    let diags = triaged
        .report
        .diagnostics
        .as_ref()
        .expect("triage always analyzes");
    if let Some(out) = &out_path {
        std::fs::write(out, triaged.to_string_pretty())
            .map_err(|e| format!("cannot write {out}: {e}"))?;
    }
    to_stdout(|o| {
        writeln!(
            o,
            "triage: seed {} budget {} registry {} — {} failing state(s), {} root cause(s), \
             {} analyzed scenario(s), {} protocol finding(s)",
            cfg.seed,
            cfg.budget_states,
            cfg.registry.name(),
            triaged.failing_states,
            triaged.root_causes.len(),
            diags.analyzed.len(),
            diags.findings.len(),
        )?;
        for c in &triaged.root_causes {
            writeln!(
                o,
                "  [{:>4} states] {}/{}: {} (units {}..{}, events {}..{})",
                c.states,
                c.mechanism,
                c.category,
                c.invariant,
                c.unit_window.0,
                c.unit_window.1,
                c.event_window.0,
                c.event_window.1,
            )?;
        }
        if let Some(out) = &out_path {
            writeln!(o, "triage report written to {out}")?;
        }
        Ok(())
    })?;
    for f in &diags.findings {
        eprintln!(
            "PROTOCOL FINDING: {} {} at {} line {} (events {}..{}, epoch {})",
            f.scenario, f.category, f.region, f.line, f.first_event, f.last_event, f.epoch
        );
    }
    if take_flag(args, "--fail-on-diagnostics") && !diags.findings.is_empty() {
        eprintln!(
            "FAIL: {} protocol finding(s) on what should be a clean tree",
            diags.findings.len()
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [old_path, new_path] = args else {
        return Err(format!("compare takes exactly two report paths\n{USAGE}"));
    };
    let old = read_report(old_path)?;
    let new = read_report(new_path)?;
    let cmp = compare(&old, &new);
    to_stdout(|o| cmp.lines.iter().try_for_each(|line| writeln!(o, "{line}")))?;
    if cmp.regression {
        eprintln!("REGRESSION: see lines above");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Run a telemetry campaign and print the per-scenario cost table under
/// both cost-model presets. The ADR column prices every flush and fence in
/// full (the paper's platform class); the eADR column prices a
/// flush-on-fail platform. The gap is the mechanism's flush tax.
fn cmd_cost(args: &[String]) -> Result<ExitCode, String> {
    check_known_flags(
        args,
        &[
            "--registry",
            "--budget-states",
            "--seed",
            "--threads",
            "--schedule",
            "--out",
        ],
        &["--json"],
    )?;
    let mut cfg = CampaignConfig {
        telemetry: true,
        ..CampaignConfig::default()
    };
    if let Some(v) = take_opt(args, "--registry")? {
        cfg.registry = Registry::parse(&v).map_err(|e| format!("{e}\n{USAGE}"))?;
    }
    let json = take_flag(args, "--json");
    if let Some(v) = take_opt(args, "--seed")? {
        cfg.seed = parse_u64(&v, "seed")?;
    }
    if let Some(v) = take_opt(args, "--budget-states")? {
        cfg.budget_states = parse_u64(&v, "budget")?;
    }
    if let Some(v) = take_opt(args, "--threads")? {
        cfg.threads = parse_u64(&v, "threads")? as usize;
    }
    if let Some(v) = take_opt(args, "--schedule")? {
        cfg.schedule = Schedule::parse(&v)?;
    }
    let out_path = take_opt(args, "--out")?;

    let report = run_campaign(&cfg);
    // What `--out` takes, or stdout under a bare `--json`: the
    // schema-versioned, byte-stable table made for CI diffing (see
    // `adcc_campaign::cost`), or the telemetry report behind the text table.
    let doc = || {
        if json {
            CostTable::from_report(&report).to_string_pretty()
        } else {
            report.to_string_pretty()
        }
    };
    if let Some(out) = &out_path {
        std::fs::write(out, doc()).map_err(|e| format!("cannot write {out}: {e}"))?;
    }
    to_stdout(|o| {
        if !json {
            print_cost_table(o, &report)?;
        }
        match &out_path {
            Some(out) if json => writeln!(o, "cost table written to {out}"),
            Some(out) => writeln!(o, "report written to {out}"),
            None if json => writeln!(o, "{}", doc()),
            None => Ok(()),
        }
    })?;
    Ok(exit_gate(&report))
}

fn print_cost_table(o: &mut impl Write, report: &CampaignReport) -> io::Result<()> {
    writeln!(
        o,
        "cost model: seed {} budget {} schedule {} ({} scenarios)",
        report.seed,
        report.budget_states,
        report.schedule,
        report.scenarios.len()
    )?;
    writeln!(
        o,
        "{:<30} {:>6} {:>8} {:>7} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10} {:>6}",
        "scenario",
        "trials",
        "flush",
        "fence",
        "log KiB",
        "dirty B",
        "window us",
        "adr ms",
        "nearpm ms",
        "eadr ms",
        "save%"
    )?;
    for s in &report.scenarios {
        let Some(t) = s.telemetry.as_ref() else {
            continue;
        };
        let (adr, nearpm, eadr) = platform_costs(t);
        let save = if adr == 0 {
            0.0
        } else {
            (adr - eadr) as f64 * 100.0 / adr as f64
        };
        writeln!(
            o,
            "{:<30} {:>6} {:>8} {:>7} {:>9.1} {:>10} {:>10.1} {:>10.3} {:>10.3} {:>10.3} {:>6.1}",
            s.name,
            s.trials,
            t.flush_total(),
            t.sfences,
            t.log_bytes as f64 / 1024.0,
            t.dirty_bytes_at_crash(),
            t.consistency_window_ps() as f64 / 1e6,
            adr as f64 / 1e9,
            nearpm as f64 / 1e9,
            eadr as f64 / 1e9,
            save,
        )?;
    }
    if let Some(t) = &report.telemetry {
        let (adr, nearpm, eadr) = platform_costs(t);
        writeln!(
            o,
            "{:<30} {:>6} {:>8} {:>7} {:>9.1} {:>10} {:>10} {:>10.3} {:>10.3} {:>10.3} {:>6.1}",
            "TOTAL",
            report.totals.total(),
            t.flush_total(),
            t.sfences,
            t.log_bytes as f64 / 1024.0,
            t.dirty_bytes_at_crash(),
            "-",
            adr as f64 / 1e9,
            nearpm as f64 / 1e9,
            eadr as f64 / 1e9,
            if adr == 0 {
                0.0
            } else {
                (adr - eadr) as f64 * 100.0 / adr as f64
            },
        )?;
    }
    Ok(())
}
