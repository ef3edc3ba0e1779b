//! Exit-code contract of the `campaign` binary: unknown flags and
//! malformed invocations exit nonzero with usage on stderr, for every
//! subcommand — the behavior CI's smoke jobs rely on to fail loudly when
//! a workflow file passes a flag the binary no longer (or does not yet)
//! understand.

use std::process::{Command, Output, Stdio};

fn campaign(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .output()
        .expect("spawn campaign binary")
}

fn assert_usage_failure(args: &[&str]) {
    let out = campaign(args);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{args:?} should exit 1, got {:?}",
        out.status
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("usage:"),
        "{args:?} stderr lacks usage:\n{stderr}"
    );
}

#[test]
fn unknown_flags_exit_nonzero_with_usage_on_stderr() {
    for sub in ["run", "replay", "cost", "triage"] {
        let out = campaign(&[sub, "--bogus-flag"]);
        assert_eq!(out.status.code(), Some(1), "{sub} --bogus-flag");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown option") && stderr.contains("usage:"),
            "{sub} stderr:\n{stderr}"
        );
    }
    // The per-trial oracle is a library function (`engine::run_per_trial`),
    // not a flag.
    assert_usage_failure(&["run", "--budget-states", "2", "--per-trial"]);
    assert_usage_failure(&["replay", "--seed", "1", "--per-trial"]);
}

#[test]
fn unknown_registry_names_exit_nonzero_with_usage() {
    for sub in ["run", "replay", "cost"] {
        let out = campaign(&[sub, "--seed", "1", "--registry", "bogus"]);
        assert_eq!(out.status.code(), Some(1), "{sub} --registry bogus");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown registry") && stderr.contains("usage:"),
            "{sub} stderr:\n{stderr}"
        );
    }
}

#[test]
fn unknown_fault_profiles_exit_nonzero_with_usage() {
    for sub in ["run", "replay"] {
        let out = campaign(&[
            sub,
            "--seed",
            "1",
            "--registry",
            "dist",
            "--faults",
            "bogus",
        ]);
        assert_eq!(out.status.code(), Some(1), "{sub} --faults bogus");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown fault profile") && stderr.contains("usage:"),
            "{sub} stderr:\n{stderr}"
        );
    }
}

#[test]
fn faults_require_the_dist_registry() {
    // The fault plan lives in the cluster fabric; single-rank kernel and
    // ds campaigns have no fabric, so a profile there would be silently
    // ignored — the CLI must reject it instead.
    for registry in ["kernel", "ds"] {
        let out = campaign(&[
            "run",
            "--budget-states",
            "2",
            "--registry",
            registry,
            "--faults",
            "lossy",
        ]);
        assert_eq!(out.status.code(), Some(1), "--registry {registry} --faults");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--faults") && stderr.contains("dist") && stderr.contains("usage:"),
            "--registry {registry} stderr:\n{stderr}"
        );
    }
}

#[test]
fn every_fault_profile_runs_the_dist_registry_clean() {
    for profile in ["off", "lossy", "chaotic"] {
        let out = campaign(&[
            "run",
            "--registry",
            "dist",
            "--faults",
            profile,
            "--budget-states",
            "3",
            "--threads",
            "2",
        ]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "--faults {profile} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        if profile == "off" {
            assert!(
                !stdout.contains("faults"),
                "--faults off is the default:\n{stdout}"
            );
        } else {
            assert!(
                stdout.contains(&format!("faults {profile}")),
                "--faults {profile} summary:\n{stdout}"
            );
        }
    }
}

#[test]
fn registry_flag_runs_clean_and_the_dist_alias_is_gone() {
    let out = campaign(&[
        "run",
        "--registry",
        "ds",
        "--budget-states",
        "3",
        "--threads",
        "2",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "--registry ds stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // `--dist` was the deprecated spelling of `--registry dist`; it is an
    // unknown flag now, on every subcommand that took it.
    for sub in ["run", "replay", "cost"] {
        let out = campaign(&[sub, "--dist", "--budget-states", "3"]);
        assert_eq!(out.status.code(), Some(1), "{sub} --dist");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown option \"--dist\"") && stderr.contains("usage:"),
            "{sub} --dist stderr:\n{stderr}"
        );
    }
}

#[test]
fn unknown_subcommand_exits_nonzero_with_usage() {
    let out = campaign(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown subcommand") && stderr.contains("usage:"));
    assert!(
        stderr.contains(adcc_campaign::cost::COST_SCHEMA),
        "usage names the cost-table generation `cost --json` emits:\n{stderr}"
    );
    // Neither `bench` (benchmark/run.sh measures throughput from outside)
    // nor `resilience` (`run --resilience` is the one dirty-restart sweep)
    // is a subcommand: their names get the same treatment as any typo.
    for gone in ["bench", "resilience"] {
        let out = campaign(&[gone, "report.json"]);
        assert_eq!(out.status.code(), Some(1), "{gone}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown subcommand \"{gone}\"")) && stderr.contains("usage:"),
            "stderr:\n{stderr}"
        );
    }
}

#[test]
fn compare_arity_errors_exit_nonzero() {
    assert_usage_failure(&["compare"]);
    assert_usage_failure(&["compare", "only-one.json"]);
    assert_usage_failure(&["compare", "a.json", "b.json", "--bogus"]);
}

#[test]
fn replay_without_inputs_exits_nonzero() {
    let out = campaign(&["replay"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--seed"), "stderr:\n{stderr}");
}

#[test]
fn expect_flag_is_replay_only() {
    let out = campaign(&["run", "--expect", "whatever.json"]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn value_flags_without_values_exit_nonzero() {
    for args in [
        vec!["run", "--seed"],
        vec!["run", "--budget-states"],
        vec!["cost", "--schedule"],
    ] {
        let out = campaign(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("needs a value"), "{args:?}:\n{stderr}");
    }
}

#[test]
fn a_closed_stdout_is_a_quiet_exit_zero_and_keeps_the_report() {
    // `campaign run … --out r.json | head -1`: the reader is gone before
    // the summary is printed. The document must already be on disk and the
    // broken pipe must not turn a clean command into a failure — `run`,
    // and the two that print a table before their `--out` line.
    let dir = std::env::temp_dir().join("adcc-closed-stdout");
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (report, triage, cost) = (path("report.json"), path("triage.json"), path("cost.json"));
    let campaign = ["--budget-states", "8", "--seed", "3", "--threads", "2"];
    let run = [&["run"][..], &campaign, &["--out", &report]].concat();
    let cost_args = [&["cost"][..], &campaign, &["--out", &cost]].concat();
    for (args, out_path) in [
        (run, &report),
        (vec!["triage", &report, "--out", &triage], &triage),
        (cost_args, &cost),
    ] {
        let _ = std::fs::remove_file(out_path);
        let mut child = Command::new(env!("CARGO_BIN_EXE_campaign"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn campaign binary");
        // Close the read end before the child prints anything.
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait for campaign binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?} stderr:\n{stderr}");
        assert!(stderr.is_empty(), "{args:?} stderr:\n{stderr}");
        let doc = std::fs::read_to_string(out_path).expect("document written before printing");
        if out_path == &triage {
            assert!(doc.contains(adcc_campaign::triage::TRIAGE_SCHEMA), "{doc}");
            adcc_campaign::json::Json::parse(&doc).expect("triage document parses");
        } else {
            let parsed = adcc_campaign::report::CampaignReport::parse(&doc).expect("parses");
            assert_eq!(parsed.totals.total(), 8, "{args:?}");
        }
    }
}

/// Run a tiny sharded campaign into `dir`, returning the report path.
fn run_shard(dir: &std::path::Path, shard: &str, seed: &str) -> String {
    let path = dir
        .join(format!("s{}-{seed}.json", shard.replace('/', "_")))
        .to_string_lossy()
        .into_owned();
    let out = campaign(&[
        "run",
        "--budget-states",
        "8",
        "--seed",
        seed,
        "--threads",
        "2",
        "--shard",
        shard,
        "--out",
        &path,
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "shard {shard} run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    path
}

#[test]
fn merge_rejects_overlapping_and_mismatched_shards_with_exit_one() {
    let dir = std::env::temp_dir().join("adcc-merge-exitcodes");
    std::fs::create_dir_all(&dir).unwrap();
    let s0 = run_shard(&dir, "0/2", "9");
    let s1 = run_shard(&dir, "1/2", "9");
    let s1_other_seed = run_shard(&dir, "1/2", "10");
    let out_path = dir.join("merged.json").to_string_lossy().into_owned();
    // The temp dir outlives test runs; drop any merged report a previous
    // run left behind so the "nothing written" checks below are real.
    let _ = std::fs::remove_file(&out_path);

    // Overlap: the same shard twice.
    let out = campaign(&["merge", "--out", &out_path, &s0, &s0]);
    assert_eq!(out.status.code(), Some(1), "overlapping shards must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("overlapping"), "stderr:\n{stderr}");

    // Mismatched seeds: shards of different campaigns.
    let out = campaign(&["merge", "--out", &out_path, &s0, &s1_other_seed]);
    assert_eq!(out.status.code(), Some(1), "mismatched seeds must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("different campaign"), "stderr:\n{stderr}");

    // Incomplete set: a missing shard.
    let out = campaign(&["merge", "--out", &out_path, &s0]);
    assert_eq!(out.status.code(), Some(1), "incomplete shard set must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("missing"), "stderr:\n{stderr}");

    // No merged report was written by any failing invocation.
    assert!(!std::path::Path::new(&out_path).exists());

    // The complete set merges clean.
    let out = campaign(&["merge", "--out", &out_path, &s1, &s0]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(std::path::Path::new(&out_path).exists());
}

#[test]
fn merge_usage_errors_exit_nonzero() {
    assert_usage_failure(&["merge"]);
    assert_usage_failure(&["merge", "--out", "x.json"]);
    assert_usage_failure(&["merge", "--out", "x.json", "--bogus", "a.json"]);
    let out = campaign(&["merge", "--out"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("needs a value"), "stderr:\n{stderr}");
}

#[test]
fn bad_shard_specs_exit_nonzero() {
    for spec in ["2/2", "0/0", "x/2", "1"] {
        let out = campaign(&["run", "--budget-states", "2", "--shard", spec]);
        assert_eq!(out.status.code(), Some(1), "--shard {spec}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("bad shard"), "--shard {spec}:\n{stderr}");
    }
}

/// Workspace-root schema fixture path (tests run from the crate dir).
fn fixture(name: &str) -> String {
    format!("{}/../../tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn triage_usage_errors_exit_nonzero() {
    // No report path, unknown flags, and flag-without-path all exit 1
    // with usage on stderr.
    assert_usage_failure(&["triage"]);
    assert_usage_failure(&["triage", "--threads", "2"]);
    let path = fixture("campaign-report-v5.json");
    assert_usage_failure(&["triage", &path, "--bogus"]);
    // A missing report file is a read error, not a usage error.
    let out = campaign(&["triage", "/nonexistent/report.json"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read"), "stderr:\n{stderr}");
}

#[test]
fn triage_rejects_pre_v5_schema_generations() {
    // A pre-v5 header names a schedule today's unit spaces cannot
    // reproduce: the one parser refuses it, and triage says so rather
    // than re-run the wrong schedule.
    let dir = std::env::temp_dir().join("adcc-triage-pre-v5");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("v4.json");
    std::fs::write(&path, r#"{"schema": "adcc-campaign-report/v4"}"#).unwrap();
    let out = campaign(&["triage", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "v4 must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unsupported schema \"adcc-campaign-report/v4\""),
        "stderr:\n{stderr}"
    );
    // The accepted generations span every schema since the batched unit
    // spaces landed: a v6 report still triages clean after the v7 bump.
    let path = fixture("campaign-report-v6.json");
    let out = campaign(&["triage", &path, "--threads", "2"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "v6 stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn triage_rejects_shard_reports() {
    let dir = std::env::temp_dir().join("adcc-triage-exitcodes");
    std::fs::create_dir_all(&dir).unwrap();
    let shard = run_shard(&dir, "0/2", "11");
    let out = campaign(&["triage", &shard]);
    assert_eq!(out.status.code(), Some(1), "shard reports must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("shard") && stderr.contains("merge"),
        "stderr:\n{stderr}"
    );
}

#[test]
fn triage_of_a_clean_ds_run_exits_zero_even_failing_on_diagnostics() {
    let dir = std::env::temp_dir().join("adcc-triage-exitcodes");
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("ds-clean.json").to_string_lossy().into_owned();
    let out = campaign(&[
        "run",
        "--registry",
        "ds",
        "--budget-states",
        "6",
        "--seed",
        "7",
        "--threads",
        "2",
        "--out",
        &report,
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let triage_out = dir
        .join("ds-clean-triage.json")
        .to_string_lossy()
        .into_owned();
    let out = campaign(&[
        "triage",
        &report,
        "--threads",
        "2",
        "--fail-on-diagnostics",
        "--out",
        &triage_out,
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "clean tree must triage clean: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("0 protocol finding(s)"),
        "stdout:\n{stdout}"
    );
    let doc = std::fs::read_to_string(&triage_out).unwrap();
    assert!(doc.contains("adcc-triage-report/v1"));
    assert!(doc.contains("\"diagnostics\""));
}

#[test]
fn resilience_and_shard_flags_are_mutually_exclusive_on_run() {
    let out = campaign(&[
        "run",
        "--budget-states",
        "2",
        "--resilience",
        "--shard",
        "0/2",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--resilience") && stderr.contains("--shard") && stderr.contains("usage:"),
        "stderr:\n{stderr}"
    );
}

#[test]
fn resilience_of_a_clean_kernel_run_exits_zero_and_writes_the_sweep() {
    let dir = std::env::temp_dir().join("adcc-resilience-exitcodes");
    std::fs::create_dir_all(&dir).unwrap();
    let swept = dir
        .join("kernel-clean-swept.json")
        .to_string_lossy()
        .into_owned();
    let campaign_args = ["--budget-states", "6", "--seed", "7", "--threads", "2"];
    let out = campaign(
        &[
            &["run", "--resilience", "--out", &swept][..],
            &campaign_args,
        ]
        .concat(),
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "clean tree must sweep clean: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("natural resilience"), "stdout:\n{stdout}");
    let doc = std::fs::read_to_string(&swept).unwrap();
    assert!(doc.contains("adcc-campaign-report/v7"));
    assert!(doc.contains("\"natural_resilience\""));
    // Replaying the swept report inherits the sweep from its blocks.
    let out = campaign(&["replay", "--expect", &swept]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}");
    assert!(stdout.contains("replay OK"), "stdout:\n{stdout}");
}

#[test]
fn help_and_a_tiny_run_exit_zero() {
    assert_eq!(campaign(&["--help"]).status.code(), Some(0));
    let out = campaign(&[
        "run",
        "--budget-states",
        "3",
        "--seed",
        "1",
        "--threads",
        "2",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
