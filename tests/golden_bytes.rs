//! Byte stability *across commits*. Every other determinism gate compares
//! two runs of the same tree (reruns, thread counts, batch vs per-trial);
//! these compare the tree against bytes written by an earlier one, so a
//! refactor that moves a simulated picosecond fails `cargo test` instead
//! of a two-checkout `replay --expect` ritual.
//!
//! * The three committed cost baselines are the `campaign cost --json`
//!   emission at budget 500, seed 42 — a pure function of the simulator.
//! * Six small dist campaigns (the registry whose persist protocol lives
//!   in `adcc_dist::persist`) are pinned by an FNV-1a-64 digest of their
//!   canonical string. On a mismatch the canonical string is written
//!   under `target/golden/` so it can be diffed against the same file
//!   from a checkout of the last green commit.
//! * Three kernel-registry runs — the configs CI and the benchmark's
//!   `kernel-sweep` / `resilience-sweep` workloads replay — are pinned the
//!   same way, so "no canonical kernel byte moved" is tier-1 too.
//! * The `ds-sweep` config (ds registry, budget 1200) is pinned the same
//!   way, and so is the `campaign triage` document of that run — the ds
//!   registry is the only one with analyzer regions.
//! * Every pinned campaign also pins its host-independent work counters:
//!   forward executions, harvested images and distinct crash states, so
//!   "same executions, same harvested states" is a test too.
//! * The recomputation tables of the iterate-history kernels (`repro fig3`,
//!   `ext-jacobi`, `ext-stencil`, `ext-bicgstab`) and the seven-case runtime
//!   tables over `adcc_core::baseline` (`fig4`, `fig8`, `fig13`, `ext-lu`),
//!   each `--quick --csv`, are pinned by the digest of what the binary
//!   prints.

use adcc::campaign::cost::CostTable;
use adcc::campaign::engine::{run_campaign, CampaignConfig};
use adcc::campaign::scenario::Registry;
use adcc::campaign::{run_resilience, run_triage, CampaignReport};
use adcc::dist::net::FaultProfile;
use adcc::harness::{ext, fig13, fig3, fig4, fig8, Scale, Table};

#[test]
fn cost_tables_equal_the_committed_baselines() {
    for (registry, fixture, work) in [
        (Registry::Kernel, "cost-baseline.json", (13, 366, Some(360))),
        (
            Registry::Dist,
            "cost-baseline-dist.json",
            (6, 500, Some(464)),
        ),
        (Registry::Ds, "cost-baseline-ds.json", (4, 500, Some(500))),
    ] {
        let report = run_campaign(&CampaignConfig {
            registry,
            telemetry: true,
            ..CampaignConfig::default()
        });
        let path = format!("{}/tests/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
        let committed = std::fs::read_to_string(&path).expect("committed baseline");
        assert_eq!(
            CostTable::from_report(&report).to_string_pretty(),
            committed,
            "{fixture}: an intentional cost-model change regenerates it with \
             `campaign cost --registry {} --budget-states 500 --seed 42 --json --out {path}`",
            registry.name()
        );
        assert_eq!(work_of(&report), work, "{fixture}: work counters moved");
    }
}

/// Forward executions, harvested images and distinct crash states: the
/// host-independent work counters of a campaign's `image_memory` block.
type Work = (u64, u64, Option<u64>);

fn work_of(report: &CampaignReport) -> Work {
    let m = &report.image_memory;
    (m.executions, m.images, m.distinct_states)
}

fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `Err` naming both digests, after writing `canonical` to
/// `target/golden/<file>`, when its digest is not `pinned`.
fn check_digest(file: &str, canonical: &str, pinned: u64) -> Result<(), String> {
    let got = fnv1a_64(canonical.as_bytes());
    if got == pinned {
        return Ok(());
    }
    let dir = format!("{}/target/golden", env!("CARGO_MANIFEST_DIR"));
    std::fs::create_dir_all(&dir).expect("target/ is writable");
    let path = format!("{dir}/{file}");
    std::fs::write(&path, canonical).expect("target/ is writable");
    Err(format!(
        "{file}: {got:#018x}, pinned {pinned:#018x} — wrote {path}"
    ))
}

/// [`check_digest`] of `report`'s canonical string, then its [`Work`]
/// counters against `work`: every way it moved.
fn check_report(file: &str, report: &CampaignReport, pinned: u64, work: Work) -> Vec<String> {
    let mut moved: Vec<String> = check_digest(file, &report.canonical_string(), pinned)
        .err()
        .into_iter()
        .collect();
    if work_of(report) != work {
        moved.push(format!(
            "{file}: (executions, images, distinct_states) {:?}, pinned {work:?}",
            work_of(report)
        ));
    }
    moved
}

#[test]
fn kernel_campaign_bytes_equal_the_pinned_digests() {
    let cfg = |budget_states, dense_units, telemetry| CampaignConfig {
        budget_states,
        dense_units,
        telemetry,
        ..CampaignConfig::default()
    };
    let moved: Vec<String> = [
        (
            "kernel-260-dense-400.json",
            run_campaign(&cfg(260, 400, false)),
            0x0fac_b4af_c957_ba98,
            (13, 260, Some(75)),
        ),
        (
            "kernel-500-telemetry.json",
            run_campaign(&cfg(500, 0, true)),
            0x2b6b_6753_062d_a8fc,
            (13, 366, Some(360)),
        ),
        (
            "kernel-resilience-130-dense-400.json",
            run_resilience(&cfg(130, 400, false)),
            0xd2a6_68f1_acba_ac37,
            (13, 130, Some(47)),
        ),
    ]
    .into_iter()
    .flat_map(|(name, report, pinned, work)| check_report(name, &report, pinned, work))
    .collect();
    assert!(
        moved.is_empty(),
        "canonical kernel bytes moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn recompute_table_bytes_equal_the_pinned_digests() {
    let q = Scale::Quick;
    let moved: Vec<String> = [
        ("fig3.csv", vec![fig3::run(q)], 0xb107_fbfa_36ce_a12f),
        (
            "ext-jacobi.csv",
            vec![ext::jacobi_recompute(q), ext::jacobi_runtime(q)],
            0xf96f_e6a1_f171_9fe6,
        ),
        (
            "ext-stencil.csv",
            vec![ext::stencil_recompute(q), ext::stencil_runtime(q)],
            0xbc4c_a701_390e_5780,
        ),
        (
            "ext-bicgstab.csv",
            vec![ext::bicgstab_recompute(q)],
            0x1aee_eff7_74d3_5dba,
        ),
        ("fig4.csv", vec![fig4::run(q)], 0x680b_d498_506f_8de7),
        ("fig8.csv", vec![fig8::run(q)], 0x9b85_a934_2d0f_14a5),
        ("fig13.csv", vec![fig13::run(q)], 0xbf3b_0acc_0c04_23a2),
        (
            "ext-lu.csv",
            vec![ext::lu_recompute(q), ext::lu_runtime(q)],
            0x3db2_ba91_2afe_99e5,
        ),
    ]
    .into_iter()
    .filter_map(|(file, tables, pinned): (_, Vec<Table>, _)| {
        // What `repro <figure> --quick --csv` prints: one `println!` a table.
        let csv: String = tables.iter().map(|t| t.to_csv() + "\n").collect();
        check_digest(file, &csv, pinned).err()
    })
    .collect();
    assert!(
        moved.is_empty(),
        "`repro --quick --csv` bytes moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn dist_campaign_bytes_equal_the_pinned_digests() {
    let mut moved = Vec::new();
    // Both passes of a config harvest the same states.
    for (faults, campaign_digest, resilience_digest, work) in [
        (
            FaultProfile::Off,
            0x8ff9_c2a6_6593_e80b,
            0x0925_a349_9ada_2239,
            (6, 300, Some(237)),
        ),
        (
            FaultProfile::Lossy,
            0xd6ac_5c46_3f9d_8f1a,
            0x73ba_7564_a545_a89f,
            (6, 300, Some(237)),
        ),
        (
            FaultProfile::Chaotic,
            0x215d_8a1e_d6da_6886,
            0x2dc2_2b11_3a7a_8dcf,
            (6, 300, Some(293)),
        ),
    ] {
        let cfg = CampaignConfig {
            budget_states: 300,
            dense_units: 40,
            registry: Registry::Dist,
            faults,
            ..CampaignConfig::default()
        };
        let telemetry = CampaignConfig {
            telemetry: true,
            ..cfg.clone()
        };
        for (pass, report, pinned) in [
            ("campaign", run_campaign(&telemetry), campaign_digest),
            ("resilience", run_resilience(&cfg), resilience_digest),
        ] {
            let name = format!("dist-{}-{pass}.json", faults.name());
            moved.extend(check_report(&name, &report, pinned, work));
        }
    }
    assert!(
        moved.is_empty(),
        "canonical dist bytes moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn ds_campaign_and_triage_bytes_equal_the_pinned_digests() {
    let cfg = CampaignConfig {
        budget_states: 1200,
        registry: Registry::Ds,
        ..CampaignConfig::default()
    };
    let mut moved = check_report(
        "ds-1200.json",
        &run_campaign(&cfg),
        0x9f09_631e_67f1_732c,
        (12, 1200, Some(1200)),
    );
    let triage = run_triage(&cfg).to_string_pretty();
    moved.extend(check_digest("ds-1200-triage.json", &triage, 0xcd7f_b0ce_a9c7_435c).err());
    assert!(
        moved.is_empty(),
        "canonical ds bytes moved:\n{}",
        moved.join("\n")
    );
}
