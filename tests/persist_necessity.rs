//! Every persist and fence the kernel and ds scenarios reach, asked one at
//! a time whether recovery stays right without it — the question WITCHER
//! asks of each persist ordering and EasyCrash of each data object.
//!
//! A recording run lists the sites each scenario reaches: every call that
//! issues a flush or a fence (`adcc_sim::hook`; its seeded bugs are not
//! swept here). Then each site is dropped
//! in turn, and every scenario that reaches it re-runs its poll-exhaustive
//! sweep — one crash state at every site-grain crash point — at two CPU
//! caches: the campaign's own, and one that holds the whole working set, so
//! nothing reaches NVM but what a persist writes. A site is **needed** when,
//! against the same sweep with the site in place,
//!
//! 1. `silent` — a crash state turns silent,
//! 2. `panic` — recovery panics on a state,
//! 3. `verdict` — a state's outcome changes,
//! 4. `lost_units` — a state's reported lost work changes, or
//! 5. `sanitizer` — the persist-order sanitizer draws a diagnostic.
//!
//! `tests/fixtures/persist-necessity.md` is the result: per site, the
//! strongest criterion at each cache and the first scenario (registry
//! order) that shows it, or `-`. A site needed at neither cache carries a
//! one-line reason. Sites are keyed by file and ordinal among the reached
//! sites of that file, so an edit elsewhere in a file does not churn the
//! table. On drift the test writes the table it computed to
//! `target/persist-necessity.md`, reasons carried over by key.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use adcc::campaign::{ImageMemory, Outcome, Passes, Registry, Scenario};
use adcc::sim::hook::{self, Op, Site};
use adcc::sim::lru::CacheConfig;

/// The two caches every site is asked at, in table column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cache {
    /// Each scenario's own configuration.
    Campaign,
    /// 256 KB, 16-way: no scenario's working set overflows it (measured:
    /// no sweep under it evicts a dirty line), so nothing reaches NVM but
    /// what a persist writes.
    WholeSet,
}

const CACHES: [Cache; 2] = [Cache::Campaign, Cache::WholeSet];

/// Why a dropped site is needed, strongest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Criterion {
    Silent,
    Panic,
    Verdict,
    LostUnits,
    Sanitizer,
}

impl Criterion {
    fn name(self) -> &'static str {
        match self {
            Criterion::Silent => "silent",
            Criterion::Panic => "panic",
            Criterion::Verdict => "verdict",
            Criterion::LostUnits => "lost_units",
            Criterion::Sanitizer => "sanitizer",
        }
    }
}

/// What one poll-exhaustive sweep of one scenario found.
struct Sweep {
    /// Per site-grain unit: outcome and reported lost work.
    trials: Vec<(Outcome, u64)>,
    /// The sanitizer's protocol findings, as (category, region).
    protocol: Vec<String>,
}

/// Sweep every site-grain crash point of `s` on this thread, at `cache`.
fn sweep(s: &dyn Scenario, cache: Cache) -> Sweep {
    let units: Vec<u64> = (0..s.total_units()).collect();
    let run = || {
        s.run_passes(
            &units,
            Passes::recover(false).and_analyze(),
            &ImageMemory::for_workers(1),
        )
    };
    let out = match cache {
        Cache::Campaign => run(),
        Cache::WholeSet => hook::with_cpu_cache(CacheConfig::new(256 << 10, 16), run),
    };
    Sweep {
        trials: out
            .trials
            .iter()
            .map(|t| (t.outcome, t.lost_units))
            .collect(),
        protocol: out
            .analysis
            .map(|a| {
                a.protocol
                    .iter()
                    .map(|d| format!("{:?} {}", d.category, d.region))
                    .collect()
            })
            .unwrap_or_default(),
    }
}

/// The strongest way `dropped` differs from `clean`, if any.
fn criterion(clean: &Sweep, dropped: &Sweep) -> Option<Criterion> {
    let pairs = || clean.trials.iter().zip(&dropped.trials);
    if pairs().any(|(c, d)| d.0 == Outcome::SilentCorruption && c.0 != d.0) {
        Some(Criterion::Silent)
    } else if pairs().any(|(c, d)| c.0 != d.0) {
        Some(Criterion::Verdict)
    } else if pairs().any(|(c, d)| c.1 != d.1) {
        Some(Criterion::LostUnits)
    } else if dropped.protocol.iter().any(|p| !clean.protocol.contains(p)) {
        Some(Criterion::Sanitizer)
    } else {
        None
    }
}

/// The kernel and ds registries, in registry order.
fn scenarios() -> Vec<Box<dyn Scenario>> {
    let mut all = Registry::Kernel.scenarios();
    all.extend(Registry::Ds.scenarios());
    all
}

/// One reached site, keyed by file and ordinal: `file#n` is the `n`th
/// distinct call (by line and column) among the reached sites of `file`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    file: &'static str,
    ordinal: usize,
    op: Op,
}

impl Key {
    fn site(&self) -> String {
        format!("{}#{}", self.file, self.ordinal)
    }

    fn op(&self) -> &'static str {
        match self.op {
            Op::Flush => "flush",
            Op::Fence => "fence",
            Op::Seed => unreachable!("seed sites are not swept"),
        }
    }
}

/// Key every site of `sites` (sorted, as `hook::record` returns them).
fn keyed(sites: &[Site]) -> Vec<(Key, Site)> {
    let mut out = Vec::new();
    let mut prev: Option<Site> = None;
    let mut ordinal = 0;
    for &site in sites {
        match prev {
            Some(p) if p.at.file() == site.at.file() => {
                if p.at != site.at {
                    ordinal += 1;
                }
            }
            _ => ordinal = 1,
        }
        prev = Some(site);
        let key = Key {
            file: site.at.file(),
            ordinal,
            op: site.op,
        };
        out.push((key, site));
    }
    out
}

/// What dropping one site did at one cache: the strongest criterion and
/// the first scenario that showed it.
type Finding = Option<(Criterion, &'static str)>;

/// Run `f` over `jobs` on two workers, heaviest `weight` first; the
/// results in job order. Each worker's hook is its own thread's.
fn on_two_threads<J: Sync, R: Send>(
    jobs: &[J],
    weight: impl Fn(&J) -> u64,
    f: impl Fn(&J) -> R + Sync,
) -> Vec<R> {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(weight(&jobs[i])));
    let next = AtomicUsize::new(0);
    let out: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                    *out[i].lock().unwrap() = Some(f(&jobs[i]));
                }
            });
        }
    });
    out.into_iter()
        .map(|r| r.into_inner().unwrap().expect("every job ran"))
        .collect()
}

/// One clean sweep: what it found, the sites it reached, what it cost.
struct Clean {
    sweep: Sweep,
    reached: Vec<Site>,
    nanos: u64,
}

/// The clean sweep of every scenario at every cache, indexed
/// `[scenario][cache]`.
fn clean_sweeps(scenarios: &[Box<dyn Scenario>]) -> Vec<Vec<Clean>> {
    let jobs: Vec<(usize, Cache)> = (0..scenarios.len())
        .flat_map(|i| CACHES.map(|c| (i, c)))
        .collect();
    let mut done = on_two_threads(
        &jobs,
        |&(i, _)| scenarios[i].total_units(),
        |&(i, cache)| {
            let t0 = Instant::now();
            let (sweep, mut reached) = hook::record(|| sweep(scenarios[i].as_ref(), cache));
            // A seeded bug is no persist: its verdicts are their own tests.
            reached.retain(|site| site.op != Op::Seed);
            let nanos = t0.elapsed().as_nanos() as u64;
            Clean {
                sweep,
                reached,
                nanos,
            }
        },
    )
    .into_iter();
    scenarios
        .iter()
        .map(|_| done.by_ref().take(CACHES.len()).collect())
        .collect()
}

/// Drop each of `sites` and re-sweep every scenario that reaches it, at
/// each cache: the findings, indexed `[site][cache]`.
fn findings(
    scenarios: &[Box<dyn Scenario>],
    clean: &[Vec<Clean>],
    sites: &[Site],
) -> Vec<[Finding; 2]> {
    let reaches = |i: usize, site: &Site| clean[i].iter().any(|c| c.reached.contains(site));
    let jobs: Vec<(usize, usize, usize)> = (0..sites.len())
        .flat_map(|k| (0..CACHES.len()).map(move |c| (k, c)))
        .flat_map(|(k, c)| {
            (0..scenarios.len())
                .filter(move |&i| reaches(i, &sites[k]))
                .map(move |i| (k, c, i))
        })
        .collect();
    let found = on_two_threads(
        &jobs,
        |&(_, c, i)| clean[i][c].nanos,
        |&(k, c, i)| {
            let dropped = catch_unwind(AssertUnwindSafe(|| {
                hook::mutating(sites[k], || sweep(scenarios[i].as_ref(), CACHES[c]))
            }));
            match dropped {
                Ok(dropped) => criterion(&clean[i][c].sweep, &dropped),
                Err(_) => Some(Criterion::Panic),
            }
        },
    );
    let mut out = vec![[None; 2]; sites.len()];
    for (&(k, c, i), f) in jobs.iter().zip(found) {
        let strongest = &mut out[k][c];
        if let Some(f) = f {
            // Jobs are in registry order per (site, cache): keep the first.
            if strongest.is_none_or(|(s, _): (Criterion, &str)| f < s) {
                *strongest = Some((f, scenarios[i].name()));
            }
        }
    }
    out
}

/// One finding as a table cell.
fn cell(f: Finding) -> String {
    f.map_or("-".into(), |(c, s)| format!("{} ({s})", c.name()))
}

/// The committed table's reasons, by `site op`.
fn committed_reasons(table: &str) -> BTreeMap<String, String> {
    table
        .lines()
        .filter(|l| l.starts_with("| `"))
        .map(|l| {
            let cols: Vec<&str> = l.split('|').map(str::trim).collect();
            (
                format!("{} {}", cols[1].trim_matches('`'), cols[2]),
                cols[5].to_string(),
            )
        })
        .collect()
}

/// The silent states the clean tree's sweeps hold, per scenario and cache.
/// From a 64 KB cache up, windowed BiCGSTAB's recovery restarts 0–2
/// iterations behind the crash at 10 of its 20 crash points, and the answer
/// is wrong: a ring slot passes both invariants with another iteration's
/// rows (ROADMAP 3(d)). The campaign's 16 KB cache never shows it. A drop
/// can only be blamed for silent states beyond these.
const CLEAN_SILENT: [(&str, Cache, usize); 1] =
    [("bicgstab-extended-windowed", Cache::WholeSet, 10)];

const HEADER: &str = "\
# Persist necessity

Generated by `tests/persist_necessity.rs` (see its header): each persist or
fence site the kernel and ds scenarios reach, dropped in turn. A cell is the
strongest criterion the drop trips at that cache and the first scenario
that shows it; `-` is none. A site needed at neither cache says why.

| site | op | campaign cache | whole-set cache | reason |
|---|---|---|---|---|
";

#[test]
fn every_reached_persist_is_needed_or_says_why() {
    let scenarios = scenarios();
    let clean = clean_sweeps(&scenarios);
    for (s, pair) in scenarios.iter().zip(&clean) {
        for (cache, c) in CACHES.iter().zip(pair) {
            let silent = c
                .sweep
                .trials
                .iter()
                .filter(|t| t.0 == Outcome::SilentCorruption)
                .count();
            let known = CLEAN_SILENT
                .iter()
                .find(|k| (k.0, k.1) == (s.name(), *cache))
                .map_or(0, |k| k.2);
            assert_eq!(silent, known, "{} at {cache:?}: silent states", s.name());
            let protocol = &c.sweep.protocol;
            assert!(protocol.is_empty(), "{}: {protocol:?}", s.name());
        }
    }
    let mut reached: Vec<Site> = clean
        .iter()
        .flatten()
        .flat_map(|c| c.reached.iter().copied())
        .collect();
    reached.sort_unstable();
    reached.dedup();
    let sites = keyed(&reached);
    let rows = findings(&scenarios, &clean, &reached);
    let path = format!(
        "{}/tests/fixtures/persist-necessity.md",
        env!("CARGO_MANIFEST_DIR")
    );
    let committed = std::fs::read_to_string(&path).unwrap_or_default();
    let reasons = committed_reasons(&committed);
    let mut table = HEADER.to_string();
    let mut unexplained = Vec::new();
    for ((key, _), [campaign, whole]) in sites.iter().zip(rows) {
        let id = format!("{} {}", key.site(), key.op());
        let reason = reasons.get(&id).cloned().unwrap_or_default();
        if campaign.is_none() && whole.is_none() && reason.is_empty() {
            unexplained.push(id);
        }
        table.push_str(&format!(
            "| `{}` | {} | {} | {} | {reason} |\n",
            key.site(),
            key.op(),
            cell(campaign),
            cell(whole)
        ));
    }
    if table != committed || !unexplained.is_empty() {
        for (key, site) in &sites {
            eprintln!("{} {} is line {}", key.site(), key.op(), site.at.line());
        }
        let out = format!("{}/target/persist-necessity.md", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&out, &table).expect("write the computed table");
        panic!(
            "the persist-necessity table drifted (computed table in {out}); \
             unneeded sites without a reason: {unexplained:?}"
        );
    }
}

/// Fig. 2, line 3: the counter persist in `ExtendedCg::run`, the one
/// persist the paper's CG makes. At the campaign's cache the spmv evicts
/// the counter line before the next poll anyway, so dropping it moves
/// nothing; at the whole-set cache NVM then keeps the counter at 0, and
/// recovery, still exact, reports a different lost work.
#[test]
fn the_paper_cg_counter_persist_bounds_lost_work_at_the_whole_set_cache_only() {
    let scenarios = scenarios();
    let cg = scenarios
        .iter()
        .find(|s| s.name() == "cg-extended")
        .expect("cg-extended is registered")
        .as_ref();
    let (clean, sites) = hook::record(|| CACHES.map(|cache| sweep(cg, cache)));
    let persists: Vec<Site> = sites
        .into_iter()
        .filter(|s| s.op == Op::Flush && s.at.file().ends_with("cg/extended.rs"))
        .collect();
    assert_eq!(
        persists.len(),
        1,
        "CG persists its counter only: {persists:?}"
    );
    let found = CACHES.map(|cache| hook::mutating(persists[0], || sweep(cg, cache)));
    assert_eq!(criterion(&clean[0], &found[0]), None, "campaign cache");
    assert_eq!(
        criterion(&clean[1], &found[1]),
        Some(Criterion::LostUnits),
        "whole-set cache"
    );
}
