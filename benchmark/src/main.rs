//! The adcc benchmark: six fixed-work workloads measured from outside,
//! through the crates' public functions. See `benchmark/README.md`.
//!
//! ```text
//! adcc_benchmark [--seed S] [--seconds N] [--smoke]           the whole suite
//! adcc_benchmark --workload W --seed S --seconds N --trace 0|1   one workload pass
//! adcc_benchmark compare A.json B.json
//! adcc_benchmark manifest                                     print BENCHMARK.json
//! ```

mod calib;
mod campaigns;
mod compare;
mod forward;
mod heap;
mod host;
mod metrics;
mod plan;
mod replica;
mod run;
mod stats;
mod suite;
mod trace;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{Scale, Workload};

#[global_allocator]
static ALLOC: heap::CountingAlloc = heap::CountingAlloc;

/// Set-ups before the first timed repeat; `setup_s` is the median of these
/// and of the ones taken before every later repeat.
const SETUPS: usize = 3;

/// How many set-ups a timed run takes before its next repeat: `first`
/// before the first one, then one — or, for set-ups of tens of
/// milliseconds, where one disturbed sample is a large share, up to `first`
/// again. Spread over the run like this, a burst while the process starts
/// cannot decide the median (clumped at the start, `paper-forward`'s
/// `setup_s` spread 41 % between the quartiles of ten runs).
fn setups_due(done_s: &[f64], first: usize) -> usize {
    if done_s.is_empty() {
        return first;
    }
    ((0.2 / stats::median(done_s)) as usize).clamp(1, first)
}
const DEFAULT_SEED: u64 = 42;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: metrics::RUN_SECONDS as f64,
        traced: false,
        scale: Scale::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(Workload::parse(value()?)?),
            "--seed" => {
                let v = value()?;
                out.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                out.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                out.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?} (expected 0 or 1)")),
                }
            }
            "--smoke" => out.scale = Scale::Smoke,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

/// One workload pass in this process: the driver's entry point.
fn run_workload(w: Workload, args: &Args, out_dir: &std::path::Path) -> Result<bool, String> {
    // Smoke: one set-up, one repeat, all checks on.
    let (seconds, setups) = match args.scale {
        Scale::Full => (args.seconds, SETUPS),
        Scale::Smoke => (0.0, 1),
    };
    let output = match (w.shape(args.scale), args.traced) {
        (Some(shape), false) => campaigns::timed(w, shape, args.seed, seconds, setups),
        (Some(shape), true) => traced::traced(w, shape, args.seed, out_dir),
        (None, traced) => {
            let sizes = match args.scale {
                Scale::Full => forward::Sizes::FULL,
                Scale::Smoke => forward::Sizes::SMOKE,
            };
            if traced {
                forward::traced(sizes, args.seed, out_dir)
            } else {
                forward::timed(sizes, args.seed, seconds, setups)
            }
        }
    };
    output.print();
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let path = out_dir.join(suite::run_file(w, args.traced));
    std::fs::write(&path, output.to_json().pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    // The driver reads the last stdout line.
    println!("{}", output.driver_line());
    Ok(output.correct())
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Results land beside the benchmark's sources, inside its own directory.
    let out_dir = PathBuf::from("benchmark/out");
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest().pretty());
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a, b),
            _ => Err("usage: compare A.json B.json".into()),
        },
        _ => {
            let parsed = parse(&args)?;
            match parsed.workload {
                Some(w) => run_workload(w, &parsed, &out_dir),
                None => suite::run(
                    &suite::SuiteArgs {
                        seed: parsed.seed,
                        seconds: parsed.seconds,
                        scale: parsed.scale,
                    },
                    &out_dir,
                ),
            }
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        // A run that produced a result reports it through `correct`; a
        // failed comparison or suite is the exit code.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("adcc_benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::setups_due;

    #[test]
    fn setups_spread_over_the_run() {
        assert_eq!(setups_due(&[], 3), 3, "before the first repeat");
        assert_eq!(
            setups_due(&[0.4, 0.5, 0.45], 3),
            1,
            "long set-ups: one a gap"
        );
        assert_eq!(setups_due(&[0.09, 0.1, 0.11], 3), 2);
        assert_eq!(setups_due(&[0.05; 3], 3), 3, "short ones: as many as first");
        assert_eq!(setups_due(&[0.05], 1), 1, "smoke takes one");
    }
}
