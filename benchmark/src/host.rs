//! Host facts recorded beside every result: enough to tell two machines
//! (or one machine under two loads) apart when numbers disagree.

use std::process::Command;

use adcc_campaign::json::Json;

/// Threads every multi-threaded workload uses: the sandbox sizing rule is
/// at most `nproc` threads, one process per workload.
pub fn bench_threads() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string())
}

fn load_avg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(-1.0)
}

/// First line of a command's stdout, or `unknown` (no git in an exported
/// checkout, no rustc on a runner that only has the binary).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(|l| l.trim().to_string())
        })
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `host` block, sampled at the start of a run.
pub fn host_block() -> Json {
    let mut j = Json::obj();
    j.push("nproc", Json::Int(nproc() as u64));
    j.push("cpu_model", Json::Str(cpu_model()));
    j.push("threads_used", Json::Int(bench_threads() as u64));
    j.push("rustc", Json::Str(first_line("rustc", &["--version"])));
    j.push(
        "git_commit",
        Json::Str(first_line("git", &["rev-parse", "HEAD"])),
    );
    j.push("load_avg_1m_at_start", Json::Float(load_avg_1m()));
    j
}
