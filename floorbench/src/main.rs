//! `floorbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints an environment stamp, every metric by name with its unit, the
//! correctness checks, and as its last line one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics` (end-to-end
//! metrics untraced, per-layer metrics with `--trace 1`). Exits 1 when a
//! check fails and 2 on a usage or fatal error.

use floorbench::{nproc, result_json, run, RunConfig, WORKLOADS};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The repository's revision, when the checkout is a git repository (git
/// is not asked to search above the checkout).
fn git_revision() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if !root.join(".git").exists() {
        return "unknown (not a git checkout)".to_string();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string())
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("floorbench: {e}");
            return ExitCode::from(2);
        }
    };
    let config = match RunConfig::standard(&args.workload, args.seed, args.seconds) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("floorbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "env: nproc {} | cpu {} | {} | git {} | workload {} | seed {} | fleet {} | chunk {} | seconds {} | trace {}",
        nproc(),
        cpu_model(),
        env!("FLOORBENCH_RUSTC"),
        git_revision(),
        args.workload,
        args.seed,
        config.fleet,
        config.chunk,
        args.seconds,
        u8::from(args.trace),
    );
    let report = match run(&args.workload, &config, args.trace) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("floorbench: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &report.lines {
        println!("{line}");
    }
    println!(
        "end-to-end metrics ({}):",
        if args.trace {
            "untraced half"
        } else {
            "untraced"
        }
    );
    for m in &report.e2e {
        println!("  {:<20} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<20} {:>14.4} share ({} of {} operations)",
        "failed_share",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for (name, value) in &report.deterministic {
        println!("  seed-determined {name} = {value}");
    }
    println!("checks:");
    for check in &report.checks {
        println!(
            "  [{}] {} ({})",
            if check.ok { "ok" } else { "FAILED" },
            check.name,
            check.detail
        );
    }
    println!("{}", result_json(&report, args.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
