//! One seed gives identical seed-determined figures across runs; another
//! seed gives another fleet. Small fleets and zero measuring time keep
//! each run to its single first pass.

use floorbench::{run, Report, RunConfig};

fn small(workload: &str, seed: u64) -> RunConfig {
    let (fleet, chunk) = match workload {
        "serve_rounds" => (24, 12),
        _ => (20, 20),
    };
    RunConfig {
        seed,
        seconds: 0.0,
        fleet,
        chunk,
        setup_builds: 2,
        workers: 2,
    }
}

fn run_small(workload: &str, seed: u64) -> Report {
    let report = run(workload, &small(workload, seed), false).expect("workload runs");
    for check in &report.checks {
        assert!(
            check.ok,
            "{workload}: check `{}` failed: {}",
            check.name, check.detail
        );
    }
    assert_eq!(report.failed, 0, "{workload}: no operation fails");
    report
}

fn assert_seed_determined(workload: &str) {
    let a = run_small(workload, 7);
    let b = run_small(workload, 7);
    assert_eq!(
        a.fleet_digest, b.fleet_digest,
        "{workload}: same seed, same fleet"
    );
    assert_eq!(
        a.deterministic, b.deterministic,
        "{workload}: same seed, same isolation accuracy, tests per device and counts"
    );
    for name in ["isolation_accuracy", "tests_per_device"] {
        assert!(
            a.deterministic.iter().any(|(n, _)| *n == name),
            "{workload}: {name} is among the seed-determined figures"
        );
        assert_eq!(a.metric(name), b.metric(name), "{workload}: {name} repeats");
    }
    let c = run_small(workload, 8);
    assert_ne!(
        a.fleet_digest, c.fleet_digest,
        "{workload}: another seed, another fleet"
    );
}

#[test]
fn serve_rounds_is_seed_determined() {
    assert_seed_determined("serve_rounds");
}

#[test]
fn grid_closed_loop_is_seed_determined() {
    assert_seed_determined("grid_closed_loop");
}

#[test]
fn result_line_carries_every_metric() {
    let report = run_small("serve_rounds", 3);
    let line = floorbench::result_json(&report, false);
    serde_json::parse_value_str(&line).expect("result line is JSON");
    for (name, unit) in floorbench::END_TO_END {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing: {line}"
        );
        assert!(
            line.contains(&format!("\"unit\": \"{unit}\"")),
            "{unit} missing"
        );
    }
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
}
