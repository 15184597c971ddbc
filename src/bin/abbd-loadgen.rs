//! `abbd-loadgen` — drive a running `abbd-serve` and measure throughput.
//!
//! Generates the d1 decision-round workload (the regulator case study's
//! control states, all posteriors + ranked actions per round) and
//! reports items/sec plus latency percentiles (p50/p95/p99):
//!
//! * `--mode session` (default): each connection opens one stored
//!   session and posts rounds to it — the store-amortised path;
//! * `--mode stateless`: each round goes to `/v1/models/{m}/serve`,
//!   paying the fresh-session setup every time;
//! * `--mode batch`: `--batch-size` evidence sets per
//!   `/v1/models/{m}/diagnose_batch` request (diagnosis only, fanned
//!   across the server's worker pool); the rate counts *items*;
//! * `--mode idle-soak`: open `--connections` keep-alive connections,
//!   hold them idle for `--soak-secs`, and poll `/v1/stats` — the
//!   readiness-driven server holds thousands of idle connections over a
//!   handful of workers, and this mode proves it against a live process.
//!
//! `--connections N` (default: one per client) spreads each client's
//! rounds round-robin across N/clients keep-alive connections, so the
//! open-connection count can dwarf the server's worker pool. `--binary`
//! switches bodies and replies to the compact binary codec, and
//! `--delta` (session mode) sends incremental rounds: the controls
//! travel once, every later round re-plans on the session's stored
//! evidence with an empty delta — the minimal wire cost per decision.
//!
//! `--scenario` swaps the fixed d1 body for a labelled fleet from the
//! scenario engine: every round carries a different device drawn from
//! the regulator's fault-mode library (controls, observables and failing
//! marks from the sampled ground truth), so the server sees the evidence
//! diversity of a real return floor instead of one memoised case.
//!
//! ```text
//! abbd-loadgen [--addr 127.0.0.1:7171] [--model regulator]
//!              [--mode session|stateless|batch|idle-soak] [--rounds 200]
//!              [--clients 1] [--connections N] [--batch-size 16]
//!              [--binary] [--delta] [--scenario] [--seed 2010]
//!              [--soak-secs 10]
//! ```

use abbd::core::{Observation, SessionRequest};
use abbd::designs::regulator::{self, cases::case_studies};
use abbd::scenarios::sample_model_population;
use abbd::server::{codec, BatchHeader, BatchRequest, Client, OpenSessionReply, StatsReport};
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[derive(Clone)]
struct Args {
    addr: String,
    model: String,
    mode: String,
    rounds: usize,
    clients: usize,
    connections: usize,
    batch_size: usize,
    binary: bool,
    delta: bool,
    scenario: bool,
    seed: u64,
    soak_secs: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7171".to_string(),
        model: "regulator".to_string(),
        mode: "session".to_string(),
        rounds: 200,
        clients: 1,
        connections: 0, // resolved below: defaults to one per client
        batch_size: 16,
        binary: false,
        delta: false,
        scenario: false,
        seed: 2010,
        soak_secs: 10,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--model" => args.model = value("--model")?,
            "--mode" => args.mode = value("--mode")?,
            "--rounds" => {
                args.rounds = value("--rounds")?
                    .parse()
                    .map_err(|e| format!("--rounds: {e}"))?;
            }
            "--clients" => {
                args.clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?;
            }
            "--connections" => {
                args.connections = value("--connections")?
                    .parse()
                    .map_err(|e| format!("--connections: {e}"))?;
            }
            "--batch-size" => {
                args.batch_size = value("--batch-size")?
                    .parse()
                    .map_err(|e| format!("--batch-size: {e}"))?;
            }
            "--binary" => args.binary = true,
            "--delta" => args.delta = true,
            "--scenario" => args.scenario = true,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--soak-secs" => {
                args.soak_secs = value("--soak-secs")?
                    .parse()
                    .map_err(|e| format!("--soak-secs: {e}"))?;
            }
            "--help" | "-h" => {
                println!(
                    "abbd-loadgen: throughput driver for abbd-serve\n\n  \
                     --addr ADDR      server address (default 127.0.0.1:7171)\n  \
                     --model NAME     registry model (default regulator)\n  \
                     --mode MODE      session | stateless | batch | idle-soak (default session)\n  \
                     --rounds N       rounds per client (default 200)\n  \
                     --clients N      concurrent client threads (default 1)\n  \
                     --connections N  keep-alive connections to spread over (default: clients;\n                   \
                     idle-soak default 1000)\n  \
                     --batch-size N   evidence sets per batch request (default 16)\n  \
                     --binary         compact binary bodies and replies\n  \
                     --delta          incremental session rounds (controls travel once)\n  \
                     --scenario       per-round bodies drawn from the scenario engine's\n                   \
                     labelled regulator fleet instead of the fixed d1 case\n  \
                     --seed N         scenario fleet seed (default 2010)\n  \
                     --soak-secs N    idle-soak hold time (default 10)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    if !["session", "stateless", "batch", "idle-soak"].contains(&args.mode.as_str()) {
        return Err(format!(
            "--mode must be session|stateless|batch|idle-soak, got `{}`",
            args.mode
        ));
    }
    if args.delta && args.mode != "session" {
        return Err("--delta only makes sense with --mode session".to_string());
    }
    if args.delta && args.scenario {
        // Delta rounds post empty bodies after the first, so a per-round
        // fleet would silently degenerate to one device per connection.
        return Err("--scenario conflicts with --delta".to_string());
    }
    if args.batch_size == 0 {
        // `rounds.div_ceil(batch_size)` would divide by zero below.
        return Err("--batch-size must be at least 1".to_string());
    }
    if args.connections == 0 {
        args.connections = if args.mode == "idle-soak" {
            1000
        } else {
            args.clients
        };
    }
    args.connections = args.connections.max(args.clients);
    Ok(args)
}

/// The d1 control states — the workload every mode posts by default.
fn d1_controls() -> Observation {
    let case = &case_studies()[0];
    let mut observation = Observation::new();
    for (name, state) in case.controls {
        observation.set(name, state);
    }
    observation
}

/// The per-round request bodies: the fixed d1 controls, or (with
/// `--scenario`) one observation per device of a labelled fleet sampled
/// from the regulator's fault-mode library under the d1 stimulus.
fn workload(args: &Args) -> Result<Vec<Observation>, String> {
    if !args.scenario {
        return Ok(vec![d1_controls()]);
    }
    let rig = regulator::rig();
    let model = abbd::core::ModelBuilder::new(rig.model)
        .with_expert(rig.expert)
        .build_expert_only()
        .map_err(|e| format!("regulator model: {e}"))?;
    let library = regulator::faults::fault_library();
    let controls: Vec<(String, usize)> = case_studies()[0]
        .controls
        .iter()
        .map(|&(name, state)| (name.to_string(), state))
        .collect();
    let fleet = args.rounds.max(args.batch_size).max(1);
    let scenarios = sample_model_population(&model, &library, &controls, fleet, args.seed)
        .map_err(|e| format!("scenario fleet: {e}"))?;
    Ok(scenarios
        .iter()
        .map(|s| s.observation(model.circuit_model()))
        .collect())
}

fn check(status: u16, body: &str, what: &str) -> Result<(), String> {
    if status == 200 || status == 201 {
        Ok(())
    } else {
        Err(format!("{what} answered {status}: {body}"))
    }
}

/// Posts one request in the negotiated format, timing it. Returns
/// whether the server completed it: a `503` (queue or store
/// backpressure) is *not* fatal and records no latency sample — the
/// caller counts it, and a fully rejected run still ends in a report
/// (with its explicit "no samples" line) instead of aborting.
fn timed_post(
    client: &mut Client,
    path: &str,
    json: &str,
    frame: &[u8],
    binary: bool,
    what: &str,
    latencies: &mut Vec<Duration>,
) -> Result<bool, String> {
    let start = Instant::now();
    let (status, text) = if binary {
        let (status, bytes) = client.post_binary(path, frame).map_err(|e| e.to_string())?;
        (status, String::from_utf8_lossy(&bytes).into_owned())
    } else {
        client.post(path, json).map_err(|e| e.to_string())?
    };
    if status == 503 {
        return Ok(false);
    }
    check(status, &text, what)?;
    latencies.push(start.elapsed());
    Ok(true)
}

/// One client's tally: (items completed, requests 503-rejected,
/// per-request latencies).
type ClientTally = (usize, usize, Vec<Duration>);

/// Runs one client's share over its slice of keep-alive connections.
fn run_client(args: &Args, conns_here: usize) -> Result<ClientTally, String> {
    let mut clients = Vec::with_capacity(conns_here);
    for _ in 0..conns_here {
        clients.push(Client::connect(&args.addr).map_err(|e| format!("connect: {e}"))?);
    }
    let bodies = workload(args)?;
    let rounds_of: Vec<SessionRequest> = bodies
        .iter()
        .map(|obs| SessionRequest::new(obs.clone()))
        .collect();
    let jsons: Vec<String> = rounds_of
        .iter()
        .map(|r| serde_json::to_string(r).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let frames: Vec<Vec<u8>> = rounds_of.iter().map(codec::to_frame).collect();
    let mut latencies = Vec::with_capacity(args.rounds);
    let mut completed = 0usize;
    let mut rejected = 0usize;
    match args.mode.as_str() {
        "stateless" => {
            let path = format!("/v1/models/{}/serve", args.model);
            for i in 0..args.rounds {
                let client = &mut clients[i % conns_here];
                if timed_post(
                    client,
                    &path,
                    &jsons[i % jsons.len()],
                    &frames[i % frames.len()],
                    args.binary,
                    "serve",
                    &mut latencies,
                )? {
                    completed += 1;
                } else {
                    rejected += 1;
                }
            }
            Ok((completed, rejected, latencies))
        }
        "session" => {
            // One stored session per connection (one device per wire).
            let mut paths = Vec::with_capacity(conns_here);
            let mut ids = Vec::with_capacity(conns_here);
            for client in &mut clients {
                let (status, body) = client
                    .post(&format!("/v1/models/{}/sessions", args.model), "{}")
                    .map_err(|e| e.to_string())?;
                check(status, &body, "open")?;
                let open: OpenSessionReply =
                    serde_json::from_str(&body).map_err(|e| format!("open reply: {e}"))?;
                paths.push(format!("/v1/sessions/{}/round", open.session_id));
                ids.push(open.session_id);
            }
            // Delta rounds: the controls travel once per session, then
            // every timed round is an empty incremental re-plan.
            let delta = SessionRequest::new(Observation::new()).into_delta();
            let delta_json = serde_json::to_string(&delta).map_err(|e| e.to_string())?;
            let delta_frame = codec::to_frame(&delta);
            if args.delta {
                for (client, path) in clients.iter_mut().zip(&paths) {
                    let mut warmup = Vec::new();
                    // A rejected warm-up is fine: the controls just
                    // travel with a later round instead.
                    let _ = timed_post(
                        client,
                        path,
                        &jsons[0],
                        &frames[0],
                        args.binary,
                        "round",
                        &mut warmup,
                    )?;
                }
            }
            for i in 0..args.rounds {
                let slot = i % conns_here;
                let (round_json, round_frame) = if args.delta {
                    (&delta_json, &delta_frame)
                } else {
                    (&jsons[i % jsons.len()], &frames[i % frames.len()])
                };
                if timed_post(
                    &mut clients[slot],
                    &paths[slot],
                    round_json,
                    round_frame,
                    args.binary,
                    "round",
                    &mut latencies,
                )? {
                    completed += 1;
                } else {
                    rejected += 1;
                }
            }
            for (client, id) in clients.iter_mut().zip(&ids) {
                let _ = client.delete(&format!("/v1/sessions/{id}"));
            }
            Ok((completed, rejected, latencies))
        }
        _ => {
            let observations: Vec<Observation> = (0..args.batch_size)
                .map(|j| bodies[j % bodies.len()].clone())
                .collect();
            let body = serde_json::to_string(&BatchRequest {
                observations: observations.clone(),
                deduction: None,
            })
            .map_err(|e| e.to_string())?;
            // Binary batch: one header frame, then one frame per row,
            // each streamed straight into the shared body buffer.
            let mut frame = Vec::new();
            codec::frame_into(&BatchHeader::default(), &mut frame);
            for obs in &observations {
                codec::frame_into(obs, &mut frame);
            }
            let path = format!("/v1/models/{}/diagnose_batch", args.model);
            let requests = args.rounds.div_ceil(args.batch_size).max(1);
            for i in 0..requests {
                let client = &mut clients[i % conns_here];
                if timed_post(
                    client,
                    &path,
                    &body,
                    &frame,
                    args.binary,
                    "diagnose_batch",
                    &mut latencies,
                )? {
                    completed += args.batch_size;
                } else {
                    rejected += 1;
                }
            }
            Ok((completed, rejected, latencies))
        }
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn stats(addr: &str) -> Result<StatsReport, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let (status, body) = client.get("/v1/stats").map_err(|e| e.to_string())?;
    check(status, &body, "stats")?;
    serde_json::from_str(&body).map_err(|e| format!("stats reply: {e}"))
}

/// Holds `--connections` keep-alive connections idle for `--soak-secs`,
/// polling the server's own connection gauges, then proves the
/// connections still serve.
fn idle_soak(args: &Args) -> Result<(), String> {
    let mut herd = Vec::with_capacity(args.connections);
    let start = Instant::now();
    for i in 0..args.connections {
        match Client::connect(&args.addr) {
            Ok(client) => herd.push(client),
            Err(e) => return Err(format!("connect #{i}: {e}")),
        }
    }
    println!(
        "opened {} keep-alive connections in {:.2}s",
        herd.len(),
        start.elapsed().as_secs_f64()
    );
    let mut peak_open = 0u64;
    for second in 0..args.soak_secs.max(1) {
        std::thread::sleep(Duration::from_secs(1));
        let report = stats(&args.addr)?;
        peak_open = peak_open.max(report.connections_open);
        println!(
            "t+{}s: open={} idle={} active={} queue_depth={} idle_timeouts={}",
            second + 1,
            report.connections_open,
            report.connections_idle,
            report.connections_active,
            report.queue_depth,
            report.idle_timeouts,
        );
    }
    // Every surviving connection still serves (spot-check a spread).
    let step = (herd.len() / 16).max(1);
    let mut checked = 0usize;
    for client in herd.iter_mut().step_by(step) {
        let (status, _) = client
            .get("/healthz")
            .map_err(|e| format!("soak check: {e}"))?;
        check(status, "", "healthz")?;
        checked += 1;
    }
    println!(
        "idle-soak: {} connections held {}s (server peak open {}), {} spot-checked live",
        herd.len(),
        args.soak_secs,
        peak_open,
        checked
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("abbd-loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.mode == "idle-soak" {
        return match idle_soak(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("abbd-loadgen: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let start = Instant::now();
    let results: Vec<Result<ClientTally, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|i| {
                let args = args.clone();
                // Split the connection budget across clients, first
                // clients taking the remainder.
                let base = args.connections / args.clients;
                let extra = usize::from(i < args.connections % args.clients);
                scope.spawn(move || run_client(&args, (base + extra).max(1)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut total = 0usize;
    let mut rejected = 0usize;
    let mut latencies: Vec<Duration> = Vec::new();
    for result in results {
        match result {
            Ok((items, rej, lats)) => {
                total += items;
                rejected += rej;
                latencies.extend(lats);
            }
            Err(e) => {
                eprintln!("abbd-loadgen: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    latencies.sort_unstable();
    let secs = elapsed.as_secs_f64();
    let format_tag = if args.binary { "binary" } else { "json" };
    let delta_tag = if args.delta {
        "+delta"
    } else if args.scenario {
        "+scenario"
    } else {
        ""
    };
    println!(
        "{} mode ({format_tag}{delta_tag}): {} items in {:.2}s across {} client(s) / {} connection(s) = {:.0} items/sec",
        args.mode, total, secs, args.clients, args.connections,
        total as f64 / secs,
    );
    if rejected > 0 {
        println!("backpressure: {rejected} request(s) answered 503 and not retried");
    }
    if latencies.is_empty() {
        // E.g. every round 503-rejected, or --rounds 0: percentiles of
        // nothing are meaningless, say so instead of printing zeros.
        println!("latency: no samples (no request completed)");
    } else {
        println!(
            "latency: p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms over {} requests",
            percentile(&latencies, 50.0).as_secs_f64() * 1e3,
            percentile(&latencies, 95.0).as_secs_f64() * 1e3,
            percentile(&latencies, 99.0).as_secs_f64() * 1e3,
            latencies.len(),
        );
    }
    // The server's own view of the run: uptime, error/compile counters,
    // and per-model rounds plus the fleet-learning loop's progress.
    match stats(&args.addr) {
        Ok(report) => print_server_stats(&report),
        Err(e) => eprintln!("abbd-loadgen: server stats unavailable: {e}"),
    }
    ExitCode::SUCCESS
}

/// Prints the end-of-run server-side counters (`GET /v1/stats`).
fn print_server_stats(report: &StatsReport) {
    println!(
        "server: uptime {}s, {} requests ({} errors), rounds {} stored / {} stateless, \
         {} batch items, worker_compiles {}",
        report.uptime_secs,
        report.requests,
        report.errors,
        report.rounds,
        report.stateless_rounds,
        report.batch_items,
        report.worker_compiles,
    );
    println!(
        "fleet: {} traces aggregated, {} refits run ({} rejected)",
        report.traces_aggregated, report.refits_run, report.refits_rejected,
    );
    for model in &report.models {
        let version = model
            .active_version
            .map_or_else(|| "hierarchy".to_string(), |v| format!("v{v} active"));
        println!(
            "model {}: {} ({} rounds, {} traces aggregated, {} refits run, {} rejected)",
            model.name,
            version,
            model.rounds,
            model.traces_aggregated,
            model.refits_run,
            model.refits_rejected,
        );
    }
}
