//! `serve_rounds`: the paper's use at the tester, over the wire.
//!
//! A labelled regulator fleet (fault-library draws under the d1 control
//! states) is diagnosed against the fitted regulator served in-process
//! by `abbd-server`. One client thread holds one keep-alive connection;
//! per device it opens a stored session, sends the controls as a JSON
//! round, then one delta round per measurement the previous report
//! ranked first (answered from the device's ground truth), stops on
//! `report.stop` and closes the session. Latency unit: one wire round.

use crate::trace::Tracer;
use crate::{err, Report, Result, RunConfig};
use abbd::bbn::{JunctionTree, PropagationWorkspace};
use abbd::core::{
    deduce_candidates, CompiledModel, DiagnosisSession, Observation, SessionReport, SessionRequest,
    StoppingPolicy,
};
use abbd::designs::regulator::{self, cases::case_studies, faults};
use abbd::scenarios::{sample_model_population, scenario_executor, ModelScenario};
use abbd::server::{
    Client, ModelRegistry, OpenSessionReply, Server, ServerConfig, SessionStore, StatsReport,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Devices in the fleet (one full pass always runs).
pub const FLEET: usize = 1200;
/// Devices per timed chunk.
pub const CHUNK: usize = 25;
/// Devices of the traced (and the matching untraced) half of a traced run.
const TRACE_FLEET: usize = 100;
/// The regulator fit the fleet is served against.
const FIT_DEVICES: usize = 30;
const FIT_SEED: u64 = 2010;
const MODEL: &str = "regulator";
/// Every this-many devices of the first pass, the first round's reply is
/// compared byte for byte with in-process `CompiledModel::serve`.
const CHECK_EVERY: usize = 20;
/// A device still undecided after this many rounds is a failure.
const MAX_ROUNDS: u32 = 64;

/// The d1 case study's control states.
pub fn controls() -> Vec<(String, usize)> {
    case_studies()[0]
        .controls
        .iter()
        .map(|&(name, state)| (name.to_string(), state))
        .collect()
}

struct Rig {
    compiled: Arc<CompiledModel>,
    fleet: Vec<ModelScenario>,
    /// The first round's observation: the d1 controls.
    controls: Observation,
    client: Client,
    /// Held for its lifetime: dropping it shuts the server down, after
    /// `client` (declared first) has closed its connection.
    _server: Server,
    fit_ms: f64,
    compile_ms: f64,
    sample_ms: f64,
    start_ms: f64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn build(config: &RunConfig) -> Result<Rig> {
    let t = Instant::now();
    let fitted = regulator::fit(FIT_DEVICES, FIT_SEED, regulator::default_algorithm())
        .map_err(err("regulator fit"))?;
    let fit_ms = ms_since(t);
    let t = Instant::now();
    let compiled = CompiledModel::compile(fitted.engine.model().clone())
        .map_err(err("compile"))?
        .shared();
    let compile_ms = ms_since(t);
    let t = Instant::now();
    let fleet = sample_model_population(
        compiled.model(),
        &faults::fault_library(),
        &controls(),
        config.fleet,
        config.seed,
    )
    .map_err(err("fleet"))?;
    let sample_ms = ms_since(t);
    let t = Instant::now();
    let registry = ModelRegistry::new()
        .insert(MODEL, Arc::clone(&compiled))
        .freeze();
    let server = Server::start(
        registry,
        ServerConfig {
            workers: config.workers,
            ..ServerConfig::default()
        },
    )
    .map_err(err("server start"))?;
    let client = Client::connect(server.addr()).map_err(err("connect"))?;
    let start_ms = ms_since(t);
    Ok(Rig {
        compiled,
        fleet,
        controls: observation_of(&controls()),
        client,
        _server: server,
        fit_ms,
        compile_ms,
        sample_ms,
        start_ms,
    })
}

/// What one pass over (a prefix of) the fleet measured.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    latencies: crate::Latencies,
    /// First-pass, seed-determined figures.
    devices: usize,
    isolated: usize,
    rounds: usize,
    candidates: usize,
    hypotheticals: usize,
    suspects: usize,
    /// `(request, reply)` of sampled first rounds, checked after timing.
    first_rounds: Vec<(SessionRequest, String)>,
}

/// The in-process mirror of the server's work, for the traced half.
struct Replay {
    tracer: Tracer,
    store: SessionStore,
    /// The benchmark's own compile of the served network.
    tree: JunctionTree,
    workspace: PropagationWorkspace,
    transport_us: Vec<f64>,
    inproc_us: Vec<f64>,
    store_us: Vec<f64>,
    reply_bytes: Vec<f64>,
    mismatches: usize,
}

fn stats(client: &mut Client) -> Result<StatsReport> {
    let (status, body) = client.get("/v1/stats").map_err(err("stats"))?;
    if status != 200 {
        return Err(format!("stats answered {status}: {body}"));
    }
    serde_json::from_str(&body).map_err(err("stats reply"))
}

fn observation_of(pairs: &[(String, usize)]) -> Observation {
    let mut observation = Observation::new();
    for (name, state) in pairs {
        observation.set(name.clone(), *state);
    }
    observation
}

/// One device through the wire loop, mirrored in-process when `replay`
/// is set.
fn device(
    rig: &mut Rig,
    index: usize,
    first_pass: bool,
    tally: &mut Tally,
    mut replay: Option<&mut Replay>,
) -> Result<()> {
    let scenario = &rig.fleet[index];
    let model = rig.compiled.model();
    let mut oracle = scenario_executor(model.circuit_model(), scenario);
    let device_id = index as u64;
    if let Some(r) = replay.as_deref_mut() {
        r.tracer.begin("client.device", device_id, 0);
    }

    tally.attempted += 1;
    let (status, body) = rig
        .client
        .post(&format!("/v1/models/{MODEL}/sessions"), "{}")
        .map_err(err("open"))?;
    let Some(open) = (status == 201)
        .then(|| serde_json::from_str::<OpenSessionReply>(&body).ok())
        .flatten()
    else {
        tally.failed += 1;
        if let Some(r) = replay {
            r.tracer.end();
        }
        return Ok(());
    };
    let path = format!("/v1/sessions/{}/round", open.session_id);
    let mut shadow = match replay.as_deref_mut() {
        Some(r) => {
            let session =
                DiagnosisSession::new(Arc::clone(&rig.compiled), StoppingPolicy::default())
                    .map_err(err("shadow session"))?;
            let stored = r.store.open(MODEL, session).map_err(|e| e.message)?;
            let phases =
                DiagnosisSession::new(Arc::clone(&rig.compiled), StoppingPolicy::default())
                    .map_err(err("phase session"))?;
            Some((stored, phases))
        }
        None => None,
    };

    let mut request = SessionRequest::new(rig.controls.clone());
    let mut round = 0u32;
    let mut final_report: Option<SessionReport> = None;
    loop {
        tally.attempted += 1;
        if let Some(r) = replay.as_deref_mut() {
            r.tracer.begin("server.round", device_id, round);
        }
        let t = Instant::now();
        let body = serde_json::to_string(&request).map_err(err("request encode"))?;
        let (status, reply) = rig.client.post(&path, &body).map_err(err("round"))?;
        let report = (status == 200)
            .then(|| serde_json::from_str::<SessionReport>(&reply).ok())
            .flatten();
        let wire_us = t.elapsed().as_secs_f64() * 1e6;
        if let Some(r) = replay.as_deref_mut() {
            r.tracer.end();
        }
        let Some(report) = report else {
            tally.failed += 1;
            break;
        };
        tally
            .latencies
            .record(index * MAX_ROUNDS as usize + round as usize, wire_us / 1e3);
        if first_pass && round == 0 && index.is_multiple_of(CHECK_EVERY) {
            tally.first_rounds.push((request.clone(), reply.clone()));
        }
        if let (Some(r), Some((stored, phases))) = (replay.as_deref_mut(), shadow.as_mut()) {
            replay_round(
                r,
                &rig.compiled,
                stored,
                phases,
                &body,
                &reply,
                wire_us,
                device_id,
                round,
            )?;
        }
        if first_pass {
            tally.candidates += report.ranked.len();
            for ranked in &report.ranked {
                let var = model
                    .var(ranked.action.target())
                    .map_err(err("candidate"))?;
                tally.hypotheticals += model.network().card(var);
            }
        }
        round += 1;
        if report.stop.is_some() || round >= MAX_ROUNDS {
            if report.stop.is_none() {
                tally.failed += 1;
            }
            final_report = Some(report);
            break;
        }
        let Some(next) = report.ranked.first() else {
            tally.failed += 1;
            break;
        };
        let outcome = match oracle(&next.action) {
            Ok(outcome) => outcome,
            Err(_) => {
                tally.failed += 1;
                break;
            }
        };
        let target = next.action.target().to_string();
        let mut delta = Observation::new();
        delta.set(target.clone(), outcome.state);
        if outcome.failing {
            delta.mark_failing(target);
        }
        request = SessionRequest::new(delta).into_delta();
    }

    tally.attempted += 1;
    let (status, _) = rig
        .client
        .delete(&format!("/v1/sessions/{}", open.session_id))
        .map_err(err("close"))?;
    if status != 200 {
        tally.failed += 1;
    }
    if let (Some(r), Some((stored, _))) = (replay, shadow) {
        r.store.close(&stored);
        r.tracer.end();
    }
    if first_pass {
        tally.devices += 1;
        tally.rounds += round as usize;
        if let Some(report) = &final_report {
            tally.suspects += report.candidates.len();
            let label = scenario.fault.as_ref().map(|f| f.block.as_str());
            if report.top_candidate.as_deref() == label {
                tally.isolated += 1;
            }
        }
    }
    Ok(())
}

/// Replays one wire round in-process: once as the server runs it (store
/// checkout, `serve_round`, checkin) and once split into the session's
/// phases, each call a span.
#[allow(clippy::too_many_arguments)]
fn replay_round(
    r: &mut Replay,
    compiled: &Arc<CompiledModel>,
    stored_id: &str,
    phases: &mut DiagnosisSession,
    body: &str,
    reply: &str,
    wire_us: f64,
    device: u64,
    round: u32,
) -> Result<()> {
    let tracer = &mut r.tracer;
    tracer.begin("replay.round", device, round);
    let request: SessionRequest = tracer
        .span("codec.request_decode", device, round, || {
            serde_json::from_str(body)
        })
        .map_err(err("request decode"))?;

    tracer.begin("store.checkout", device, round);
    let mut stored = r.store.checkout(stored_id).map_err(|e| e.message)?;
    let mut store_us = tracer.end();
    tracer.begin("core.serve_round", device, round);
    let served = stored.session.serve_round(&request);
    let inproc_us = tracer.end();
    tracer.begin("store.checkin", device, round);
    r.store.checkin(stored_id, stored);
    store_us += tracer.end();
    served.map_err(err("in-process round"))?;

    tracer
        .span("core.absorb", device, round, || {
            phases.absorb_request(&request)
        })
        .map_err(err("absorb"))?;
    let diagnosis = tracer
        .span("core.diagnose", device, round, || phases.diagnose())
        .map_err(err("diagnose"))?;
    tracer
        .span("core.rank", device, round, || {
            phases.rank_actions().map(|_| ())
        })
        .map_err(err("rank"))?;
    let report = tracer
        .span("core.report", device, round, || phases.report())
        .map_err(err("report"))?;
    let text = tracer
        .span("codec.report_encode", device, round, || {
            serde_json::to_string(&report)
        })
        .map_err(err("report encode"))?;

    let model = compiled.model();
    let evidence = compiled
        .evidence_from(phases.observation())
        .map_err(err("evidence"))?;
    let workspace = &mut r.workspace;
    let tree = &r.tree;
    tracer
        .span("bbn.propagate", device, round, || {
            tree.propagate_in(workspace, &evidence).map(|_| ())
        })
        .map_err(err("propagate"))?;
    let observables = model.circuit_model().observables();
    let failing: Vec<String> = phases
        .observation()
        .failing()
        .iter()
        .filter(|n| observables.contains(&n.as_str()))
        .cloned()
        .collect();
    tracer
        .span("core.deduce", device, round, || {
            deduce_candidates(
                model.circuit_model(),
                model.network(),
                &evidence,
                diagnosis.fault_mass(),
                &failing,
                compiled.policy(),
            )
        })
        .map_err(err("deduce"))?;
    tracer.end();

    if text != reply {
        r.mismatches += 1;
    }
    r.transport_us.push(wire_us - inproc_us);
    r.inproc_us.push(inproc_us);
    r.store_us.push(store_us);
    r.reply_bytes.push(reply.len() as f64);
    Ok(())
}

/// One measured pass set: untraced when `replay` is `None`.
fn measure(
    rig: &mut Rig,
    fleet: usize,
    chunk: usize,
    seconds: f64,
    mut replay: Option<&mut Replay>,
    between: impl FnMut() -> Result<()>,
) -> Result<(Tally, crate::Chunks)> {
    let mut tally = Tally::default();
    let chunks = crate::drive(
        fleet,
        chunk,
        seconds,
        |i, first| device(rig, i, first, &mut tally, replay.as_deref_mut()),
        between,
    )?;
    Ok((tally, chunks))
}

fn e2e_into(report: &mut Report, setup: &[f64], tally: &Tally, chunks: &crate::Chunks) {
    let devices = tally.devices.max(1) as f64;
    crate::end_to_end(
        report,
        setup,
        chunks,
        "round",
        &tally.latencies,
        tally.isolated as f64 / devices,
        (tally.rounds as f64 - tally.devices as f64) / devices,
    );
}

/// Runs the workload.
///
/// # Errors
///
/// Fatal set-up or transport failures.
pub fn run(config: &RunConfig, trace: bool) -> Result<Report> {
    let mut report = Report::default();
    let mut setup = crate::Setup::new(config.setup_builds, config.seconds);
    let mut rig = setup.build(|| build(config))?;
    report.fleet_digest = rig.fleet.iter().fold(crate::FNV_START, |h, s| {
        let bytes = serde_json::to_string(s).unwrap_or_default();
        crate::fnv(h, bytes.as_bytes())
    });
    report.line(format!(
        "fleet: {} regulator devices (chunks of {}), d1 controls, fit({FIT_DEVICES}, {FIT_SEED}), {} server workers",
        config.fleet, config.chunk, config.workers
    ));
    // Warm the connection, the workers and the allocator.
    let mut warm = Tally::default();
    for i in 0..config.chunk.min(config.fleet) {
        device(&mut rig, i, false, &mut warm, None)?;
    }
    let before = stats(&mut rig.client)?;

    let (fleet, seconds) = if trace {
        (TRACE_FLEET.min(config.fleet), config.seconds / 2.0)
    } else {
        (config.fleet, config.seconds)
    };
    let (tally, chunks) = measure(&mut rig, fleet, config.chunk, seconds, None, || {
        setup.between(|| build(config))
    })?;
    let setup = setup.finish(&mut report, || build(config))?;
    e2e_into(&mut report, &setup, &tally, &chunks);
    report.attempted += tally.attempted + warm.attempted;
    report.failed += tally.failed + warm.failed;

    let mut replay = None;
    let mut traced = None;
    if trace {
        let tree = JunctionTree::compile(rig.compiled.model().network()).map_err(err("compile"))?;
        let workspace = tree.make_workspace();
        let mut r = Replay {
            tracer: Tracer::default(),
            store: SessionStore::new(Duration::from_secs(600), 16),
            tree,
            workspace,
            transport_us: Vec::new(),
            inproc_us: Vec::new(),
            store_us: Vec::new(),
            reply_bytes: Vec::new(),
            mismatches: 0,
        };
        let (t, chunks) = measure(&mut rig, fleet, config.chunk, seconds, Some(&mut r), || {
            Ok(())
        })?;
        report.attempted += t.attempted;
        report.failed += t.failed;
        let untraced = std::mem::take(&mut report.e2e);
        let untraced_lines = report.lines.len();
        e2e_into(&mut report, &setup, &t, &chunks);
        report.lines.truncate(untraced_lines);
        let traced_e2e = std::mem::replace(&mut report.e2e, untraced.clone());
        crate::overhead_lines(&mut report, &untraced, &traced_e2e);
        report.check(
            "in-process phase replay matches every wire reply",
            r.mismatches == 0,
            format!("{} of {} rounds differ", r.mismatches, r.inproc_us.len()),
        );
        replay = Some(r);
        traced = Some(t);
    }

    let after = stats(&mut rig.client)?;
    checks(&mut report, &rig, &tally, &before, &after)?;
    let devices = tally.devices.max(1) as f64;
    let decisions = tally.rounds.max(1) as f64;
    report.deterministic = vec![
        ("isolation_accuracy", tally.isolated as f64 / devices),
        (
            "tests_per_device",
            (tally.rounds - tally.devices) as f64 / devices,
        ),
        ("core.rounds_per_device", tally.rounds as f64 / devices),
        (
            "core.candidates_per_decision",
            tally.candidates as f64 / decisions,
        ),
        (
            "bbn.hypotheticals_per_decision",
            tally.hypotheticals as f64 / decisions,
        ),
        ("core.suspects_per_row", tally.suspects as f64 / devices),
    ];

    if let (Some(r), Some(t)) = (replay, traced) {
        layers(&mut report, &rig, &r, &t, &before, &after);
        crate::write_spans(&mut report, &r.tracer, "serve_rounds", config.seed);
    }
    Ok(report)
}

fn checks(
    report: &mut Report,
    rig: &Rig,
    tally: &Tally,
    before: &StatsReport,
    after: &StatsReport,
) -> Result<()> {
    let mut identical = 0;
    for (request, reply) in &tally.first_rounds {
        let reference = rig
            .compiled
            .serve(request)
            .map_err(err("in-process serve"))?;
        if serde_json::to_string(&reference).map_err(err("encode"))? == *reply {
            identical += 1;
        }
    }
    report.check(
        "first rounds byte-identical to CompiledModel::serve",
        identical == tally.first_rounds.len() && identical > 0,
        format!("{identical}/{} sampled devices", tally.first_rounds.len()),
    );
    let compiles = after.worker_compiles - before.worker_compiles;
    report.check(
        "worker_compiles == 0",
        after.worker_compiles == 0,
        format!(
            "{} in total, {compiles} during the run",
            after.worker_compiles
        ),
    );
    report.check(
        "every request answered 2xx and every reply decoded",
        tally.failed == 0 && after.errors == before.errors,
        format!(
            "{} failed of {} attempted; server errors {}",
            tally.failed,
            tally.attempted,
            after.errors - before.errors
        ),
    );
    Ok(())
}

fn layers(
    report: &mut Report,
    rig: &Rig,
    r: &Replay,
    traced: &Tally,
    before: &StatsReport,
    after: &StatsReport,
) {
    use crate::stats::{mean, median};
    let p50 = |name: &str| median(&r.tracer.durations_us(name));
    let devices = traced.devices.max(1) as f64;
    let decisions = traced.rounds.max(1) as f64;
    let measured = [
        ("server.transport_us_p50", median(&r.transport_us)),
        ("codec.request_decode_us_p50", p50("codec.request_decode")),
        ("codec.report_encode_us_p50", p50("codec.report_encode")),
        ("codec.report_bytes_mean", mean(&r.reply_bytes)),
        ("store.checkout_us_p50", median(&r.store_us)),
        ("core.absorb_us_p50", p50("core.absorb")),
        ("core.diagnose_us_p50", p50("core.diagnose")),
        ("core.rank_us_p50", p50("core.rank")),
        ("core.report_us_p50", p50("core.report")),
        ("bbn.propagate_us_p50", p50("bbn.propagate")),
        ("core.deduce_ms_p50", p50("core.deduce") / 1e3),
        ("core.rounds_per_device", traced.rounds as f64 / devices),
        (
            "core.candidates_per_decision",
            traced.candidates as f64 / decisions,
        ),
        (
            "bbn.hypotheticals_per_decision",
            traced.hypotheticals as f64 / decisions,
        ),
        ("core.suspects_per_row", traced.suspects as f64 / devices),
        (
            "server.worker_compiles",
            (after.worker_compiles - before.worker_compiles) as f64,
        ),
        ("server.errors", (after.errors - before.errors) as f64),
        (
            "server.queue_full_rejections",
            (after.queue_full_rejections - before.queue_full_rejections) as f64,
        ),
        ("designs.fit_ms", rig.fit_ms),
        ("scenarios.sample_ms", rig.sample_ms),
        ("core.compile_ms", rig.compile_ms),
        ("server.start_ms", rig.start_ms),
    ];
    crate::per_layer(report, &measured);
    report.line(format!(
        "counts over the {} traced devices ({} rounds); candidates and hypotheticals per decision = per round",
        traced.devices, traced.rounds
    ));
    let parts = p50("codec.request_decode")
        + p50("core.absorb")
        + p50("core.report")
        + p50("codec.report_encode");
    report.line(format!(
        "sum of parts (p50): decode + absorb + report + encode = {parts:.1} us vs in-process round {:.1} us vs wire round {:.1} us",
        median(&r.inproc_us),
        median(&traced.latencies.all_ms) * 1e3,
    ));
    report.line(format!(
        "report - (diagnose + rank) (p50) = {:.1} us: the report's own propagation and assembly",
        p50("core.report") - p50("core.diagnose") - p50("core.rank")
    ));
    crate::self_time_lines(report, &r.tracer);
}
