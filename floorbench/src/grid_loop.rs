//! `grid_closed_loop`: the widest menu, in-process on one thread.
//!
//! Every entry of the regulator's grid hypothesis library is fabricated
//! as a device and repeated in library order to a fixed count, each copy
//! measured under its own noise seed derived from the workload seed. Each
//! device runs `grid::diagnose_device`: cost-weighted selection among 60
//! candidates over 12 stimulus suites, every measurement a circuit
//! simulation on the virtual tester. Latency unit: one device.

use crate::trace::Tracer;
use crate::{err, Report, Result, RunConfig};
use abbd::ate::NoiseModel;
use abbd::bbn::{JunctionTree, PropagationWorkspace};
use abbd::blocks::Device;
use abbd::core::{deduce_candidates, CompiledModel, DiagnosisSession, Strategy};
use abbd::designs::regulator::{circuit, grid};
use abbd::scenarios::{fit_fault_hypotheses, McFitConfig};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Devices in the fleet: five copies of the 20-entry library.
pub const FLEET: usize = 100;
/// Devices per timed chunk: one copy of every library entry.
pub const CHUNK: usize = 20;
/// Devices of each half of a traced run.
const TRACE_FLEET: usize = 20;
/// Devices the untraced run re-steps to check the top tag.
const STEP_CHECKS: usize = 2;

struct FleetDevice {
    device: Device,
    noise: NoiseModel,
    seed: u64,
    tag: String,
}

struct Rig {
    grid: grid::GridRig,
    fleet: Vec<FleetDevice>,
    /// Suite of every candidate variable.
    suite_of: HashMap<String, usize>,
    mc_fit_ms: f64,
    compile_ms: f64,
    sample_ms: f64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Builds the rig with `grid_rig()`, or from its public parts when
/// `split` asks for the set-up split (same result, timed per call).
fn build(config: &RunConfig, split: bool) -> Result<Rig> {
    let (grid, mc_fit_ms, compile_ms) = if split {
        let circuit = circuit::circuit();
        let program = grid::grid_family()
            .discretize(&circuit)
            .map_err(err("discretize"))?;
        let t = Instant::now();
        let fit = fit_fault_hypotheses(
            &circuit,
            &grid::grid_library(),
            &program,
            &NoiseModel::production(),
            &McFitConfig::default(),
        )
        .map_err(err("hypothesis fit"))?;
        let mc_fit_ms = ms_since(t);
        let t = Instant::now();
        let compiled = CompiledModel::compile(fit.model.clone())
            .map_err(err("compile"))?
            .shared();
        let compile_ms = ms_since(t);
        let rig = grid::GridRig {
            circuit,
            program,
            fit,
            compiled,
        };
        (rig, mc_fit_ms, compile_ms)
    } else {
        (grid::grid_rig().map_err(err("grid rig"))?, 0.0, 0.0)
    };
    let t = Instant::now();
    let library = grid::grid_library();
    let entries = library.entries();
    let fleet = (0..config.fleet)
        .map(|i| {
            let entry = &entries[i % entries.len()];
            Ok(FleetDevice {
                device: grid::device_for_entry(&grid.circuit, entry, i as u64)
                    .map_err(err("fabricate"))?,
                noise: grid::noise_for_entry(entry),
                seed: crate::mix(config.seed ^ crate::mix(i as u64)),
                tag: entry.tag(),
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let sample_ms = ms_since(t);
    let suite_of = grid
        .program
        .var_test
        .iter()
        .map(|(var, _, suite)| (var.clone(), *suite))
        .collect();
    Ok(Rig {
        grid,
        fleet,
        suite_of,
        mc_fit_ms,
        compile_ms,
        sample_ms,
    })
}

/// What one pass set measured.
#[derive(Default)]
struct Tally {
    latencies: crate::Latencies,
    /// First-pass, seed-determined figures.
    devices: usize,
    isolated: usize,
    tests: usize,
    suite_switches: usize,
    suspects: usize,
    decisions: usize,
    candidates: usize,
    hypotheticals: usize,
    /// Top tag per fleet index, first pass.
    tops: Vec<(usize, String)>,
}

fn switches<'a>(
    suite_of: &HashMap<String, usize>,
    measured: impl Iterator<Item = &'a str>,
) -> usize {
    let suites: Vec<Option<usize>> = measured.map(|v| suite_of.get(v).copied()).collect();
    suites.windows(2).filter(|w| w[0] != w[1]).count()
}

/// One device through `grid::diagnose_device`.
fn device(rig: &Rig, index: usize, first_pass: bool, tally: &mut Tally) -> Result<()> {
    let d = &rig.fleet[index];
    let t = Instant::now();
    let (outcome, _, top) =
        grid::diagnose_device(&rig.grid, &d.device, &d.noise, d.seed).map_err(err("grid loop"))?;
    tally
        .latencies
        .record(index, t.elapsed().as_secs_f64() * 1e3);
    if first_pass {
        tally.devices += 1;
        tally.tests += outcome.applied.len();
        tally.isolated += usize::from(top == d.tag);
        tally.suspects += outcome.diagnosis.candidates().len();
        tally.suite_switches += switches(
            &rig.suite_of,
            outcome.applied.iter().map(|a| a.variable.as_str()),
        );
        tally.tops.push((index, top));
    }
    Ok(())
}

/// The benchmark's own compile of the hypothesis network, for timing
/// propagation from outside the session.
struct Probe {
    tree: JunctionTree,
    workspace: PropagationWorkspace,
}

/// What stepping one device by hand produced.
#[derive(Default)]
struct Stepped {
    top: String,
    /// Wall time of the real path (replays excluded), ms.
    real_ms: f64,
    tests: usize,
    switches: usize,
    suspects: usize,
    decisions: usize,
    candidates: usize,
    hypotheticals: usize,
}

impl Stepped {
    fn add_to(&self, index: usize, tally: &mut Tally) {
        tally.devices += 1;
        tally.tests += self.tests;
        tally.suite_switches += self.switches;
        tally.suspects += self.suspects;
        tally.decisions += self.decisions;
        tally.candidates += self.candidates;
        tally.hypotheticals += self.hypotheticals;
        tally.tops.push((index, self.top.clone()));
    }
}

/// One device stepped by hand (`next_action` / executor / `apply`), each
/// call a span; with `probe`, every decision also times `diagnose`,
/// `rank_actions`, `report`, a propagation and a deduction on the same
/// state.
fn step_device(
    rig: &Rig,
    index: usize,
    tracer: &mut Tracer,
    mut probe: Option<&mut Probe>,
) -> Result<Stepped> {
    let d = &rig.fleet[index];
    let g = &rig.grid;
    let id = index as u64;
    tracer.begin("client.device", id, 0);
    let mut real_us = 0.0;
    let t = Instant::now();
    let mut session = DiagnosisSession::new(Arc::clone(&g.compiled), grid::grid_policy())
        .map_err(err("session"))?;
    session
        .set_strategy(Strategy::CostWeighted)
        .map_err(err("strategy"))?;
    session
        .set_cost_model(
            g.program
                .cost_model(grid::GRID_PROBE_SECONDS)
                .map_err(err("cost model"))?,
        )
        .map_err(err("cost model"))?;
    session
        .set_actions(g.program.actions())
        .map_err(err("actions"))?;
    let tester = g.program.tester(&g.circuit).map_err(err("tester"))?;
    let spec = g.fit.model.circuit_model().spec();
    let bench = tester.session(&d.device, d.noise.clone(), d.seed);
    let mut executor = g.program.executor(spec, bench);
    real_us += t.elapsed().as_secs_f64() * 1e6;

    let model = g.compiled.model();
    let mut measured: Vec<String> = Vec::new();
    let mut out = Stepped::default();
    for round in 0u32.. {
        if let Some(p) = probe.as_deref_mut() {
            let diagnosis = tracer
                .span("core.diagnose", id, round, || session.diagnose())
                .map_err(err("diagnose"))?;
            tracer
                .span("core.rank", id, round, || {
                    session.rank_actions().map(|_| ())
                })
                .map_err(err("rank"))?;
            tracer
                .span("core.report", id, round, || session.report().map(|_| ()))
                .map_err(err("report"))?;
            out.decisions += 1;
            out.candidates += session.actions().len();
            for action in session.actions() {
                let var = model.var(action.name()).map_err(err("candidate"))?;
                out.hypotheticals += model.network().card(var);
            }
            let evidence = g
                .compiled
                .evidence_from(session.observation())
                .map_err(err("evidence"))?;
            let (tree, workspace) = (&p.tree, &mut p.workspace);
            tracer
                .span("bbn.propagate", id, round, || {
                    tree.propagate_in(workspace, &evidence).map(|_| ())
                })
                .map_err(err("propagate"))?;
            tracer
                .span("core.deduce", id, round, || {
                    deduce_candidates(
                        model.circuit_model(),
                        model.network(),
                        &evidence,
                        diagnosis.fault_mass(),
                        session.observation().failing(),
                        g.compiled.policy(),
                    )
                })
                .map_err(err("deduce"))?;
        }
        tracer.begin("core.next_action", id, round);
        let next = session.next_action().map_err(err("next action"))?;
        real_us += tracer.end();
        let Some(next) = next else { break };
        tracer.begin("ate.measure", id, round);
        let outcome = executor(&next.action).map_err(err("measure"))?;
        real_us += tracer.end();
        tracer.begin("core.absorb", id, round);
        session.apply(&next.action, outcome).map_err(err("apply"))?;
        real_us += tracer.end();
        measured.push(next.action.target().to_string());
    }
    let t = Instant::now();
    let diagnosis = session.diagnose().map_err(err("final diagnose"))?;
    let posterior = diagnosis
        .posterior_of(&g.fit.fault_var)
        .ok_or("hypothesis latent has no posterior")?;
    let top = posterior
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(s, _)| g.fit.tags[s].clone())
        .ok_or("hypothesis latent has no states")?;
    real_us += t.elapsed().as_secs_f64() * 1e6;
    tracer.end();
    out.tests = measured.len();
    out.switches = switches(&rig.suite_of, measured.iter().map(String::as_str));
    out.suspects = diagnosis.candidates().len();
    out.real_ms = real_us / 1e3;
    out.top = top;
    Ok(out)
}

fn e2e_into(report: &mut Report, setup: &[f64], tally: &Tally, chunks: &crate::Chunks) {
    let devices = tally.devices.max(1) as f64;
    crate::end_to_end(
        report,
        setup,
        chunks,
        "device",
        &tally.latencies,
        tally.isolated as f64 / devices,
        tally.tests as f64 / devices,
    );
}

/// Runs the workload.
///
/// # Errors
///
/// Fatal set-up or simulation failures.
pub fn run(config: &RunConfig, trace: bool) -> Result<Report> {
    let mut report = Report::default();
    let mut setup = crate::Setup::new(config.setup_builds, config.seconds);
    let rig = setup.build(|| build(config, false))?;
    report.fleet_digest = rig.fleet.iter().fold(crate::FNV_START, |h, d| {
        let h = crate::fnv(h, d.tag.as_bytes());
        crate::fnv(h, &d.seed.to_le_bytes())
    });
    report.line(format!(
        "fleet: {} grid devices ({} library entries x {} copies, chunks of {}), 60 candidates over 12 suites",
        config.fleet,
        grid::grid_library().len(),
        config.fleet.div_ceil(grid::grid_library().len()),
        config.chunk
    ));
    let mut warm = Tally::default();
    device(&rig, 0, false, &mut warm)?;

    let (fleet, seconds) = if trace {
        (TRACE_FLEET.min(config.fleet), config.seconds / 2.0)
    } else {
        (config.fleet, config.seconds)
    };
    let mut tally = Tally::default();
    let chunks = crate::drive(
        fleet,
        config.chunk,
        seconds,
        |i, first| device(&rig, i, first, &mut tally),
        || setup.between(|| build(config, false)),
    )?;
    let setup = setup.finish(&mut report, || build(config, false))?;
    e2e_into(&mut report, &setup, &tally, &chunks);
    report.attempted += tally.latencies.all_ms.len() as u64 + 1;

    let mut tracer = Tracer::default();
    if trace {
        let split = build(config, true)?;
        let tree =
            JunctionTree::compile(rig.grid.compiled.model().network()).map_err(err("compile"))?;
        let workspace = tree.make_workspace();
        let mut probe = Probe { tree, workspace };
        let mut traced = Tally::default();
        let chunks = crate::drive(
            fleet,
            config.chunk,
            seconds,
            |i, first| {
                let stepped = step_device(&rig, i, &mut tracer, Some(&mut probe))?;
                traced.latencies.record(i, stepped.real_ms);
                if first {
                    stepped.add_to(i, &mut traced);
                    traced.isolated += usize::from(stepped.top == rig.fleet[i].tag);
                }
                Ok(())
            },
            || Ok(()),
        )?;
        report.attempted += traced.latencies.all_ms.len() as u64;
        let untraced = report.e2e.clone();
        let lines = report.lines.len();
        e2e_into(&mut report, &setup, &traced, &chunks);
        report.lines.truncate(lines);
        let traced_e2e = std::mem::replace(&mut report.e2e, untraced.clone());
        crate::overhead_lines(&mut report, &untraced, &traced_e2e);
        let agree = traced
            .tops
            .iter()
            .zip(&tally.tops)
            .filter(|(a, b)| a == b)
            .count();
        report.check(
            "top tag of diagnose_device matches the traced stepping",
            traced.tops == tally.tops,
            format!("{agree}/{} devices", tally.tops.len()),
        );
        layers(&mut report, &split, &tracer, &traced);
        crate::write_spans(&mut report, &tracer, "grid_closed_loop", config.seed);
    } else {
        let mut agree = 0;
        let checked = STEP_CHECKS.min(tally.tops.len());
        for (index, top) in &tally.tops[..checked] {
            let stepped = step_device(&rig, *index, &mut tracer, None)?;
            agree += usize::from(stepped.top == *top);
        }
        report.check(
            "top tag of diagnose_device matches the traced stepping",
            agree == checked && checked > 0,
            format!("{agree}/{checked} devices"),
        );
    }
    report.check(
        "every device diagnosed",
        tally.devices == fleet,
        format!("{}/{fleet} devices of the first pass", tally.devices),
    );
    let devices = tally.devices.max(1) as f64;
    report.deterministic = vec![
        ("isolation_accuracy", tally.isolated as f64 / devices),
        ("tests_per_device", tally.tests as f64 / devices),
        (
            "ate.suite_switches_per_device",
            tally.suite_switches as f64 / devices,
        ),
        ("core.suspects_per_row", tally.suspects as f64 / devices),
    ];
    Ok(report)
}

fn layers(report: &mut Report, split: &Rig, tracer: &Tracer, traced: &Tally) {
    use crate::stats::median;
    let p50 = |name: &str| median(&tracer.durations_us(name));
    let devices = traced.devices.max(1) as f64;
    let decisions = traced.decisions.max(1) as f64;
    let measured = [
        ("core.absorb_us_p50", p50("core.absorb")),
        ("core.diagnose_us_p50", p50("core.diagnose")),
        ("core.rank_us_p50", p50("core.rank")),
        ("core.report_us_p50", p50("core.report")),
        ("bbn.propagate_us_p50", p50("bbn.propagate")),
        ("core.deduce_ms_p50", p50("core.deduce") / 1e3),
        ("ate.measure_ms_p50", p50("ate.measure") / 1e3),
        ("core.rounds_per_device", decisions / devices),
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
            "ate.suite_switches_per_device",
            traced.suite_switches as f64 / devices,
        ),
        ("scenarios.sample_ms", split.sample_ms),
        ("scenarios.mc_fit_ms", split.mc_fit_ms),
        ("core.compile_ms", split.compile_ms),
    ];
    crate::per_layer(report, &measured);
    report.line(format!(
        "counts over the {} traced devices ({} decisions); rounds = decisions per device",
        traced.devices, traced.decisions
    ));
    let steps = tracer.durations_us("core.next_action");
    let measures = tracer.durations_us("ate.measure");
    let applies = tracer.durations_us("core.absorb");
    let sum = |v: &[f64]| v.iter().sum::<f64>() / 1e3;
    report.line(format!(
        "sum of parts (total over traced devices): next_action {:.1} ms + measure {:.1} ms + apply {:.1} ms = {:.1} ms vs devices {:.1} ms",
        sum(&steps),
        sum(&measures),
        sum(&applies),
        sum(&steps) + sum(&measures) + sum(&applies),
        traced.latencies.all_ms.iter().sum::<f64>(),
    ));
    report.line(format!(
        "report - (diagnose + rank) (p50) = {:.1} us",
        p50("core.report") - p50("core.diagnose") - p50("core.rank")
    ));
    crate::self_time_lines(report, tracer);
}
