//! The golden-trace conformance corpus: full adaptive decision traces —
//! every candidate's score at every step, the chosen measurement, the
//! oracle's answer and the posterior fault mass after absorbing it — for
//! the paper's d1–d3 case studies and a seeded 16-device cross-suite
//! population, under all three selection strategies.
//!
//! The corpus lives in `tests/golden/*.json`. This test regenerates every
//! trace in-memory and diffs it byte-for-byte against the stored file, so
//! *any* behavioural change in the VOI kernel, the lookahead planner, the
//! cost model, the stopping logic or the deduction layer shows up as an
//! exact, reviewable JSON diff instead of a silently drifting plan.
//!
//! To bless an intentional change:
//!
//! ```text
//! ABBD_REGEN_GOLDEN=1 cargo test --test golden_traces
//! ```
//!
//! then review the diff like any other code change.

use abbd::core::{
    CostModel, DecisionTrace, DiagnosisSession, DiagnosticEngine, GoldenCorpus,
    HierarchicalSession, HierarchicalTrace, StoppingPolicy, Strategy,
};
use abbd::designs::board::{self, BoardConfig};
use abbd::designs::regulator::adaptive::{
    cross_suite_population, reference_cost_model, summarize_cross_suite, traced_case_study,
    CrossSuiteReport,
};
use abbd::designs::regulator::{self, cases::case_studies, grid};
use abbd::scenarios::{sample_model_population, scenario_executor, FaultKind, FaultLibrary};
use std::path::Path;
use std::sync::Arc;

/// The corpus strategies: file-name tag, strategy, and the cost model the
/// scenario prices measurements with. Lookahead runs under unit costs —
/// it is the *pure planning* reference (the population scenario exercises
/// its cost-aware form), and under unit costs its depth-2 decisions are
/// directly comparable to the myopic baseline.
fn strategies() -> [(&'static str, Strategy, CostModel); 3] {
    [
        ("myopic", Strategy::Myopic, reference_cost_model()),
        (
            "cost_weighted",
            Strategy::CostWeighted,
            reference_cost_model(),
        ),
        (
            "lookahead2",
            Strategy::Lookahead { depth: 2 },
            CostModel::unit(),
        ),
    ]
}

fn engine() -> DiagnosticEngine {
    // The same quick EM fit the adaptive scenario tests pin their
    // assertions on: deterministic for the fixed seed.
    regulator::fit(
        24,
        42,
        abbd::core::LearnAlgorithm::Em(abbd::bbn::learn::EmConfig {
            max_iterations: 8,
            tolerance: 1e-4,
        }),
    )
    .expect("regulator pipeline runs")
    .engine
}

/// The corpus handle: byte-for-byte conformance (or `ABBD_REGEN_GOLDEN=1`
/// regeneration) via the shared [`abbd::core::conformance`]
/// implementation — the same code the server-side refit gate reports
/// mismatches through.
fn corpus() -> GoldenCorpus {
    GoldenCorpus::new(Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden"))
}

#[test]
fn golden_traces_replay_exactly() {
    let corpus = corpus();
    let engine = engine();
    let policy = StoppingPolicy::default();
    let mut mismatches: Vec<String> = Vec::new();

    // d1–d3 case-study traces under every strategy.
    let cases = case_studies();
    let mut tests_used: Vec<Vec<usize>> = Vec::new();
    for case in &cases[..3] {
        let mut per_case = Vec::new();
        for (tag, strategy, cost) in strategies() {
            let (outcome, trace) =
                traced_case_study(&engine, case, policy, strategy, cost).expect("case study runs");
            per_case.push(outcome.tests_used());
            let mut rendered = serde_json::to_string_pretty(&trace).expect("traces serialise");
            rendered.push('\n');
            let name = format!("{}_{}.json", case.id, tag);
            if let Some(m) = corpus.conform(&name, &rendered) {
                mismatches.push(m);
            } else if !corpus.regenerating() {
                // The stored corpus must also round-trip through the
                // typed representation (pins the serde layer itself).
                let stored = std::fs::read_to_string(corpus.path(&name)).unwrap();
                let parsed: DecisionTrace =
                    serde_json::from_str(&stored).expect("golden trace parses");
                assert_eq!(parsed, trace, "{name}: parsed trace differs from replay");
            }
        }
        tests_used.push(per_case);
    }
    // The acceptance facts ride in the corpus: depth-2 lookahead needs no
    // more measurements than myopic on d1 and d3.
    for (case_idx, case_id) in [(0usize, "d1"), (2, "d3")] {
        let myopic = tests_used[case_idx][0];
        let lookahead = tests_used[case_idx][2];
        assert!(
            lookahead <= myopic,
            "{case_id}: lookahead {lookahead} > myopic {myopic}"
        );
    }

    // The seeded 16-device cross-suite population under every strategy.
    let mut switches = Vec::new();
    for (tag, strategy, _) in strategies() {
        let run =
            cross_suite_population(&engine, 16, 2024, policy, strategy, &reference_cost_model())
                .expect("population scenario runs");
        assert!(
            run.skipped.is_empty(),
            "the golden population diagnoses every device"
        );
        let reports: Vec<CrossSuiteReport> = run.reports;
        let summary = summarize_cross_suite(strategy, &reports);
        switches.push(summary.stimulus_switches);
        let mut rendered = serde_json::to_string_pretty(&reports).expect("reports serialise");
        rendered.push('\n');
        if let Some(m) = corpus.conform(&format!("population16_{tag}.json"), &rendered) {
            mismatches.push(m);
        }
        let mut summary_rendered =
            serde_json::to_string_pretty(&summary).expect("summary serialises");
        summary_rendered.push('\n');
        if let Some(m) = corpus.conform(
            &format!("population16_{tag}_summary.json"),
            &summary_rendered,
        ) {
            mismatches.push(m);
        }
    }
    // ... and cost-weighted arbitration strictly reduces suite switches.
    assert!(
        switches[1] < switches[0],
        "cost-weighted switches {} must be strictly below myopic {}",
        switches[1],
        switches[0]
    );

    assert!(
        mismatches.is_empty(),
        "golden traces diverged:\n  {}\nIf the change is intentional, regenerate with \
         `ABBD_REGEN_GOLDEN=1 cargo test --test golden_traces` and review the JSON diff.",
        mismatches.join("\n  ")
    );
}

/// The scenario-engine corpus entries (PR 10): library-generated
/// labelled fleets for both reference designs (mixed fault modes —
/// dead, drift, stuck-at, short — drawn from one weighted catalogue),
/// the closed-loop decision trace a sampled regulator scenario produces,
/// and the 60-candidate stimulus-grid trace. Byte-for-byte conformance
/// pins the samplers (seed → fleet), the generic scenario oracle, and
/// the grid loop's suite-switch-priced decisions in one reviewable
/// artefact set.
#[test]
fn scenario_goldens_replay_exactly() {
    let corpus = corpus();
    let mut mismatches: Vec<String> = Vec::new();

    // The regulator fleet: the full 19-entry catalogue (dead, gain
    // drift, stuck-at, short modes) under the d1 stimulus.
    let rig = regulator::rig();
    let reg_model = abbd::core::ModelBuilder::new(rig.model)
        .with_expert(rig.expert)
        .build_expert_only()
        .expect("expert-only regulator model builds");
    let controls: Vec<(String, usize)> = case_studies()[0]
        .controls
        .iter()
        .map(|&(name, state)| (name.to_string(), state))
        .collect();
    let reg_fleet = sample_model_population(
        &reg_model,
        &regulator::faults::fault_library(),
        &controls,
        12,
        2010,
    )
    .expect("regulator fleet samples");
    let modes: std::collections::BTreeSet<&str> = reg_fleet
        .iter()
        .filter_map(|s| s.fault.as_ref())
        .filter_map(|f| f.tag.split(':').nth(1))
        .collect();
    assert!(modes.len() >= 2, "the fleet mixes fault modes: {modes:?}");
    let mut rendered = serde_json::to_string_pretty(&reg_fleet).expect("fleets serialise");
    rendered.push('\n');
    if let Some(m) = corpus.conform("scenario_population_regulator.json", &rendered) {
        mismatches.push(m);
    }

    // The 100-variable board fleet: same API, different model and
    // library.
    let config = BoardConfig::default();
    let board_model = board::flat_model(&config).expect("board model builds");
    let board_library: FaultLibrary = [
        ("drv00", FaultKind::Dead, 2.0),
        ("bg03", FaultKind::Dead, 1.0),
        ("drv07", FaultKind::Dead, 1.5),
        ("bias11", FaultKind::Dead, 0.5),
        ("reg_s05", FaultKind::Dead, 1.0),
    ]
    .into_iter()
    .collect();
    let board_controls = vec![("vin".to_string(), 1), ("vload".to_string(), 0)];
    let board_fleet =
        sample_model_population(&board_model, &board_library, &board_controls, 6, 2010)
            .expect("board fleet samples");
    let mut rendered = serde_json::to_string_pretty(&board_fleet).expect("fleets serialise");
    rendered.push('\n');
    if let Some(m) = corpus.conform("scenario_population_board.json", &rendered) {
        mismatches.push(m);
    }

    // The generic oracle closing the loop on a sampled regulator
    // scenario: the decision stream is corpus-pinned like the hand-built
    // case studies.
    let compiled = abbd::core::CompiledModel::compile(reg_model)
        .expect("regulator model compiles")
        .shared();
    let scenario = &reg_fleet[0];
    let mut session = DiagnosisSession::new(Arc::clone(&compiled), StoppingPolicy::default())
        .expect("session opens");
    for (name, state) in &controls {
        session.observe(name, *state).expect("controls observe");
    }
    let (_, trace) = session
        .run_traced(scenario_executor(
            compiled.model().circuit_model(),
            scenario,
        ))
        .expect("scenario loop runs");
    let mut rendered = serde_json::to_string_pretty(&trace).expect("traces serialise");
    rendered.push('\n');
    let name = "scenario_regulator_trace.json";
    if let Some(m) = corpus.conform(name, &rendered) {
        mismatches.push(m);
    } else if !corpus.regenerating() {
        let stored = std::fs::read_to_string(corpus.path(name)).unwrap();
        let parsed: DecisionTrace = serde_json::from_str(&stored).expect("golden trace parses");
        assert_eq!(parsed, trace, "{name}: parsed trace differs from replay");
    }

    // The stimulus-grid loop: a catalogue fault diagnosed against the
    // noise-calibrated hypothesis model over the full 60-candidate menu.
    let rig = grid::grid_rig().expect("grid rig builds");
    let entry = grid::grid_library()
        .entries()
        .iter()
        .find(|e| e.tag() == "reg1:dead")
        .expect("catalogue has reg1:dead")
        .clone();
    let device = grid::device_for_entry(&rig.circuit, &entry, 9001).expect("device fabricates");
    let noise = grid::noise_for_entry(&entry);
    let (_, trace, top) = grid::diagnose_device(&rig, &device, &noise, 77).expect("grid loop runs");
    assert_eq!(top, "reg1:dead", "the grid loop isolates the seeded fault");
    assert!(
        trace.steps.first().is_some_and(|s| s.scores.len() >= 50),
        "the first decision ranks the whole grid menu"
    );
    let mut rendered = serde_json::to_string_pretty(&trace).expect("traces serialise");
    rendered.push('\n');
    let name = "scenario_grid_trace.json";
    if let Some(m) = corpus.conform(name, &rendered) {
        mismatches.push(m);
    } else if !corpus.regenerating() {
        let stored = std::fs::read_to_string(corpus.path(name)).unwrap();
        let parsed: DecisionTrace = serde_json::from_str(&stored).expect("golden trace parses");
        assert_eq!(parsed, trace, "{name}: parsed trace differs from replay");
    }

    assert!(
        mismatches.is_empty(),
        "scenario goldens diverged:\n  {}\nIf the change is intentional, regenerate with \
         `ABBD_REGEN_GOLDEN=1 cargo test --test golden_traces` and review the JSON diff.",
        mismatches.join("\n  ")
    );
}

/// The hierarchical corpus entry (PR 7): a 4-block synthetic board run
/// through the two-phase loop — board-level rounds on the abstract root,
/// the descent decision, and the block-level rounds inside the extracted
/// sub-model — captured as one `HierarchicalTrace` and replayed
/// byte-for-byte. Pins the descent *policy* (when the session drops a
/// level and into which block) alongside the per-level decision streams.
#[test]
fn hierarchical_board_trace_replays_exactly() {
    let config = BoardConfig {
        blocks: 4,
        seed: 2010,
    };
    let hierarchy = board::hierarchy(&config)
        .expect("board hierarchy builds")
        .shared();
    let scenario = board::d1_scenario(&config, 2);
    let mut session = HierarchicalSession::new(Arc::clone(&hierarchy), StoppingPolicy::default())
        .expect("session opens");
    session.observe("vin", 1).expect("vin");
    session.observe("vload", 0).expect("vload");
    let (outcome, trace) = session
        .run_traced(board::scenario_executor(&scenario))
        .expect("two-phase loop runs");
    assert_eq!(trace.descended.as_deref(), Some("reg02"));
    assert_eq!(outcome.diagnosis.top_candidate(), Some("drv02"));

    let corpus = corpus();
    let mut rendered = serde_json::to_string_pretty(&trace).expect("trace serialises");
    rendered.push('\n');
    let name = "board4_hierarchical.json";
    if let Some(mismatch) = corpus.conform(name, &rendered) {
        panic!(
            "{mismatch}\nIf the change is intentional, regenerate with \
             `ABBD_REGEN_GOLDEN=1 cargo test --test golden_traces` and review the JSON diff."
        );
    }
    if !corpus.regenerating() {
        // The stored corpus must round-trip through the typed
        // representation (pins the hierarchy serde layer itself).
        let stored = std::fs::read_to_string(corpus.path(name)).unwrap();
        let parsed: HierarchicalTrace =
            serde_json::from_str(&stored).expect("golden hierarchical trace parses");
        assert_eq!(parsed, trace, "{name}: parsed trace differs from replay");
    }
}

/// Lower-case hex, 32 bytes per line: a reviewable text form of a
/// binary wire fixture.
fn hex_lines(bytes: &[u8]) -> String {
    let mut out = String::new();
    for line in bytes.chunks(32) {
        for byte in line {
            out.push_str(&format!("{byte:02x}"));
        }
        out.push('\n');
    }
    out
}

fn unhex(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

/// Pins one wire message's compact-JSON and binary-frame bytes
/// (`wire_{name}.json`, `wire_{name}.frame.hex`), and checks that the
/// stored bytes decode and re-encode to themselves through both codecs.
fn pin_wire<T: serde::Serialize + serde::Deserialize>(
    corpus: &GoldenCorpus,
    name: &str,
    value: &T,
    mismatches: &mut Vec<String>,
) {
    use abbd::server::codec;
    let json_name = format!("wire_{name}.json");
    let frame_name = format!("wire_{name}.frame.hex");
    let json = serde_json::to_string(value).expect("encodes");
    let frame = codec::to_frame(value);
    mismatches.extend(corpus.conform(&json_name, &format!("{json}\n")));
    mismatches.extend(corpus.conform(&frame_name, &hex_lines(&frame)));
    if corpus.regenerating() {
        return;
    }
    let stored_json = std::fs::read_to_string(corpus.path(&json_name)).unwrap();
    let stored_json = stored_json.trim_end_matches('\n');
    let parsed: T = serde_json::from_str(stored_json).expect("stored JSON decodes");
    assert_eq!(
        serde_json::to_string(&parsed).unwrap(),
        stored_json,
        "{json_name}: JSON does not re-encode to itself"
    );
    let stored_frame = unhex(&std::fs::read_to_string(corpus.path(&frame_name)).unwrap());
    let parsed: T = codec::from_frame(&stored_frame).expect("stored frame decodes");
    assert_eq!(
        codec::to_frame(&parsed),
        stored_frame,
        "{frame_name}: frame does not re-encode to itself"
    );
}

/// Wire-byte fixtures: the exact compact-JSON and binary-frame bytes of
/// the d1 first-round `SessionRequest` and its `SessionReport`, of a
/// streaming binary `diagnose_batch` request and reply (served over
/// loopback), and of the fitted regulator `Network` and the regulator
/// `Circuit` (both carry `HashMap`s, whose pair order the encoders must
/// keep stable). Any change to either codec's bytes shows up here as a
/// reviewable diff.
#[test]
fn wire_fixtures_are_byte_stable() {
    use abbd::core::{Observation, SessionRequest};
    use abbd::server::{
        codec, BatchEntry, BatchHeader, Client, ModelRegistry, Server, ServerConfig,
    };

    let corpus = corpus();
    let engine = engine();
    let compiled = Arc::clone(engine.compiled());
    let cases = case_studies();
    let d1 = &cases[0];
    let mut mismatches: Vec<String> = Vec::new();

    // The d1 first decision round: controls plus the first (failing)
    // measurement, ranked by depth-2 lookahead under the reference
    // prices, with a deduction override and one tester timing.
    let mut observation = Observation::new();
    for (name, state) in d1.controls {
        observation.set(name, state);
    }
    let (first, state) = d1.observables[0];
    observation.set(first, state);
    observation.mark_failing(first);
    let mut request = SessionRequest::new(observation);
    request.strategy = Strategy::Lookahead { depth: 2 };
    request.cost = reference_cost_model();
    request.deduction = Some(*compiled.policy());
    request.timings = vec![(first.to_string(), 0.25)];
    let report = compiled.serve(&request).expect("d1 round serves");
    pin_wire(&corpus, "d1_request", &request, &mut mismatches);
    pin_wire(&corpus, "d1_report", &report, &mut mismatches);

    pin_wire(
        &corpus,
        "regulator_network",
        compiled.model().network(),
        &mut mismatches,
    );
    pin_wire(
        &corpus,
        "regulator_circuit",
        &regulator::rig().circuit,
        &mut mismatches,
    );

    // A streaming binary batch: the header frame, then one observation
    // frame per row — every case study, a duplicate row and a row naming
    // an unknown variable (an error entry).
    let mut rows: Vec<Observation> = cases.iter().map(|c| c.observation()).collect();
    rows.push(cases[0].observation());
    let mut unknown = Observation::new();
    unknown.set("no_such_variable", 0);
    rows.push(unknown);
    let mut body = Vec::new();
    codec::frame_into(&BatchHeader::default(), &mut body);
    for row in &rows {
        codec::frame_into(row, &mut body);
    }
    mismatches.extend(corpus.conform("wire_batch_request.frame.hex", &hex_lines(&body)));

    let registry = ModelRegistry::new()
        .insert("regulator", Arc::clone(&compiled))
        .freeze();
    let server = Server::start(
        registry,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let mut client = Client::connect(server.addr()).expect("client connects");
    let (status, reply) = client
        .post_binary("/v1/models/regulator/diagnose_batch", &body)
        .expect("batch posts");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&reply));
    server.shutdown();
    mismatches.extend(corpus.conform("wire_batch_reply.frame.hex", &hex_lines(&reply)));
    let mut pos = 0;
    let mut entries = Vec::new();
    while pos < reply.len() {
        let entry: BatchEntry = codec::decode_frame(&reply, &mut pos).expect("entry decodes");
        entries.push(entry);
    }
    assert_eq!(entries.len(), rows.len(), "one entry per row");
    assert!(entries.last().is_some_and(|e| e.error.is_some()));

    assert!(
        mismatches.is_empty(),
        "wire fixtures diverged:\n  {}\nIf the change is intentional, regenerate with \
         `ABBD_REGEN_GOLDEN=1 cargo test --test golden_traces` and review the diff.",
        mismatches.join("\n  ")
    );
}
