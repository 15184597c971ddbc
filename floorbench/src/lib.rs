//! The tester-floor benchmark: three workloads driven through the
//! repository's public API from one process (see `README.md` for why each
//! workload exists and which metric each layer should move).
//!
//! Every workload follows the same shape:
//!
//! 1. **set-up**, built [`RunConfig::setup_builds`] times from scratch
//!    ([`Setup`]; the median is `setup_s`): the first build is kept, the
//!    others are spread over the timed passes;
//! 2. **timed passes** over a fixed-count fleet in fixed-count chunks
//!    ([`drive`]): the first pass always completes, so deterministic
//!    figures (isolation accuracy, tests per device, counts) depend on the
//!    seed only, and further passes repeat the fleet while `--seconds`
//!    last; every chunk and every unit of latency is scored by its
//!    fastest pass;
//! 3. **correctness checks**, any failure of which makes the run fail.
//!
//! With `--trace 1` the workload first runs untraced for half the time,
//! then traced for the other half: the traced half records spans around
//! every call into a layer, replays wire requests in-process to split
//! them into layers, and reports the per-layer metrics.

pub mod grid_loop;
pub mod serve_rounds;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Benchmark result type: errors are human-readable and fatal.
pub type Result<T> = std::result::Result<T, String>;

/// Converts any displayable error into the benchmark's error type.
pub fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// The workloads, by their command-line names.
pub const WORKLOADS: [&str; 2] = ["serve_rounds", "grid_closed_loop"];

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("devices_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("isolation_accuracy", "share"),
    ("tests_per_device", "count"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with units. A metric
/// whose layer the workload does not exercise reads `0` and is printed
/// as `n/a`.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("server.transport_us_p50", "us"),
    ("codec.request_decode_us_p50", "us"),
    ("codec.report_encode_us_p50", "us"),
    ("codec.report_bytes_mean", "bytes"),
    ("store.checkout_us_p50", "us"),
    ("core.absorb_us_p50", "us"),
    ("core.diagnose_us_p50", "us"),
    ("core.rank_us_p50", "us"),
    ("core.report_us_p50", "us"),
    ("bbn.propagate_us_p50", "us"),
    ("core.deduce_ms_p50", "ms"),
    ("ate.measure_ms_p50", "ms"),
    ("core.rounds_per_device", "count"),
    ("core.candidates_per_decision", "count"),
    ("bbn.hypotheticals_per_decision", "count"),
    ("core.suspects_per_row", "count"),
    ("ate.suite_switches_per_device", "count"),
    ("server.worker_compiles", "count"),
    ("server.errors", "count"),
    ("server.queue_full_rejections", "count"),
    ("designs.fit_ms", "ms"),
    ("scenarios.sample_ms", "ms"),
    ("scenarios.mc_fit_ms", "ms"),
    ("core.compile_ms", "ms"),
    ("server.start_ms", "ms"),
];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed: the only source of the generated inputs.
    pub seed: u64,
    /// Measurement time in seconds (the first pass always completes).
    pub seconds: f64,
    /// Fleet size in devices.
    pub fleet: usize,
    /// Devices per timed chunk.
    pub chunk: usize,
    /// From-scratch set-up builds; `setup_s` is their median.
    pub setup_builds: usize,
    /// Server worker threads (wire workloads).
    pub workers: usize,
}

impl RunConfig {
    /// The committed settings of `workload`.
    pub fn standard(workload: &str, seed: u64, seconds: f64) -> Result<Self> {
        let (fleet, chunk) = match workload {
            "serve_rounds" => (serve_rounds::FLEET, serve_rounds::CHUNK),
            "grid_closed_loop" => (grid_loop::FLEET, grid_loop::CHUNK),
            other => return Err(format!("unknown workload `{other}`")),
        };
        Ok(RunConfig {
            seed,
            seconds,
            fleet,
            chunk,
            setup_builds: 21,
            workers: nproc(),
        })
    }
}

/// A named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// One correctness check's verdict.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Evidence for the verdict.
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// End-to-end metrics (untraced measurement).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced measurement only).
    pub per_layer: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (non-2xx, per-item error, `Err`, failed check).
    pub failed: u64,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
    /// Seed-determined figures that must repeat exactly for one seed.
    pub deterministic: Vec<(&'static str, f64)>,
    /// Fingerprint of the generated fleet (labels and inputs).
    pub fleet_digest: u64,
}

impl Report {
    /// Records a check; a failed check also counts as a failed operation.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// `true` when every check held and every metric is finite.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
            && self
                .e2e
                .iter()
                .chain(&self.per_layer)
                .all(|m| m.value.is_finite())
    }

    /// Adds a human-readable line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// The value of a recorded metric (either kind).
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.e2e
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Number of CPUs the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A 64-bit mix (SplitMix64 finaliser) for deriving per-device seeds.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over `bytes`, chained from `state`.
pub fn fnv(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// FNV-1a offset basis.
pub const FNV_START: u64 = 0xCBF2_9CE4_8422_2325;

/// From-scratch set-up builds. The first build is kept for the run; the
/// others are throwaway builds spread over the timed passes, so that
/// `setup_s` samples the host at the same moments as the timed chunks
/// (this host's speed drifts by tens of percent within a minute).
pub struct Setup {
    builds: usize,
    spacing: f64,
    last: Instant,
    times: Vec<f64>,
    compiles: Vec<u64>,
}

impl Setup {
    /// `builds` builds in all, spread over `seconds` of timed passes.
    pub fn new(builds: usize, seconds: f64) -> Self {
        let builds = builds.max(1);
        Setup {
            builds,
            spacing: seconds / builds as f64,
            last: Instant::now(),
            times: Vec::with_capacity(builds),
            compiles: Vec::with_capacity(builds),
        }
    }

    /// Runs one timed build and returns what it built.
    ///
    /// # Errors
    ///
    /// Whatever the build returns.
    pub fn build<T>(&mut self, build: impl FnOnce() -> Result<T>) -> Result<T> {
        let before = abbd::bbn::jointree_compile_count();
        let start = Instant::now();
        let built = build()?;
        self.times.push(start.elapsed().as_secs_f64());
        self.compiles
            .push(abbd::bbn::jointree_compile_count() - before);
        self.last = Instant::now();
        Ok(built)
    }

    /// Between chunks: one throwaway build once the spacing has passed
    /// (dropped, its server included, outside the timed chunks).
    ///
    /// # Errors
    ///
    /// Whatever the build returns.
    pub fn between<T>(&mut self, build: impl FnOnce() -> Result<T>) -> Result<()> {
        if self.times.len() < self.builds && self.last.elapsed().as_secs_f64() >= self.spacing {
            self.build(build)?;
        }
        Ok(())
    }

    /// Runs the builds still missing, checks that every build compiled
    /// the same, non-zero number of junction trees on this thread (none
    /// reused a compile of an earlier build), and returns the build times
    /// in seconds.
    ///
    /// # Errors
    ///
    /// Whatever a build returns.
    pub fn finish<T>(
        mut self,
        report: &mut Report,
        mut build: impl FnMut() -> Result<T>,
    ) -> Result<Vec<f64>> {
        while self.times.len() < self.builds {
            self.build(&mut build)?;
        }
        let c = &self.compiles;
        report.check(
            "setup builds from scratch",
            c.iter().all(|&n| n == c[0] && n > 0),
            format!("junction-tree compiles per build: {c:?}"),
        );
        Ok(self.times)
    }
}

/// Latency samples by unit of work: a device, or one round of one device.
/// Later passes repeat every unit of the first.
#[derive(Debug, Default)]
pub struct Latencies {
    /// Every sample, in ms.
    pub all_ms: Vec<f64>,
    /// The fastest sample of each unit over the passes that ran it.
    best_ms: BTreeMap<usize, f64>,
}

impl Latencies {
    /// Records one sample of `unit`.
    pub fn record(&mut self, unit: usize, ms: f64) {
        self.all_ms.push(ms);
        let best = self.best_ms.entry(unit).or_insert(ms);
        *best = best.min(ms);
    }

    /// The fastest sample of every unit, in unit order.
    pub fn best_ms(&self) -> Vec<f64> {
        self.best_ms.values().copied().collect()
    }
}

/// What [`drive`] timed: the fastest pass of every fixed chunk.
#[derive(Debug, Default)]
pub struct Chunks {
    /// Fastest wall time of each chunk over the passes, in seconds.
    pub best_s: Vec<f64>,
    /// Units in each chunk.
    pub units: Vec<usize>,
    /// Every chunk execution's rate in units per second.
    pub rates: Vec<f64>,
    /// Passes started over the fleet.
    pub passes: usize,
}

impl Chunks {
    /// Units per second over the whole fleet with every chunk at its
    /// fastest pass.
    pub fn rate(&self) -> f64 {
        self.units.iter().sum::<usize>() as f64 / self.best_s.iter().sum::<f64>()
    }
}

/// Drives a fleet of `fleet` units in chunks of `chunk`: the first pass
/// always completes, further passes run while `seconds` remain (checked
/// at chunk boundaries). `unit(index, first_pass)` does one unit of work;
/// `between()` runs untimed after every chunk.
///
/// This host slows down by tens of percent for seconds to minutes at a
/// time, and only ever slows down: so each chunk, and each unit, is
/// scored by its fastest pass.
pub fn drive(
    fleet: usize,
    chunk: usize,
    seconds: f64,
    mut unit: impl FnMut(usize, bool) -> Result<()>,
    mut between: impl FnMut() -> Result<()>,
) -> Result<Chunks> {
    let chunk = chunk.clamp(1, fleet.max(1));
    let start = Instant::now();
    let mut out = Chunks::default();
    for pass in 0.. {
        out.passes = pass + 1;
        for (c, lo) in (0..fleet).step_by(chunk).enumerate() {
            if pass > 0 && start.elapsed().as_secs_f64() >= seconds {
                return Ok(out);
            }
            let hi = (lo + chunk).min(fleet);
            let t = Instant::now();
            for i in lo..hi {
                unit(i, pass == 0)?;
            }
            let took = t.elapsed().as_secs_f64();
            out.rates.push((hi - lo) as f64 / took);
            if pass == 0 {
                out.best_s.push(took);
                out.units.push(hi - lo);
            } else {
                out.best_s[c] = out.best_s[c].min(took);
            }
            between()?;
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Ok(out)
}

/// Builds the common end-to-end metric set; `unit` names the unit of
/// latency.
pub fn end_to_end(
    report: &mut Report,
    setup_times: &[f64],
    chunks: &Chunks,
    unit: &str,
    latencies: &Latencies,
    isolation_accuracy: f64,
    tests_per_device: f64,
) {
    let setup = stats::median(setup_times);
    report.line(format!(
        "setup: median {setup:.4} s over {} from-scratch builds {:?}",
        setup_times.len(),
        setup_times
            .iter()
            .map(|t| format!("{t:.4}"))
            .collect::<Vec<_>>()
    ));
    let rate = chunks.rate();
    let r = &chunks.rates;
    report.line(format!(
        "throughput: {rate:.3} devices/s with each of {} fixed chunks at its fastest of {} passes; \
         single chunk runs {:.3} / {:.3} / {:.3} devices/s (p10 / p50 / p90 of {})",
        chunks.best_s.len(),
        chunks.passes,
        stats::percentile(r, 10),
        stats::percentile(r, 50),
        stats::percentile(r, 90),
        r.len(),
    ));
    let best = latencies.best_ms();
    let p = stats::tail_percentile(best.len());
    let p50 = stats::median(&best);
    let tail = stats::percentile(&best, p);
    report.line(format!(
        "latency per {unit}, fastest pass of each of {} {unit}s: p50 {p50:.4} ms, tail = p{p} {tail:.4} ms ({} beyond p{p}); \
         all {} samples: p50 {:.4} ms, p{p} {:.4} ms",
        best.len(),
        stats::beyond(best.len(), p),
        latencies.all_ms.len(),
        stats::median(&latencies.all_ms),
        stats::percentile(&latencies.all_ms, p),
    ));
    let values = [
        setup,
        rate,
        p50,
        tail,
        isolation_accuracy,
        tests_per_device,
        peak_rss_mb(),
    ];
    report.e2e = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
}

/// Fills `report.per_layer` from `measured`, in [`PER_LAYER`] order;
/// metrics the workload did not measure read `0`.
pub fn per_layer(report: &mut Report, measured: &[(&'static str, f64)]) {
    report.per_layer = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: measured
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v),
            unit,
        })
        .collect();
    for (name, _) in measured {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "unknown per-layer metric {name}"
        );
    }
    let lines: Vec<String> = PER_LAYER
        .iter()
        .map(
            |&(name, unit)| match measured.iter().find(|(n, _)| *n == name) {
                Some((_, v)) => format!("  {name:<32} {v:>14.4} {unit}"),
                None => format!("  {name:<32} {:>14} {unit}", "n/a"),
            },
        )
        .collect();
    report.line("per-layer metrics:");
    report.lines.extend(lines);
}

/// Prints the tracing overhead: the traced half's end-to-end figures
/// against the untraced half's.
pub fn overhead_lines(report: &mut Report, untraced: &[Metric], traced: &[Metric]) {
    report.line(
        "tracing overhead (traced half vs untraced half of this run; the traced half's \
         devices_per_s also pays for the in-process replays, its latencies do not):",
    );
    for name in ["devices_per_s", "latency_ms_p50", "latency_ms_tail"] {
        let find = |set: &[Metric]| set.iter().find(|m| m.name == name).map(|m| m.value);
        if let (Some(u), Some(t)) = (find(untraced), find(traced)) {
            report.line(format!(
                "  {name:<18} untraced {u:>12.4}  traced {t:>12.4}  ({:+.1}%)",
                (t / u - 1.0) * 100.0
            ));
        }
    }
}

/// Renders the result line, the last line of standard output.
pub fn result_json(report: &Report, trace: bool) -> String {
    let metrics = if trace {
        &report.per_layer
    } else {
        &report.e2e
    };
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct(),
        report.attempted.max(1),
        report.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Runs one workload under `config`.
///
/// # Errors
///
/// Fatal set-up or transport failures.
pub fn run(workload: &str, config: &RunConfig, trace: bool) -> Result<Report> {
    match workload {
        "serve_rounds" => serve_rounds::run(config, trace),
        "grid_closed_loop" => grid_loop::run(config, trace),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Prints each layer's total self time over the traced half.
pub fn self_time_lines(report: &mut Report, tracer: &trace::Tracer) {
    report.line("self time per layer over the traced half (span minus its children):");
    for (layer, ms) in tracer.self_ms_by_layer() {
        report.line(format!("  {layer:<10} {ms:>12.3} ms"));
    }
}

/// Writes the traced half's spans next to the benchmark's sources, once,
/// and says where.
pub fn write_spans(report: &mut Report, tracer: &trace::Tracer, workload: &str, seed: u64) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-seed{seed}.tsv"));
    match tracer.write(&path) {
        Ok(()) => report.line(format!(
            "spans: {} written to {}",
            tracer.len(),
            path.display()
        )),
        Err(e) => report.line(format!("spans: could not write {}: {e}", path.display())),
    }
}
