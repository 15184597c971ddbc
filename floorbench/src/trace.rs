//! In-memory span recording for the traced run.
//!
//! A span is one call into a layer's public function, timed from the
//! benchmark's side of the call. Spans are kept in memory and written
//! once, at exit, as tab-separated lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `core.rank`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The device the span belongs to.
    pub device: u64,
    /// The round within the device.
    pub round: u32,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer the span belongs to: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder with an explicit open-span stack for parent links.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, device: u64, round: u32) {
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            device,
            round,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span and returns its length in µs.
    pub fn end(&mut self) -> f64 {
        let now = self.now_ns();
        let id = self.open.pop().expect("end() matches a begin()");
        self.spans[id].end_ns = now;
        self.spans[id].duration_ns() as f64 / 1e3
    }

    /// Times `f` as one span and returns its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        device: u64,
        round: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        self.begin(name, device, round);
        let out = f();
        self.end();
        out
    }

    /// Every closed span's length in µs under `name`, in record order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns > 0)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Total self time per layer in ms: each span's length minus the part
    /// its direct children cover.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = span.duration_ns().saturating_sub(children);
            *out.entry(span.layer()).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Writes every span as `id name start_ns end_ns parent device round`.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\tdevice\tround")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.device, s.round
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.begin("client.device", 0, 0);
        t.span("core.rank", 0, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end();
        let by_layer = t.self_ms_by_layer();
        assert!(by_layer["core"] >= 2.0);
        assert!(by_layer["client"] < by_layer["core"]);
        assert_eq!(t.durations_us("core.rank").len(), 1);
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
