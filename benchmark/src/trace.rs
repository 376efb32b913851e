//! Outside-in span tracing: the benchmark's own code records a span around
//! each call it makes into a layer. Spans live in memory and are written
//! to `trace-<workload>.jsonl` when the workload ends. End-to-end metrics
//! are measured with tracing off; a `--trace 1` run pays for the spans and
//! reports the per-layer numbers.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
pub struct Span {
    /// Layer boundary crossed, e.g. `server.commit`.
    pub name: &'static str,
    /// Start, ns since the run's origin.
    pub start_ns: u64,
    /// End, ns since the run's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Identifier shared by the spans of one transaction (0 = none).
    pub txn: u64,
}

/// Handle to an open span (`None` when tracing is off).
pub type SpanId = Option<u32>;

/// A per-thread span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder measuring from `origin`; records nothing when `on` is
    /// false.
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer { on, origin, spans: Vec::new() }
    }

    /// A recorder for another thread of the same run.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.on, self.origin)
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span.
    pub fn open(&mut self, name: &'static str, parent: SpanId, txn: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, txn });
        Some((self.spans.len() - 1) as u32)
    }

    /// Closes a span.
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Renames an open span (the callee decides what the call was).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        if let Some(i) = id {
            self.spans[i as usize].name = name;
        }
    }

    /// Runs `f` inside a span.
    pub fn within<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        txn: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, txn);
        let out = f();
        self.close(id);
        out
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Nanoseconds since the run's origin.
    pub fn elapsed_ns(&self) -> f64 {
        self.origin.elapsed().as_nanos() as f64
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1000.0)
            .collect()
    }

    /// Per span name: `(calls, total µs, self µs)`, where self time is the
    /// span's duration minus the part its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total as f64 / 1000.0;
            e.2 += total.saturating_sub(children) as f64 / 1000.0;
        }
        out
    }

    /// Writes one JSON object per span: `{name, start_ns, end_ns, parent, txn}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"txn\": {}}}",
                s.name, s.start_ns, s.end_ns, parent, s.txn
            )?;
        }
        w.flush()
    }
}

/// The cost of recording one span (ns), measured on this machine: the
/// traced run multiplies it by its span count to price its own overhead.
pub fn ns_per_span() -> f64 {
    const N: u32 = 200_000;
    let mut t = Tracer::new(true, Instant::now());
    let start = Instant::now();
    for i in 0..N {
        let id = t.open("calibrate", None, u64::from(i));
        t.close(id);
    }
    let ns = start.elapsed().as_nanos() as f64 / f64::from(N);
    std::hint::black_box(t.len());
    ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_absorb_rebases_parents() {
        let mut t = Tracer::new(true, Instant::now());
        let txn = t.open("txn", None, 1);
        let c = t.open("commit", txn, 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(c);
        t.close(txn);
        let mut other = t.fork();
        let p = other.open("txn", None, 2);
        let k = other.open("commit", p, 2);
        other.close(k);
        other.close(p);
        t.absorb(other);
        assert_eq!(t.spans[3].parent, Some(2));
        let st = t.self_times();
        let (calls, total, own) = st["txn"];
        assert_eq!(calls, 2);
        assert!(own < total - 1500.0, "self {own} total {total}");
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.open("x", None, 0);
        t.close(id);
        assert!(t.is_empty());
    }
}
