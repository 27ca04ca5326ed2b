//! Benchmark-side span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around its calls
//! into each layer's public functions. Each span holds a name, start and
//! end, its parent and the job or request id it belongs to. Spans stay
//! in memory; [`Trace::write_chrome`] writes them once, at the end of the
//! run, in Chrome Trace Event format (Perfetto and `chrome://tracing`
//! open it). A span's self time is its duration minus the part covered
//! by its children; children of one span never overlap, because one
//! recorder belongs to one thread.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans a run keeps at most; later ones are counted but not stored.
const MAX_SPANS: usize = 400_000;

#[derive(Clone, Debug)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    id: u64,
    tid: u32,
}

/// One thread's span recorder.
pub struct Recorder {
    origin: Instant,
    tid: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
    dropped: usize,
}

impl Recorder {
    /// A recorder on track `tid`; timestamps count from `origin`, which
    /// every recorder of one run shares.
    pub fn new(origin: Instant, tid: u32) -> Recorder {
        Recorder { origin, tid, spans: Vec::new(), stack: Vec::new(), dropped: 0 }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Time `f` as a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &str, id: u64, f: impl FnOnce() -> T) -> T {
        let idx = self.open(name, id, Instant::now());
        let out = f();
        self.close(idx, Instant::now());
        out
    }

    /// Open a span at `start`; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &str, id: u64, start: Instant) -> Option<usize> {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            id,
            tid: self.tid,
        });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        Some(idx)
    }

    /// Close the span `open` returned.
    pub fn close(&mut self, idx: Option<usize>, end: Instant) {
        let Some(idx) = idx else { return };
        let end_ns = self.ns(end);
        self.spans[idx].end_ns = end_ns;
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(idx), "spans close in LIFO order");
    }

    /// Record an already-measured span from `start` to `end`.
    pub fn complete(&mut self, name: &str, id: u64, start: Instant, end: Instant) {
        let idx = self.open(name, id, start);
        self.close(idx, end);
    }
}

/// Every recorder of a run, merged.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
    dropped: usize,
}

impl Trace {
    /// Fold one recorder in.
    pub fn absorb(&mut self, rec: Recorder) {
        self.merge(Trace { spans: rec.spans, dropped: rec.dropped });
    }

    /// Fold another trace in.
    pub fn merge(&mut self, other: Trace) {
        let base = self.spans.len();
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Summed self time in ns of the spans sharing each name.
    pub fn self_ns(&self) -> BTreeMap<String, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name.clone()).or_default() +=
                (s.end_ns - s.start_ns).saturating_sub(child);
        }
        out
    }

    /// Write the spans as a Chrome Trace Event file. `meta` lands in the
    /// file's `metadata` object (run parameters, host facts).
    pub fn write_chrome(
        &self,
        path: &std::path::Path,
        threads: &[(u32, &str)],
        meta: &[(&str, String)],
    ) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 120 + 1024);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"metadata\":{");
        for (i, (k, v)) in meta.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}\"{}\":\"{}\"", escape(k), escape(v));
        }
        let _ = write!(out, ",\"dropped_spans\":\"{}\"}},\"traceEvents\":[", self.dropped);
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"pmorph e2ebench\"}}",
        );
        for (tid, name) in threads {
            let _ = write!(
                out,
                ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape(name)
            );
        }
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by_key(|&i| (self.spans[i].start_ns, std::cmp::Reverse(self.spans[i].end_ns)));
        for i in order {
            let s = &self.spans[i];
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"span\":{i},\"parent\":{parent}}}}}",
                escape(&s.name),
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let origin = Instant::now();
        let mut rec = Recorder::new(origin, 1);
        let t = |ms: u64| origin + Duration::from_millis(ms);
        let outer = rec.open("outer", 7, t(0));
        rec.complete("inner", 7, t(1), t(4));
        rec.complete("inner", 7, t(5), t(6));
        rec.close(outer, t(10));
        let mut trace = Trace::default();
        trace.absorb(rec);
        let st = trace.self_ns();
        assert_eq!(st["outer"], 6_000_000);
        assert_eq!(st["inner"], 4_000_000);
    }

    #[test]
    fn merged_recorders_keep_their_own_parents() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin, 1);
        a.span("a", 1, || ());
        let mut b = Recorder::new(origin, 2);
        let idx = b.open("b", 2, origin);
        b.complete("b.child", 2, origin, origin + Duration::from_millis(2));
        b.close(idx, origin + Duration::from_millis(3));
        let mut trace = Trace::default();
        trace.absorb(a);
        trace.absorb(b);
        assert_eq!(trace.self_ns()["b"], 1_000_000);
    }
}
