//! In-memory span recorder for the traced benchmark run.
//!
//! A span is a named host-time interval with an optional parent span.
//! Spans are kept in memory and only analysed (or written out) after the
//! workload finishes, so recording costs one short mutex hold at open and
//! one at close. A disabled tracer records nothing: `span` then calls its
//! closure directly, which is what the untraced (end-to-end) runs use.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Handle of a recorded span (an index into the tracer's span list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(usize);

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified span name, e.g. `snn.train`.
    pub name: &'static str,
    /// The span this one ran inside, if any (top-level spans have none).
    pub parent: Option<SpanId>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Small per-process thread number of the thread that ran the span.
    pub thread: u64,
    /// Counters recorded at the span's boundary (`annotate`).
    pub attrs: Vec<(&'static str, u64)>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// A recorded counter, or 0 when the span has none of that name.
    pub fn attr(&self, key: &str) -> u64 {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |&(_, v)| v)
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// The span recorder. `Sync`, so grid worker threads record shard spans
/// into the same list as the main thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only while enabled.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled: AtomicBool::new(enabled),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Switches recording on or off for spans opened from now on.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name` under `parent`. `f` receives
    /// the new span's id (`None` when recording is off) to hand to its
    /// children, which may run on other threads.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled() {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans.push(Span {
                name,
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
                thread: THREAD.with(|t| *t),
                attrs: Vec::new(),
            });
            SpanId(spans.len() - 1)
        };
        let out = f(Some(id));
        let end = self.now_ns();
        self.spans.lock().expect("span list poisoned")[id.0].end_ns = end;
        out
    }

    /// Attaches a counter to a recorded span (no-op for `None`).
    pub fn annotate(&self, id: Option<SpanId>, key: &'static str, value: u64) {
        if let Some(id) = id {
            self.spans.lock().expect("span list poisoned")[id.0]
                .attrs
                .push((key, value));
        }
    }

    /// Everything recorded so far.
    pub fn snapshot(&self) -> SpanTree {
        SpanTree::new(self.spans.lock().expect("span list poisoned").clone())
    }
}

/// Recorded spans with a parent → children index, for the analysis done
/// after the run.
#[derive(Debug, Clone)]
pub struct SpanTree {
    spans: Vec<Span>,
    children: Vec<Vec<usize>>,
}

impl SpanTree {
    fn new(spans: Vec<Span>) -> Self {
        let mut children = vec![Vec::new(); spans.len()];
        for (i, span) in spans.iter().enumerate() {
            if let Some(SpanId(p)) = span.parent {
                children[p].push(i);
            }
        }
        Self { spans, children }
    }

    /// The span behind an id.
    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id.0]
    }

    /// All spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Top-level spans (no parent), in opening order.
    pub fn roots(&self) -> Vec<SpanId> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].parent.is_none())
            .map(SpanId)
            .collect()
    }

    /// Direct children of `id`, in opening order.
    pub fn children(&self, id: SpanId) -> Vec<SpanId> {
        self.children[id.0].iter().copied().map(SpanId).collect()
    }

    /// Every span under `id` (not `id` itself) named `name`, in opening
    /// order.
    pub fn descendants(&self, id: SpanId, name: &str) -> Vec<SpanId> {
        let mut out = Vec::new();
        let mut stack = vec![id.0];
        while let Some(i) = stack.pop() {
            for &c in &self.children[i] {
                if self.spans[c].name == name {
                    out.push(SpanId(c));
                }
                stack.push(c);
            }
        }
        out.sort_unstable_by_key(|s| s.0);
        out
    }

    /// Summed duration (s) of the spans under `id` named `name`.
    pub fn total_secs(&self, id: SpanId, name: &str) -> f64 {
        self.descendants(id, name)
            .iter()
            .map(|&s| self.get(s).secs())
            .sum()
    }

    /// Self time (s): the span's duration minus the part of its interval
    /// that the union of its direct children covers. Children running in
    /// parallel on several threads count once where they overlap.
    pub fn self_secs(&self, id: SpanId) -> f64 {
        let span = self.get(id);
        let mut covered: Vec<(u64, u64)> = self.children[id.0]
            .iter()
            .map(|&c| {
                let child = &self.spans[c];
                (
                    child.start_ns.max(span.start_ns),
                    child.end_ns.min(span.end_ns),
                )
            })
            .filter(|(s, e)| e > s)
            .collect();
        covered.sort_unstable();
        let mut union = 0;
        let mut cursor = span.start_ns;
        for (s, e) in covered {
            let s = s.max(cursor);
            if e > s {
                union += e - s;
                cursor = e;
            }
        }
        (span.end_ns - span.start_ns - union) as f64 * 1e-9
    }

    /// Self time summed per span name over the whole tree, largest
    /// first, as `(name, spans, seconds)`.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, usize, f64)> {
        let mut by_name: std::collections::BTreeMap<&'static str, (usize, f64)> =
            std::collections::BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let entry = by_name.entry(span.name).or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 += self.self_secs(SpanId(i));
        }
        let mut rows: Vec<_> = by_name.into_iter().map(|(n, (c, s))| (n, c, s)).collect();
        rows.sort_by(|a, b| b.2.total_cmp(&a.2));
        rows
    }

    /// The spans as a JSON array (one object per span), for the trace
    /// file written at the end of a traced run.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |SpanId(p)| p.to_string());
            let attrs: Vec<String> = span
                .attrs
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\
                 \"thread\":{},\"attrs\":{{{}}}}}{}\n",
                span.name,
                span.start_ns,
                span.end_ns,
                span.thread,
                attrs.join(","),
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent: parent.map(SpanId),
            start_ns: start,
            end_ns: end,
            thread: 0,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100; children 10..40 and 30..60 overlap (union 50),
        // and 90..120 is clipped to the parent's end (10 more).
        let tree = SpanTree::new(vec![
            span("p", None, 0, 100),
            span("c", Some(0), 10, 40),
            span("c", Some(0), 30, 60),
            span("c", Some(0), 90, 120),
        ]);
        let self_ns = tree.self_secs(SpanId(0)) * 1e9;
        assert!((self_ns - 40.0).abs() < 1e-6, "{self_ns}");
        assert_eq!(tree.descendants(SpanId(0), "c").len(), 3);
        assert_eq!(tree.roots(), vec![SpanId(0)]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let got = tracer.span("x", None, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(got, 7);
        assert!(tracer.snapshot().spans().is_empty());
        tracer.set_enabled(true);
        tracer.span("x", None, |id| tracer.annotate(id, "n", 3));
        let tree = tracer.snapshot();
        assert_eq!(tree.spans().len(), 1);
        assert_eq!(tree.spans()[0].attr("n"), 3);
    }
}
