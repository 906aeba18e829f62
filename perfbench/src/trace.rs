//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer (spans inside the program are a separate, later mechanism).
//! Every span keeps its name, start, end, parent and request id in
//! memory; the whole set is written once, at exit. A span's self time
//! is its duration minus the union of its children's intervals — the
//! union, because children recorded on different worker threads can
//! overlap — so busy time summed over threads can exceed wall time
//! while a parent's self time never double-subtracts.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the [`Clock`] epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u32,
    /// The span that caused this one (possibly on another thread).
    pub parent: Option<u32>,
    /// Layer name, e.g. `opt.unroll`.
    pub layer: &'static str,
    /// Request id shared by every span of one request (a serve batch,
    /// a labeled benchmark); 0 where there is no request.
    pub request: u64,
    /// Small per-process thread number.
    pub thread: u32,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Shared epoch and id source; hand out one [`Recorder`] per thread or
/// per work item.
#[derive(Debug)]
pub struct Clock {
    epoch: Instant,
    next_id: AtomicU32,
    recording: bool,
}

impl Default for Clock {
    fn default() -> Self {
        Clock {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            recording: true,
        }
    }
}

impl Clock {
    /// A clock whose recorders record nothing, so the same calls run
    /// untraced: the baseline of the tracing overhead.
    pub fn off() -> Self {
        Clock {
            recording: false,
            ..Clock::default()
        }
    }

    /// A recorder whose outermost spans hang under `parent`.
    pub fn recorder(&self, parent: Option<u32>) -> Recorder<'_> {
        Recorder {
            clock: self,
            parent,
            thread: thread_number(),
            request: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Records spans for one thread of work. Nesting follows the closure
/// structure of [`Recorder::span`].
#[derive(Debug)]
pub struct Recorder<'c> {
    clock: &'c Clock,
    parent: Option<u32>,
    thread: u32,
    request: u64,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Recorder<'_> {
    /// Tags the spans recorded from now on with request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    /// The innermost open span, to parent work handed to other threads.
    pub fn current(&self) -> Option<u32> {
        self.stack.last().copied().or(self.parent)
    }

    /// Runs `f` inside a span named `layer`.
    pub fn span<R>(&mut self, layer: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.clock.recording {
            return f(self);
        }
        let id = self.clock.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current();
        let start_ns = self.clock.now_ns();
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        let end_ns = self.clock.now_ns();
        self.spans.push(Span {
            id,
            parent,
            layer,
            request: self.request,
            thread: self.thread,
            start_ns,
            end_ns,
        });
        r
    }

    /// The spans recorded so far.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

fn thread_number() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static NUMBER: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    NUMBER.with(|n| *n)
}

/// Calls and self time of one layer, summed over threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerStat {
    /// Spans recorded.
    pub calls: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

impl LayerStat {
    /// Summed self time in milliseconds.
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

/// Per-layer totals of a span set, plus how much of the roots' time the
/// layers below them account for.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Analysis {
    /// Every span name (roots included) with its totals.
    pub layers: BTreeMap<&'static str, LayerStat>,
    /// Summed duration of the root spans (spans without a parent), ns.
    pub root_ns: u64,
    /// Summed self time of the root spans: time no layer accounts for.
    pub root_self_ns: u64,
}

impl Analysis {
    /// Totals for `layer` (zero when it never ran).
    pub fn layer(&self, layer: &str) -> LayerStat {
        self.layers.get(layer).copied().unwrap_or_default()
    }

    /// Share of the roots' time that child layers account for.
    pub fn coverage(&self) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        1.0 - self.root_self_ns as f64 / self.root_ns as f64
    }
}

/// Self time of every span, in input order: duration minus the union
/// of its children's intervals clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut open: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                open = match open {
                    Some((oa, ob)) if a <= ob => Some((oa, ob.max(b))),
                    Some((oa, ob)) => {
                        covered += ob - oa;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((oa, ob)) = open {
                covered += ob - oa;
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Sums calls and self time per layer.
pub fn analyze(spans: &[Span]) -> Analysis {
    let selfs = self_times(spans);
    let mut out = Analysis::default();
    for (s, &own) in spans.iter().zip(&selfs) {
        let stat = out.layers.entry(s.layer).or_default();
        stat.calls += 1;
        stat.self_ns += own;
        if s.parent.is_none() {
            out.root_ns += s.duration_ns();
            out.root_self_ns += own;
        }
    }
    out
}

/// Writes the spans as JSON lines, once, at the end of the run.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            r#"{{"id":{},"parent":{parent},"layer":"{}","request":{},"thread":{},"start_ns":{},"end_ns":{}}}"#,
            s.id, s.layer, s.request, s.thread, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            request: 0,
            thread: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_nested_and_overlapping_children() {
        let spans = vec![
            span(1, None, "root", 0, 100),
            // Two children overlapping in 30..40, as on two threads.
            span(2, Some(1), "a", 10, 40),
            span(3, Some(1), "b", 30, 60),
            // A grandchild nested in `a`.
            span(4, Some(2), "c", 15, 20),
            // A child running past its parent's end is clipped.
            span(5, Some(1), "d", 90, 120),
        ];
        let selfs = self_times(&spans);
        // root: 100 − |[10,60] ∪ [90,100]| = 100 − 60.
        assert_eq!(selfs, vec![40, 25, 30, 5, 30]);

        let a = analyze(&spans);
        assert_eq!(a.root_ns, 100);
        assert_eq!(a.root_self_ns, 40);
        assert!((a.coverage() - 0.6).abs() < 1e-12);
        assert_eq!(
            a.layer("a"),
            LayerStat {
                calls: 1,
                self_ns: 25
            }
        );
        assert_eq!(a.layer("missing"), LayerStat::default());
    }

    #[test]
    fn children_covering_each_other_exactly_count_once() {
        let spans = vec![
            span(1, None, "root", 0, 50),
            span(2, Some(1), "x", 0, 50),
            span(3, Some(1), "x", 0, 50),
        ];
        assert_eq!(self_times(&spans), vec![0, 50, 50]);
        // Busy time is summed over threads: two full-length children.
        assert_eq!(analyze(&spans).layer("x").self_ns, 100);
    }

    #[test]
    fn recorder_nests_spans_and_carries_request_ids() {
        let clock = Clock::default();
        let mut rec = clock.recorder(None);
        rec.set_request(7);
        let outer = rec.span("outer", |r| {
            let parent = r.current();
            r.span("inner", |_| ());
            parent
        });
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer_span) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, outer);
        assert_eq!(outer_span.parent, None);
        assert!(outer_span.start_ns <= inner.start_ns && inner.end_ns <= outer_span.end_ns);
        assert!(spans.iter().all(|s| s.request == 7));

        let off = Clock::off();
        let mut rec = off.recorder(None);
        assert_eq!(rec.span("outer", |r| r.span("inner", |_| 3)), 3);
        assert!(rec.into_spans().is_empty());
    }
}
