//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, an id (the slice, checkpoint generation or cell it
//! covers), a parent and a start and end in nanoseconds since the trace
//! began. Spans are appended to a `Vec` while the run goes and only
//! summarised once it has ended. A span's self time is its duration
//! minus the union of its children's intervals, so children that overlap
//! because they ran on different workers are not subtracted twice.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span within its [`SpanLog`].
pub type SpanRef = usize;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call the span covers, e.g. `sim.hierarchy.arrival_slice`.
    pub name: &'static str,
    /// Slice, checkpoint generation or cell index the call served.
    pub id: u64,
    /// Enclosing span, `None` for a root.
    pub parent: Option<SpanRef>,
    /// Start, ns since the log's epoch.
    pub start: u64,
    /// End, ns since the log's epoch.
    pub end: u64,
}

/// An append-only span log sharing one epoch.
#[derive(Debug, Clone)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        SpanLog::with_epoch(Instant::now())
    }

    /// An empty log on a shared clock (one per worker thread, merged
    /// afterwards with [`SpanLog::adopt`]).
    #[must_use]
    pub fn with_epoch(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    /// The log's clock origin.
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span ending at `start` (closed later by [`SpanLog::close`]).
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<SpanRef>) -> SpanRef {
        let start = self.now();
        self.spans.push(Span {
            name,
            id,
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    /// Closes an open span at the current instant.
    pub fn close(&mut self, span: SpanRef) {
        self.spans[span].end = self.now();
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<SpanRef>,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, id, parent);
        let out = f();
        self.close(span);
        out
    }

    /// Appends a finished span directly (tests and merged worker logs).
    pub fn push(&mut self, span: Span) -> SpanRef {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Moves every span of a worker's log (same epoch) into this one,
    /// re-rooting the worker's roots under `parent`.
    pub fn adopt(&mut self, worker: SpanLog, parent: Option<SpanRef>) {
        let base = self.spans.len();
        for mut span in worker.spans {
            span.parent = match span.parent {
                Some(p) => Some(base + p),
                None => parent,
            };
            self.spans.push(span);
        }
    }

    /// All spans, in the order they were opened.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of one span, in ns.
    #[must_use]
    pub fn duration(&self, span: SpanRef) -> u64 {
        let s = &self.spans[span];
        s.end - s.start
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals (clipped to the span).
    #[must_use]
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                let covered = union_length(&mut kids, span.start, span.end);
                (span.end - span.start).saturating_sub(covered)
            })
            .collect()
    }

    /// Per-name totals: span count, summed duration and summed self time.
    #[must_use]
    pub fn by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += u128::from(span.end - span.start);
            t.self_ns += u128::from(self_ns);
        }
        out
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Number of spans.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u128,
    /// Summed self time, ns.
    pub self_ns: u128,
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_length(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanRef>, start: u64, end: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // A parallel section [0, 100] whose items ran on two workers:
        // worker A ran [10, 50] then [80, 90], worker B ran [30, 70].
        // The children cover [10, 70] and [80, 90]: 70 ns, not the 90 ns
        // their durations sum to.
        let mut log = SpanLog::new();
        let root = log.push(span("run_indexed", None, 0, 100));
        log.push(span("item", Some(root), 10, 50));
        log.push(span("item", Some(root), 30, 70));
        log.push(span("item", Some(root), 80, 90));
        let selfs = log.self_times();
        assert_eq!(selfs, vec![30, 40, 40, 10]);
        let totals = log.by_name();
        assert_eq!(totals["item"].count, 3);
        assert_eq!(totals["item"].total_ns, 90);
        assert_eq!(totals["run_indexed"].self_ns, 30);
    }

    #[test]
    fn children_are_clipped_to_their_parent_and_nested_spans_count_once() {
        let mut log = SpanLog::new();
        let root = log.push(span("serve", None, 100, 200));
        let gap = log.push(span("gap", Some(root), 90, 150));
        log.push(span("inner", Some(gap), 120, 130));
        log.push(span("slice", Some(root), 190, 260));
        // root: children cover [100, 150] and [190, 200] => self 40.
        // gap: child [120, 130] => self 60 - 10 = 50.
        assert_eq!(log.self_times(), vec![40, 50, 10, 70]);
    }

    #[test]
    fn adopted_worker_logs_keep_their_tree() {
        let mut main = SpanLog::new();
        let root = main.push(span("grid", None, 0, 50));
        let mut worker = SpanLog::with_epoch(main.epoch());
        let cell = worker.push(span("cell", None, 5, 40));
        worker.push(span("step", Some(cell), 10, 20));
        main.adopt(worker, Some(root));
        assert_eq!(main.spans()[1].parent, Some(root));
        assert_eq!(main.spans()[2].parent, Some(1));
        assert_eq!(main.self_times(), vec![15, 25, 10]);
    }
}
