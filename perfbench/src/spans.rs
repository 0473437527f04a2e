//! Benchmark-side spans: wall-clock intervals recorded around each
//! public call the harness makes into the system, kept in memory and
//! summarized when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, in seconds since the log's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called (`step`, `ingest_lines`, `run_window`, ...).
    pub name: &'static str,
    /// Run the span belongs to (one run per traced deployment pass).
    pub run: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch.
    pub end: f64,
}

impl Span {
    /// Wall-clock duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Per-name totals over a span log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed durations, seconds.
    pub busy_s: f64,
    /// Summed self times (duration minus the time covered by child
    /// spans), seconds.
    pub self_s: f64,
    /// Every duration, in recording order, seconds.
    pub durations: Vec<f64>,
}

/// An in-memory span log. A disabled log records nothing, so the timed
/// (untraced) passes pay one branch per call.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    run: u32,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of a span opened by [`SpanLog::enter`].
#[must_use]
pub struct Open(Option<usize>);

impl SpanLog {
    /// A log that records only when `enabled`, tagging spans with `run`.
    pub fn new(enabled: bool, run: u32) -> Self {
        SpanLog {
            enabled,
            run,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            run: self.run,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`SpanLog::enter`]; spans close in LIFO
    /// order.
    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            assert_eq!(
                self.open.pop(),
                Some(id),
                "spans must close innermost first"
            );
            self.spans[id].end = self.epoch.elapsed().as_secs_f64();
        }
    }

    /// Whether the log records.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        summarize(&self.spans)
    }
}

/// Per-name totals of `spans`. A span's self time is its duration minus
/// the part of its interval covered by its children; overlapping
/// children are counted once and children are clipped to the parent.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.busy_s += s.duration();
        t.self_s += s.duration() - covered(s.start, s.end, kids);
        t.durations.push(s.duration());
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(lo: f64, hi: f64, intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            run: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children_once_and_clips_them() {
        let spans = vec![
            span("step", None, 0.0, 10.0),
            span("run_window", Some(0), 1.0, 3.0),
            span("run_window", Some(0), 2.0, 5.0), // overlaps the first
            span("ingest_lines", Some(0), 8.0, 12.0), // runs past the parent
            span("step", None, 20.0, 21.0),
        ];
        let t = summarize(&spans);
        let step = &t["step"];
        assert_eq!(step.calls, 2);
        assert_eq!(step.busy_s, 11.0);
        // Covered: [1, 5] and [8, 10] = 6 of the first step's 10.
        assert_eq!(step.self_s, 4.0 + 1.0);
        assert_eq!(
            t["run_window"].self_s, 5.0,
            "leaves keep their whole duration"
        );
        assert_eq!(t["ingest_lines"].durations, vec![4.0]);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = vec![
            span("step", None, 0.0, 10.0),
            span("run_window", Some(0), 0.0, 6.0),
            span("probe", Some(1), 4.0, 6.0),
        ];
        let t = summarize(&spans);
        assert_eq!(t["step"].self_s, 4.0);
        assert_eq!(t["run_window"].self_s, 4.0);
        assert_eq!(t["probe"].self_s, 2.0);
    }

    #[test]
    fn log_nests_and_disabled_log_records_nothing() {
        let mut log = SpanLog::new(true, 3);
        let outer = log.enter("step");
        let inner = log.enter("run_window");
        log.exit(inner);
        log.exit(outer);
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].run, 3);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);

        let mut off = SpanLog::new(false, 0);
        let s = off.enter("step");
        off.exit(s);
        assert!(off.spans().is_empty());
    }
}
