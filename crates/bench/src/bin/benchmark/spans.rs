//! The benchmark's own span recorder, used only by the traced pass.
//!
//! A span is recorded around each call the benchmark makes into a layer's
//! public functions: name, start, end, the span that caused it, and the
//! operation (request or repetition) it belongs to. Spans stay in memory and
//! are written out as JSON lines when the workload ends. The recorder is
//! single-threaded on purpose — the traced pass replays every workload on
//! one thread, so parent/child nesting is just a stack.
//!
//! Spans *inside* the program (`vadalog_obs`) are deliberately not used
//! here: production tracing stays off everywhere except the one
//! `obs.enabled_overhead_ratio` measurement.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Layer-qualified name, e.g. `service.protocol.parse`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to (shared by all spans of one
    /// request or repetition).
    pub op: u64,
    /// `true` when the interval was reported by the layer itself (a phase
    /// time out of `answer_profiled`) rather than clocked by the recorder;
    /// such spans are laid end to end from their parent's start.
    pub reported: bool,
}

/// An in-memory span recorder. A disabled recorder runs the wrapped calls
/// and records nothing, so the same replay code measures the recorder's own
/// cost (`trace.overhead_ratio`).
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRecord>,
    /// Indices of the currently open spans, innermost last.
    open: Vec<usize>,
    /// Where the next reported child of each open span starts.
    cursors: Vec<u64>,
    op: u64,
}

impl Recorder {
    /// Creates a recorder; `enabled == false` makes every method a
    /// pass-through.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cursors: Vec::new(),
            op: 0,
        }
    }

    /// Starts the next operation: spans recorded from here on carry a new
    /// operation identifier.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`. Spans opened by `f` through the
    /// recorder it is handed become children of this one.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRecord {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
            reported: false,
        });
        self.open.push(index);
        self.cursors.push(start_ns);
        let result = f(self);
        self.cursors.pop();
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// Records a phase the layer timed itself as a child of the innermost
    /// open span. Reported children are laid end to end from the parent's
    /// start, in call order.
    pub fn reported_child(&mut self, name: &'static str, micros: u64) {
        if !self.enabled {
            return;
        }
        let (Some(&parent), Some(cursor)) = (self.open.last(), self.cursors.last_mut()) else {
            return;
        };
        let start_ns = *cursor;
        let end_ns = start_ns + micros * 1_000;
        *cursor = end_ns;
        self.spans.push(SpanRecord {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            op: self.op,
            reported: true,
        });
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Durations, in microseconds, of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| (span.end_ns - span.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Self times, in microseconds, of every span called `name`: the span's
    /// duration minus the part of it its direct children cover.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, span)| span.name == name)
            .map(|(index, span)| {
                self_time_ns((span.start_ns, span.end_ns), &children[index]) as f64 / 1e3
            })
            .collect()
    }

    /// Writes one JSON object per span to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"reported\":{}}}",
                span.name, span.op, span.start_ns, span.end_ns, span.reported
            )?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the part of `[start, end)` that the
/// union of its children's intervals covers. Children may nest, touch or
/// (for reported phases) overrun the parent; anything outside the parent is
/// clipped away first.
pub fn self_time_ns(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.clamp(start, end), e.clamp(start, end)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let from = s.max(reach);
        if e > from {
            covered += e - from;
            reach = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_adjacent_children() {
        // [0,100) with children [10,30) and [30,50): 100 - 40.
        assert_eq!(self_time_ns((0, 100), &[(10, 30), (30, 50)]), 60);
    }

    #[test]
    fn self_time_counts_overlapping_and_nested_children_once() {
        // [20,40) is nested in [10,50); [45,70) overlaps its tail.
        assert_eq!(self_time_ns((0, 100), &[(10, 50), (20, 40), (45, 70)]), 40);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        // A reported phase that overruns the parent only counts inside it.
        assert_eq!(self_time_ns((100, 200), &[(50, 120), (180, 260)]), 60);
        assert_eq!(self_time_ns((100, 200), &[(0, 300)]), 0);
        assert_eq!(self_time_ns((100, 200), &[]), 100);
        assert_eq!(self_time_ns((100, 200), &[(300, 400)]), 100);
    }

    #[test]
    fn spans_nest_by_call_structure_and_share_the_operation_id() {
        let mut recorder = Recorder::new(true);
        recorder.next_op();
        let answer = recorder.span("outer", |r| {
            r.span("first", |_| ());
            r.span("second", |r| r.span("inner", |_| 7))
        });
        assert_eq!(answer, 7);
        recorder.next_op();
        recorder.span("outer", |_| ());
        let spans = recorder.spans();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["outer", "first", "second", "inner", "outer"]);
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2), None]);
        let ops: Vec<_> = spans.iter().map(|s| s.op).collect();
        assert_eq!(ops, [1, 1, 1, 1, 2]);
        for span in spans {
            assert!(span.end_ns >= span.start_ns);
        }
        // The outer span's self time never exceeds its duration.
        let durations = recorder.durations_us("outer");
        let selfs = recorder.self_times_us("outer");
        assert_eq!(durations.len(), 2);
        assert!(selfs[0] <= durations[0]);
    }

    #[test]
    fn reported_children_are_laid_end_to_end_inside_their_parent() {
        let mut recorder = Recorder::new(true);
        recorder.span("answer", |r| {
            r.reported_child("rewrite", 3);
            r.reported_child("fixpoint", 5);
        });
        let spans = recorder.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].start_ns, spans[0].start_ns);
        assert_eq!(spans[1].end_ns - spans[1].start_ns, 3_000);
        assert_eq!(spans[2].start_ns, spans[1].end_ns);
        assert_eq!(spans[2].end_ns - spans[2].start_ns, 5_000);
        assert!(spans[1].reported && spans[2].reported && !spans[0].reported);
        assert_eq!(recorder.durations_us("fixpoint"), [5.0]);
    }

    #[test]
    fn a_disabled_recorder_runs_the_calls_and_records_nothing() {
        let mut recorder = Recorder::new(false);
        recorder.next_op();
        let value = recorder.span("outer", |r| {
            r.reported_child("phase", 10);
            r.span("inner", |_| 41) + 1
        });
        assert_eq!(value, 42);
        assert!(recorder.spans().is_empty());
    }

    #[test]
    fn spans_round_trip_to_json_lines() {
        let mut recorder = Recorder::new(true);
        recorder.next_op();
        recorder.span("outer", |r| r.span("inner", |_| ()));
        let dir = crate::report::RunDir::create("spans-test").expect("create run directory");
        let path = dir.path().join("trace-test.jsonl");
        recorder.write_jsonl(&path).expect("write spans");
        let text = std::fs::read_to_string(&path).expect("read spans back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\":0,\"name\":\"outer\",\"op\":1,\"parent\":null,"));
        assert!(lines[1].starts_with("{\"id\":1,\"name\":\"inner\",\"op\":1,\"parent\":0,"));
        assert!(lines[1].ends_with("\"reported\":false}"));
    }
}
