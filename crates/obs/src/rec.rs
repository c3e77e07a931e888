//! The per-rank recorder: hierarchical spans, counters, histograms,
//! series, and instant events.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::Value;
use crate::metrics::LogHistogram;
use crate::summary::{PhaseStats, Summary};

/// Process-wide clock epoch, shared by all recorders so that the ranks of
/// a simulated world land on one aligned timeline.
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn epoch_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Nanoseconds the calling thread has spent on a CPU
/// (`/proc/thread-self/schedstat`, field 1); 0 where the file is absent.
/// Threaded ranks park on condvars while they wait, so between two reads
/// inside a rank's closure this is that rank's own work, however many
/// ranks share the host's cores.
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Spans kept in the detailed trace per rank; beyond this the aggregate
/// summary keeps accumulating but the event list stops growing (the
/// `obs.dropped_spans` counter records how many were elided).
const MAX_TRACE_SPANS: usize = 1 << 18;

/// A completed span in the detailed per-rank trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    pub name: String,
    pub cat: String,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Nesting depth at which the span ran (0 = top level).
    pub depth: u16,
}

/// A point-in-time event with structured arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct InstantEvent {
    pub name: String,
    pub ts_ns: u64,
    pub args: Value,
}

struct OpenSpan {
    name: String,
    cat: &'static str,
    start_ns: u64,
    /// Total inclusive time of already-closed children.
    child_ns: u64,
}

struct Inner {
    rank: usize,
    /// Purely virtual clock (tests): `now` is `skew_ns` alone, real time
    /// never advances it.
    manual_clock: bool,
    /// Virtual time offset (see [`Recorder::advance_clock`]).
    skew_ns: u64,
    spans: Vec<SpanEvent>,
    instants: Vec<InstantEvent>,
    stack: Vec<OpenSpan>,
    summary: Summary,
    series: BTreeMap<String, Vec<f64>>,
}

/// One rank's tracing handle. Cheap to clone (clones share state); holds
/// interior mutability so `&Recorder` records — mirroring how
/// `scomm::Comm` is threaded through the solver layers. Not `Send`: a
/// recorder belongs to its rank's thread, like the `Comm` it rides with.
#[derive(Clone)]
pub struct Recorder {
    inner: Rc<RefCell<Inner>>,
}

/// RAII guard returned by [`Recorder::span`]; closes the span on drop.
pub struct SpanGuard {
    rec: Recorder,
    closed: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.closed {
            self.rec.close_span();
            self.closed = true;
        }
    }
}

/// Everything one rank recorded: the mergeable [`Summary`] plus the
/// ordered detail (spans, instants, series) that powers the exporters.
/// Plain data — `Send`, unlike the recorder itself — so SPMD closures can
/// return it through `spmd::run`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankProfile {
    pub rank: usize,
    pub spans: Vec<SpanEvent>,
    pub instants: Vec<InstantEvent>,
    pub summary: Summary,
    pub series: BTreeMap<String, Vec<f64>>,
}

impl Recorder {
    pub fn new(rank: usize) -> Recorder {
        Self::build(rank, false)
    }

    /// A recorder on a purely virtual clock driven by
    /// [`Recorder::advance_clock`] — time attribution becomes exactly
    /// deterministic. Intended for tests.
    pub fn new_manual_clock(rank: usize) -> Recorder {
        Self::build(rank, true)
    }

    fn build(rank: usize, manual_clock: bool) -> Recorder {
        // Touch the epoch so timestamps start near zero for the first
        // recorder created in the process.
        let _ = epoch_ns();
        Recorder {
            inner: Rc::new(RefCell::new(Inner {
                rank,
                manual_clock,
                skew_ns: 0,
                spans: Vec::new(),
                instants: Vec::new(),
                stack: Vec::new(),
                summary: Summary::default(),
                series: BTreeMap::new(),
            })),
        }
    }

    pub fn rank(&self) -> usize {
        self.inner.borrow().rank
    }

    /// Current timestamp on this recorder's clock, in nanoseconds since
    /// the process-wide epoch. Pair with [`Recorder::add_span_external`]
    /// to place externally measured intervals on the shared timeline.
    pub fn now_ns(&self) -> u64 {
        let inner = self.inner.borrow();
        if inner.manual_clock {
            inner.skew_ns
        } else {
            epoch_ns() + inner.skew_ns
        }
    }

    /// Advance this recorder's clock by `ns` without sleeping (with
    /// [`Recorder::new_manual_clock`], the only thing that moves time).
    pub fn advance_clock(&self, ns: u64) {
        self.inner.borrow_mut().skew_ns += ns;
    }

    /// Open a span in the default category. Close it by dropping the
    /// guard (or via [`Recorder::with`]).
    pub fn span(&self, name: impl Into<String>) -> SpanGuard {
        self.span_cat(name, "phase")
    }

    /// Open a span in an explicit category ("amr", "solve", "comm", …).
    pub fn span_cat(&self, name: impl Into<String>, cat: &'static str) -> SpanGuard {
        let start_ns = self.now_ns();
        self.inner.borrow_mut().stack.push(OpenSpan {
            name: name.into(),
            cat,
            start_ns,
            child_ns: 0,
        });
        SpanGuard {
            rec: self.clone(),
            closed: false,
        }
    }

    /// Run `f` under a span in the default category.
    pub fn with<R>(&self, name: impl Into<String>, f: impl FnOnce() -> R) -> R {
        self.with_cat(name, "phase", f)
    }

    /// Run `f` under a span in an explicit category.
    pub fn with_cat<R>(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let _g = self.span_cat(name, cat);
        f()
    }

    fn close_span(&self) {
        let now = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let open = inner
            .stack
            .pop()
            .expect("span guard dropped with empty span stack");
        let dur_ns = now.saturating_sub(open.start_ns);
        let self_ns = dur_ns.saturating_sub(open.child_ns);
        if let Some(parent) = inner.stack.last_mut() {
            parent.child_ns += dur_ns;
        }
        let depth = inner.stack.len() as u16;
        let stats = inner
            .summary
            .phases
            .entry(open.name.clone())
            .or_insert_with(|| PhaseStats {
                cat: open.cat.to_string(),
                ..Default::default()
            });
        stats.count += 1;
        stats.incl_ns += dur_ns;
        stats.excl_ns += self_ns;
        if inner.spans.len() < MAX_TRACE_SPANS {
            inner.spans.push(SpanEvent {
                name: open.name,
                cat: open.cat.to_string(),
                start_ns: open.start_ns,
                dur_ns,
                depth,
            });
        } else {
            *inner
                .summary
                .counters
                .entry("obs.dropped_spans".into())
                .or_insert(0) += 1;
        }
    }

    /// Record an externally measured span (known start and duration):
    /// an interval whose end is only known after the fact, such as a
    /// nonblocking receive from post to completion.
    pub fn add_span_external(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        start_ns: u64,
        dur_ns: u64,
    ) {
        let name = name.into();
        let mut inner = self.inner.borrow_mut();
        if let Some(parent) = inner.stack.last_mut() {
            parent.child_ns += dur_ns;
        }
        let depth = inner.stack.len() as u16;
        let stats = inner
            .summary
            .phases
            .entry(name.clone())
            .or_insert_with(|| PhaseStats {
                cat: cat.to_string(),
                ..Default::default()
            });
        stats.count += 1;
        stats.incl_ns += dur_ns;
        stats.excl_ns += dur_ns;
        if inner.spans.len() < MAX_TRACE_SPANS {
            inner.spans.push(SpanEvent {
                name,
                cat: cat.to_string(),
                start_ns,
                dur_ns,
                depth,
            });
        } else {
            *inner
                .summary
                .counters
                .entry("obs.dropped_spans".into())
                .or_insert(0) += 1;
        }
    }

    /// Add to a named counter.
    pub fn add_count(&self, name: &str, delta: u64) {
        let mut inner = self.inner.borrow_mut();
        match inner.summary.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                inner.summary.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Record a sample into a named log-scale histogram.
    pub fn record_value(&self, name: &str, v: u64) {
        let mut inner = self.inner.borrow_mut();
        match inner.summary.hists.get_mut(name) {
            Some(h) => h.record(v),
            None => {
                let mut h = LogHistogram::new();
                h.record(v);
                inner.summary.hists.insert(name.to_string(), h);
            }
        }
    }

    /// Append to a named ordered series (per-iteration residuals, …).
    /// Series live in the [`RankProfile`], not the [`Summary`]: ordered
    /// concatenation is not a commutative reduction.
    pub fn push_series(&self, name: &str, v: f64) {
        let mut inner = self.inner.borrow_mut();
        match inner.series.get_mut(name) {
            Some(s) => s.push(v),
            None => {
                inner.series.insert(name.to_string(), vec![v]);
            }
        }
    }

    /// Record an instant event with structured arguments.
    pub fn instant(&self, name: impl Into<String>, args: Value) {
        let ts_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        inner.instants.push(InstantEvent {
            name: name.into(),
            ts_ns,
            args,
        });
    }

    /// Snapshot the mergeable aggregate recorded so far.
    pub fn summary(&self) -> Summary {
        self.inner.borrow().summary.clone()
    }

    /// Snapshot everything recorded so far into a transportable profile.
    /// Spans still open are not included (only closed spans have a
    /// duration); their count is surfaced as `obs.unclosed_spans`.
    pub fn profile(&self) -> RankProfile {
        let inner = self.inner.borrow();
        let mut summary = inner.summary.clone();
        if !inner.stack.is_empty() {
            summary
                .counters
                .insert("obs.unclosed_spans".into(), inner.stack.len() as u64);
        }
        RankProfile {
            rank: inner.rank,
            spans: inner.spans.clone(),
            instants: inner.instants.clone(),
            summary,
            series: inner.series.clone(),
        }
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Recorder")
            .field("rank", &inner.rank)
            .field("open_spans", &inner.stack.len())
            .field("closed_spans", &inner.spans.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_attribute_exclusive_time() {
        let rec = Recorder::new_manual_clock(0);
        let outer = rec.span_cat("outer", "amr");
        rec.advance_clock(1_000);
        {
            let _inner = rec.span_cat("inner", "comm");
            rec.advance_clock(400);
        }
        rec.advance_clock(250);
        drop(outer);
        let s = rec.summary();
        let o = &s.phases["outer"];
        let i = &s.phases["inner"];
        assert_eq!(i.incl_ns, 400);
        assert_eq!(i.excl_ns, 400);
        assert_eq!(o.incl_ns, 1_650);
        assert_eq!(o.excl_ns, 1_250, "outer exclusive excludes the inner span");
        assert_eq!(o.cat, "amr");
        assert_eq!(i.cat, "comm");
    }

    #[test]
    fn three_level_nesting_and_siblings() {
        let rec = Recorder::new_manual_clock(0);
        let a = rec.span("a");
        rec.advance_clock(100);
        {
            let b = rec.span("b");
            rec.advance_clock(50);
            {
                let _c = rec.span("c");
                rec.advance_clock(30);
            }
            rec.advance_clock(20);
            drop(b);
        }
        {
            let _b2 = rec.span("b"); // second entry of the same phase
            rec.advance_clock(10);
        }
        drop(a);
        let s = rec.summary();
        assert_eq!(s.phases["c"].incl_ns, 30);
        assert_eq!(s.phases["b"].count, 2);
        assert_eq!(s.phases["b"].incl_ns, 100 + 10);
        assert_eq!(s.phases["b"].excl_ns, 70 + 10);
        assert_eq!(s.phases["a"].incl_ns, 210);
        assert_eq!(s.phases["a"].excl_ns, 100);
        // Depths recorded on the trace events.
        let p = rec.profile();
        let depth_of = |name: &str| {
            p.spans
                .iter()
                .find(|e| e.name == name)
                .map(|e| e.depth)
                .unwrap()
        };
        assert_eq!(depth_of("a"), 0);
        assert_eq!(depth_of("b"), 1);
        assert_eq!(depth_of("c"), 2);
    }

    #[test]
    fn external_spans_count_as_children() {
        let rec = Recorder::new_manual_clock(3);
        let g = rec.span("phase");
        let t0 = rec.now_ns();
        rec.advance_clock(1_000);
        rec.add_span_external("sub1", "amr", t0, 600);
        rec.add_span_external("sub2", "amr", t0 + 600, 400);
        drop(g);
        let s = rec.summary();
        assert_eq!(s.phases["phase"].incl_ns, 1_000);
        assert_eq!(s.phases["phase"].excl_ns, 0);
        assert_eq!(s.phases["sub1"].incl_ns, 600);
        assert_eq!(s.phases["sub2"].incl_ns, 400);
    }

    /// Preemption can only lower the busy ratio, so the best of a few
    /// attempts is taken; a clock that does not count work fails them all.
    #[test]
    fn thread_cpu_clock_counts_work_not_sleep() {
        if thread_cpu_ns() == 0 {
            return; // no schedstat on this platform
        }
        let busy = (0..5)
            .map(|_| {
                let (c0, t0) = (thread_cpu_ns(), Instant::now());
                while t0.elapsed().as_millis() < 20 {
                    std::hint::spin_loop();
                }
                (thread_cpu_ns() - c0) as f64 / t0.elapsed().as_nanos() as f64
            })
            .fold(0.0, f64::max);
        assert!(busy >= 0.8, "busy loop counted at {busy:.2} of wall");
        let (c0, t0) = (thread_cpu_ns(), Instant::now());
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = (thread_cpu_ns() - c0) as f64 / t0.elapsed().as_nanos() as f64;
        assert!(slept < 0.25, "sleep counted at {slept:.2} of wall");
    }

    #[test]
    fn counters_histograms_series_instants() {
        let rec = Recorder::new_manual_clock(1);
        rec.add_count("iters", 3);
        rec.add_count("iters", 4);
        rec.record_value("bytes", 100);
        rec.record_value("bytes", 3000);
        rec.push_series("residual", 1.0);
        rec.push_series("residual", 0.1);
        rec.instant("adapt", Value::object([("elements", Value::from(512u64))]));
        let p = rec.profile();
        assert_eq!(p.summary.counter("iters"), 7);
        assert_eq!(p.summary.hists["bytes"].count, 2);
        assert_eq!(p.series["residual"], vec![1.0, 0.1]);
        assert_eq!(p.instants.len(), 1);
        assert_eq!(p.rank, 1);
    }

    #[test]
    fn unclosed_spans_are_flagged_not_counted() {
        let rec = Recorder::new_manual_clock(0);
        let _g = rec.span("open-forever");
        rec.advance_clock(10);
        let p = rec.profile();
        assert!(!p.summary.phases.contains_key("open-forever"));
        assert_eq!(p.summary.counter("obs.unclosed_spans"), 1);
    }

    #[test]
    fn with_returns_closure_value() {
        let rec = Recorder::new_manual_clock(0);
        let v = rec.with("compute", || 42);
        assert_eq!(v, 42);
        assert_eq!(rec.summary().phases["compute"].count, 1);
    }
}
