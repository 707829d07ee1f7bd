//! The one stats/trace module every workload shares: order statistics,
//! the quartile spread the acceptance rule uses, and the span ring with
//! its self-time arithmetic and Chrome-trace export.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Linear-interpolated percentile of unsorted samples, `p` in `[0, 1]`.
/// Empty input is 0 (the "not measured on this workload" value).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method) — the acceptance rule is stated in those terms.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let q = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (q(1), q(2), q(3))
}

/// Interquartile distance as a share of the median: the run-to-run spread.
pub fn iqr_spread(samples: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(samples);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Which thread a span ran on, for the Chrome-trace lanes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    Train = 1,
    Checkpoint = 2,
    Main = 3,
}

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Spans of one iteration (or one recovery, one epoch) share an id.
    pub id: u64,
    pub lane: Lane,
}

/// What kind of hook span a checkpoint-thread span is caused by.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cause {
    /// `on_synced_gradient(t)` — causes the put of the batch holding `t`.
    Synced,
    /// `after_update` leaving `state.iteration == t` — causes full `t`.
    AfterUpdate,
}

/// Process-wide clock origin + the span ring. Disabled (the untraced
/// pass) every `record` is one branch; enabled it is one uncontended
/// lock and a push into pre-allocated storage.
pub struct Trace {
    t0: Instant,
    enabled: bool,
    inner: Mutex<TraceInner>,
}

struct TraceInner {
    spans: Vec<Span>,
    causes: BTreeMap<(Cause, u64), u32>,
    dropped: u64,
}

const RING_CAPACITY: usize = 1 << 16;

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Self {
            t0: Instant::now(),
            enabled,
            inner: Mutex::new(TraceInner {
                spans: Vec::with_capacity(if enabled { RING_CAPACITY } else { 0 }),
                causes: BTreeMap::new(),
                dropped: 0,
            }),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the trace (= the process's measurements) began.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its index for children to name as
    /// parent ([`NO_PARENT`] when tracing is off or the ring is full).
    pub fn record(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        id: u64,
        lane: Lane,
    ) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let mut g = self.inner.lock().expect("trace lock");
        if g.spans.len() == RING_CAPACITY {
            g.dropped += 1;
            return NO_PARENT;
        }
        g.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            id,
            lane,
        });
        (g.spans.len() - 1) as u32
    }

    /// Remember that span `idx` is what later causes checkpoint work for
    /// iteration `iter` (looked up from the blob key on the other thread).
    pub fn mark_cause(&self, cause: Cause, iter: u64, idx: u32) {
        if self.enabled && idx != NO_PARENT {
            self.inner
                .lock()
                .expect("trace lock")
                .causes
                .insert((cause, iter), idx);
        }
    }

    pub fn cause_of(&self, cause: Cause, iter: u64) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        self.inner
            .lock()
            .expect("trace lock")
            .causes
            .get(&(cause, iter))
            .copied()
            .unwrap_or(NO_PARENT)
    }

    /// Enclosing spans (an iteration, a recovery) are only known once they
    /// end, after their children were recorded: hand every still-parentless
    /// span on `lane` to the `parent_name` span whose interval contains it.
    pub fn adopt(&self, parent_name: &'static str, lane: Lane) {
        let mut g = self.inner.lock().expect("trace lock");
        let mut parents: Vec<(u64, u64, u32)> = g
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent_name && s.lane == lane)
            .map(|(i, s)| (s.start_ns, s.end_ns, i as u32))
            .collect();
        parents.sort_unstable();
        for s in g.spans.iter_mut() {
            if s.parent != NO_PARENT || s.lane != lane || s.name == parent_name {
                continue;
            }
            let at = parents.partition_point(|p| p.0 <= s.start_ns);
            if let Some(&(_, end, idx)) = at.checked_sub(1).map(|i| &parents[i]) {
                if s.end_ns <= end {
                    s.parent = idx;
                }
            }
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.inner.lock().expect("trace lock").spans.clone()
    }

    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("trace lock").dropped
    }
}

/// Nanoseconds covered by the union of `intervals` (which may overlap).
pub fn covered_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = 0u64;
    for &(a, b) in intervals.iter() {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// Per-span self time: duration minus the part of its own interval that
/// its child spans cover (children may overlap each other, and a child
/// that runs after its parent ended — checkpoint-thread work caused by a
/// hook — covers nothing).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = spans.get(s.parent as usize) {
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if a < b {
                children[s.parent as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| (s.end_ns - s.start_ns).saturating_sub(covered_ns(kids)))
        .collect()
}

/// `name → (count, total ns, self ns)`, sorted by name.
pub fn self_time_table(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut table: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let row = table.entry(s.name).or_default();
        row.0 += 1;
        row.1 += s.end_ns - s.start_ns;
        row.2 += own;
    }
    table
}

/// Chrome-trace ("Trace Event Format") JSON, loadable in chrome://tracing
/// or Perfetto. `args` carries the causal parent and the shared id.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 120 + 32);
    out.push_str("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"span\":{},\"parent\":{},\"id\":{}}}}}",
            s.name,
            s.lane as u8,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            i,
            parent,
            s.id
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_handles_edges() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert!((percentile(&[10.0, 20.0], 0.25) - 12.5).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        assert!((iqr_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]: the
        // exclusive method extrapolates past the ends on tiny samples.
        let (q1, q2, q3) = quartiles(&[3.0, 1.0]);
        assert_eq!((q1, q2, q3), (0.5, 2.0, 3.5));
    }

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
            lane: Lane::Train,
        }
    }

    #[test]
    fn covered_ns_is_the_union_of_overlapping_intervals() {
        assert_eq!(covered_ns(&mut []), 0);
        let mut spans = [(30, 40), (0, 10), (5, 12), (11, 12), (40, 45)];
        assert_eq!(covered_ns(&mut spans), 12 + 15);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("iter", 0, 100, NO_PARENT),
            span("step", 10, 40, 0),
            span("hook", 30, 60, 0),  // overlaps step: union is 10..60
            span("put", 150, 190, 2), // runs after its parent ended
            span("inner", 35, 38, 2),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![50, 30, 27, 40, 3]);
        let table = self_time_table(&spans);
        assert_eq!(table["iter"], (1, 100, 50));
        assert_eq!(table["hook"], (1, 30, 27));
    }

    #[test]
    fn adopt_hands_orphans_to_the_enclosing_span_on_their_lane() {
        let t = Trace::new(true);
        let hook = t.record("hook", 12, 18, NO_PARENT, 0, Lane::Train);
        let other_lane = t.record("put", 13, 14, NO_PARENT, 0, Lane::Checkpoint);
        let outside = t.record("hook", 25, 45, NO_PARENT, 1, Lane::Train);
        let iter0 = t.record("iter", 10, 20, NO_PARENT, 0, Lane::Train);
        let iter1 = t.record("iter", 20, 40, NO_PARENT, 1, Lane::Train);
        t.adopt("iter", Lane::Train);
        let spans = t.spans();
        assert_eq!(spans[hook as usize].parent, iter0);
        assert_eq!(spans[other_lane as usize].parent, NO_PARENT);
        assert_eq!(spans[outside as usize].parent, NO_PARENT, "not contained");
        assert_eq!(spans[iter1 as usize].parent, NO_PARENT);
    }

    #[test]
    fn disabled_trace_records_nothing_and_causes_resolve_when_enabled() {
        let off = Trace::new(false);
        assert_eq!(off.record("x", 0, 1, NO_PARENT, 0, Lane::Main), NO_PARENT);
        assert!(off.spans().is_empty());

        let on = Trace::new(true);
        let a = on.record("hook.after_update", 5, 9, NO_PARENT, 40, Lane::Train);
        on.mark_cause(Cause::AfterUpdate, 40, a);
        assert_eq!(on.cause_of(Cause::AfterUpdate, 40), a);
        assert_eq!(on.cause_of(Cause::Synced, 40), NO_PARENT);
        let b = on.record("backend.put", 20, 30, a, 40, Lane::Checkpoint);
        assert_eq!(on.spans()[b as usize].parent, a);
        let json = chrome_trace_json(&on.spans());
        assert!(json.contains("\"name\":\"backend.put\""));
        assert!(json.contains("\"parent\":0"));
    }
}
