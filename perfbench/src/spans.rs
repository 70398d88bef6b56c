//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, start, end, the span that caused it, and a group id
//! shared by every span of one job or episode. Spans stay in memory and
//! are written out at the end as a Perfetto (Chrome trace-event) JSON
//! document together with each layer's self time: the span's duration
//! minus the part of it that its child spans cover.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use metrics::{JsonValue, TraceBuilder};

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    pub parent: u64,
    pub group: u64,
    pub tid: u64,
}

/// Span ids start at 1; 0 means "no parent" and "tracing off".
pub const NONE: u64 = 0;

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

struct Inner {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A cheap-to-clone span log; a disabled log records nothing and costs one
/// branch per call.
#[derive(Clone)]
pub struct Spans(Option<Arc<Inner>>);

impl Spans {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Spans(enabled.then(|| {
            Arc::new(Inner {
                origin,
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
            })
        }))
    }

    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// A fresh span id, for a span whose children are recorded before it
    /// ends (`NONE` when disabled).
    pub fn new_id(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(NONE, |inner| inner.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Records a finished span under `id` (or a fresh id when `id` is
    /// `NONE`); returns the id (`NONE` when disabled).
    pub fn record(
        &self,
        name: &'static str,
        id: u64,
        group: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let Some(inner) = &self.0 else {
            return NONE;
        };
        let id = if id == NONE { self.new_id() } else { id };
        let ns = |t: Instant| t.saturating_duration_since(inner.origin).as_nanos() as u64;
        let span = Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            id,
            parent,
            group,
            tid: TID.with(|t| *t),
        };
        inner.spans.lock().expect("span log poisoned").push(span);
        id
    }

    /// Every span recorded so far, in recording order.
    pub fn take(&self) -> Vec<Span> {
        self.0.as_ref().map_or_else(Vec::new, |inner| {
            std::mem::take(&mut *inner.spans.lock().expect("span log poisoned"))
        })
    }
}

/// Per-name totals: (count, Σ duration ns, Σ self time ns).
pub type SelfTimes = BTreeMap<&'static str, (u64, u64, u64)>;

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> (Vec<u64>, SelfTimes) {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != NONE) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut per_span = Vec::with_capacity(spans.len());
    let mut totals = SelfTimes::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        let own = dur - covered.min(dur);
        per_span.push(own);
        let e = totals.entry(s.name).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += dur;
        e.2 += own;
    }
    (per_span, totals)
}

/// The Perfetto document: one track per recording thread, one slice per
/// span (args: id, parent, group, self_us), plus a metadata instant
/// carrying the run's stamp.
pub fn perfetto(spans: &[Span], self_ns: &[u64], title: &str, stamp: &str) -> JsonValue {
    let mut tb = TraceBuilder::new();
    tb.process_name(1, title);
    let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for t in &tids {
        tb.thread_name(1, *t, &format!("thread-{t}"));
    }
    tb.instant(
        "run",
        "meta",
        1,
        0,
        0.0,
        JsonValue::obj([("stamp", JsonValue::str(stamp))]),
    );
    for (s, own) in spans.iter().zip(self_ns) {
        tb.complete(
            s.name,
            "perfbench",
            1,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            JsonValue::obj([
                ("id", JsonValue::uint(s.id)),
                ("parent", JsonValue::uint(s.parent)),
                ("group", JsonValue::uint(s.group)),
                ("self_us", JsonValue::Num(*own as f64 / 1e3)),
            ]),
        );
    }
    tb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, a: u64, b: u64) -> Span {
        Span {
            name: if parent == NONE { "root" } else { "child" },
            start_ns: a,
            end_ns: b,
            id,
            parent,
            group: 7,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root 0..100 with children 10..30, 20..40 (overlap) and 90..120
        // (clipped to 90..100): covered = 30 + 10, self = 60.
        let spans = [
            span(1, NONE, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 40),
            span(4, 1, 90, 120),
        ];
        let (per, totals) = self_times(&spans);
        assert_eq!(per, vec![60, 20, 20, 30]);
        assert_eq!(totals["root"], (1, 100, 60));
        assert_eq!(totals["child"], (3, 70, 70));
    }
}
