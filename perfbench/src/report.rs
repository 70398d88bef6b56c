//! What a workload run hands back, and the pool-statistics aggregation
//! shared by the workloads that run `Pool`s.

use std::collections::BTreeMap;
use std::time::Instant;

use native_rt::stats::HistSnapshot;
use native_rt::Snapshot;

use crate::stats::Summary;

/// One workload run's outcome.
#[derive(Default)]
pub struct Report {
    /// Output checks made, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// Median set-up time over the repetitions, seconds.
    pub setup_s: f64,
    /// Whole-run rates (see [`Report::set_rates`]).
    pub jobs_per_s: f64,
    pub jobs_per_cpu_s: f64,
    /// Every per-job latency sample of the run, in microseconds.
    pub latency_us: Vec<f64>,
    /// Peak RSS when the workload measures it itself (before phases whose
    /// buffers belong to the load generator, not the system under test).
    pub peak_rss_kb: Option<i64>,
    /// Per-layer metrics by name.
    pub layer: BTreeMap<&'static str, f64>,
    /// Human-readable lines (sample counts, definitions, diagnostics).
    pub notes: Vec<String>,
}

impl Report {
    /// Counts one output check.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts `n` checks of which `bad` failed.
    pub fn checks(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.layer.insert(name, v);
    }

    /// Sets a per-layer timing from a sample and notes its count.
    pub fn set_q(&mut self, name: &'static str, s: &Summary, q: f64) {
        self.set(name, s.q(q));
        self.notes.push(format!("{name}: n={}", s.n()));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Sets the end-to-end rates from the run's totals and notes them.
    pub fn set_rates(&mut self, jobs: u64, wall_s: f64, cpu_s: f64, what: &str) {
        self.jobs_per_s = jobs as f64 / wall_s;
        self.jobs_per_cpu_s = jobs as f64 / cpu_s;
        self.note(format!(
            "rates: {jobs} {what} over {wall_s:.3} s wall and {cpu_s:.3} s process CPU"
        ));
    }
}

/// Builds the workload's state `reps` times and returns the last build
/// with the median build time in seconds. Earlier builds are torn down
/// outside the timing.
pub fn median_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up"),
        Summary::new(times).p50(),
    )
}

/// Pool statistics summed over every pool a run created.
#[derive(Default)]
pub struct PoolAgg {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, HistSnapshot>,
    spin_budget_ns: Vec<f64>,
}

impl PoolAgg {
    pub fn add(&mut self, snap: &Snapshot) {
        for (k, v) in &snap.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, h) in &snap.histograms {
            let m = self.hists.entry(k.clone()).or_default();
            m.count += h.count;
            m.sum = m.sum.wrapping_add(h.sum);
            m.min = match (m.min, h.min) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            m.max = m.max.max(h.max);
            for &(lo, hi, c) in &h.buckets {
                match m.buckets.iter_mut().find(|b| b.0 == lo && b.1 == hi) {
                    Some(b) => b.2 += c,
                    None => m.buckets.push((lo, hi, c)),
                }
            }
            m.buckets.sort_unstable();
        }
        if let Some(b) = snap.gauges.get("spin_budget") {
            self.spin_budget_ns.push(*b as f64);
        }
    }

    pub fn counter(&self, k: &str) -> u64 {
        self.counters.get(k).copied().unwrap_or(0)
    }

    pub fn hist_q(&self, k: &str, q: f64) -> f64 {
        self.hists.get(k).and_then(|h| h.quantile(q)).unwrap_or(0) as f64
    }

    fn hist(&self, k: &str) -> HistSnapshot {
        self.hists.get(k).cloned().unwrap_or_default()
    }

    /// The pool, deque, injector and flight-recorder layer metrics.
    pub fn fill(&self, rep: &mut Report) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let jobs = self.counter("jobs_run");
        rep.set(
            "pool.queue_wait_us_p50",
            self.hist_q("queue_wait_ns", 0.5) / 1e3,
        );
        rep.set(
            "pool.queue_wait_us_p99",
            self.hist_q("queue_wait_ns", 0.99) / 1e3,
        );
        rep.set(
            "pool.wake_to_run_us_p50",
            self.hist_q("wake_to_run_ns", 0.5) / 1e3,
        );
        rep.set("pool.unpark_us_p50", self.hist_q("unpark_ns", 0.5) / 1e3);
        rep.set(
            "pool.spin_budget_us",
            Summary::new(self.spin_budget_ns.clone()).p50() / 1e3,
        );
        rep.set("pool.park_count", self.hist("park_ns").count as f64);
        rep.set(
            "pool.spin_before_park_ms_sum",
            self.hist("spin_before_park_ns").sum as f64 / 1e6,
        );
        rep.set("pool.suspends", self.counter("suspends") as f64);
        rep.set("pool.resumes", self.counter("resumes") as f64);
        rep.set(
            "pool.suspend_to_resume_ms_p50",
            self.hist_q("suspend_to_resume_ns", 0.5) / 1e6,
        );
        rep.set(
            "deque.local_hit_ratio",
            ratio(self.counter("local_hits"), jobs),
        );
        rep.set("deque.steals", self.counter("steals") as f64);
        rep.set(
            "deque.steal_success_ratio",
            ratio(
                self.counter("steals"),
                self.counter("steals") + self.counter("steal_fails"),
            ),
        );
        rep.set(
            "deque.steal_skips_suspended",
            self.counter("steal_skips_suspended") as f64,
        );
        rep.set("injector.pops", self.counter("injector_pops") as f64);
        rep.set(
            "injector.sweep_skips",
            self.counter("injector_sweep_skips") as f64,
        );
        rep.set(
            "trace.events_per_job",
            ratio(self.counter("trace_events"), jobs),
        );
        rep.set(
            "trace.drop_ratio",
            ratio(self.counter("trace_dropped"), self.counter("trace_events")),
        );
        rep.note(format!(
            "pool: jobs_run={jobs} queue_wait n={} park n={} unpark n={} wake_to_run n={} \
             suspend_to_resume n={} (power-of-two histogram quantiles are bucket upper bounds)",
            self.hist("queue_wait_ns").count,
            self.hist("park_ns").count,
            self.hist("unpark_ns").count,
            self.hist("wake_to_run_ns").count,
            self.hist("suspend_to_resume_ns").count,
        ));
    }
}
