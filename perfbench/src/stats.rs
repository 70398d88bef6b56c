//! The benchmark's own arithmetic: a seeded generator, quantiles with the
//! "at least ten samples beyond" rule, open-loop arrival schedules and the
//! stepped rate ramp. Everything here is pure so it can be unit-tested.

use std::time::Duration;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-1, 1)`.
    pub fn signed(&mut self) -> f64 {
        self.unit() * 2.0 - 1.0
    }
}

/// Linear-interpolated quantile of an ascending slice (0.0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Percentiles the tail helper may report, highest first.
const TAIL_CANDIDATES: [f64; 3] = [0.99, 0.9, 0.5];

/// The highest percentile in {p99, p90, p50} that has at least ten
/// samples beyond it, or `None` with fewer than 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| (1.0 - p) * n as f64 >= 10.0 - 1e-9)
}

/// A sorted sample with its count, the unit every timing is reported in.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    pub fn new(mut xs: Vec<f64>) -> Self {
        xs.sort_by(f64::total_cmp);
        Summary { sorted: xs }
    }

    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    pub fn q(&self, q: f64) -> f64 {
        quantile(&self.sorted, q)
    }

    pub fn p50(&self) -> f64 {
        self.q(0.5)
    }

    /// The tail value and the percentile it was taken at (see
    /// [`tail_percentile`]); the median when the sample is too small.
    pub fn tail(&self) -> (f64, f64) {
        let p = tail_percentile(self.n()).unwrap_or(0.5);
        (self.q(p), p)
    }
}

/// Offsets of a Poisson arrival process at `rate_per_s` over `span`,
/// fully determined by `seed`.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, span: Duration) -> Vec<Duration> {
    let mut rng = Rng::new(seed);
    let end = span.as_secs_f64();
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate_per_s * end * 1.1) as usize + 16);
    loop {
        // Inverse-CDF exponential gap; `1 - unit` is in (0, 1].
        t += -(1.0 - rng.unit()).ln() / rate_per_s;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// What one ramp step measured.
#[derive(Clone, Copy, Debug)]
pub struct StepOutcome {
    /// Completions per second actually achieved at the step.
    pub achieved_per_s: f64,
    /// p99 latency of the step, in microseconds.
    pub p99_us: f64,
    /// Whether work queued faster than it drained during the step.
    pub backlog_growing: bool,
}

/// Result of a stepped ramp.
#[derive(Clone, Debug, Default)]
pub struct RampResult {
    /// Highest passing offered rate and what it achieved.
    pub best: Option<(f64, StepOutcome)>,
    /// The first offered rate that failed (`None` if the ramp ran out).
    pub failed_at: Option<f64>,
    /// Every step run, in order: (offered rate, outcome, passed).
    pub steps: Vec<(f64, StepOutcome, bool)>,
}

/// Runs a two-stage stepped ramp: coarse steps of `coarse` from `start`,
/// then, from the last passing rate, fine steps of `fine` up to the coarse
/// failure. Each stage stops at its first rate whose p99 breaks `limit_us`
/// or whose backlog grows. `max_steps` bounds the total.
pub fn ramp(
    start: f64,
    coarse: f64,
    fine: f64,
    limit_us: f64,
    max_steps: usize,
    mut step: impl FnMut(f64) -> StepOutcome,
) -> RampResult {
    let mut res = RampResult::default();
    let passes = |o: &StepOutcome| o.p99_us <= limit_us && !o.backlog_growing;
    let mut run = |rate: f64, res: &mut RampResult| -> bool {
        let o = step(rate);
        let ok = passes(&o);
        res.steps.push((rate, o, ok));
        if ok {
            res.best = Some((rate, o));
        }
        ok
    };
    let mut rate = start;
    let mut coarse_fail = None;
    while res.steps.len() < max_steps {
        if !run(rate, &mut res) {
            coarse_fail = Some(rate);
            break;
        }
        rate *= coarse;
    }
    res.failed_at = coarse_fail;
    let (Some(fail), Some((base, _))) = (coarse_fail, res.best) else {
        return res;
    };
    let mut rate = base * fine;
    while rate < fail && res.steps.len() < max_steps {
        if !run(rate, &mut res) {
            res.failed_at = Some(rate);
            break;
        }
        rate *= fine;
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_schedule_is_identical_across_runs() {
        let a = poisson_schedule(42, 5_000.0, Duration::from_millis(200));
        let b = poisson_schedule(42, 5_000.0, Duration::from_millis(200));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // Roughly the offered rate (1000 expected; Poisson sd ≈ 32).
        assert!((850..1150).contains(&a.len()), "{}", a.len());
        assert_ne!(a, poisson_schedule(43, 5_000.0, Duration::from_millis(200)));
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(99), Some(0.5));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(1_000_000), Some(0.99));
        let s = Summary::new((1..=1000).map(f64::from).rev().collect());
        let (v, p) = s.tail();
        assert_eq!(p, 0.99);
        assert!((v - 990.01).abs() < 1e-9, "{v}");
        // Exactly ten samples lie above the reported value.
        assert_eq!(s.sorted.iter().filter(|&&x| x > v).count(), 10);
        assert_eq!(s.p50(), 500.5);
    }

    fn outcome(p99_us: f64, backlog_growing: bool) -> StepOutcome {
        StepOutcome {
            achieved_per_s: 0.0,
            p99_us,
            backlog_growing,
        }
    }

    #[test]
    fn ramp_stops_at_first_rate_breaking_the_limit() {
        let mut seen = Vec::new();
        // Latency crosses the 100 µs limit above 1000/s.
        let r = ramp(100.0, 2.0, 1.25, 100.0, 50, |rate| {
            seen.push(rate);
            outcome(if rate > 1000.0 { 500.0 } else { 10.0 }, false)
        });
        // Coarse: 100, 200, 400, 800 pass; 1600 fails. Fine from 800:
        // 1000 passes, 1250 fails, and nothing runs after it.
        assert_eq!(
            seen,
            vec![100.0, 200.0, 400.0, 800.0, 1600.0, 1000.0, 1250.0]
        );
        assert_eq!(r.best.map(|b| b.0), Some(1000.0));
        assert_eq!(r.failed_at, Some(1250.0));
    }

    #[test]
    fn ramp_stops_at_first_growing_backlog() {
        let mut seen = Vec::new();
        let r = ramp(100.0, 2.0, 1.5, 1e9, 50, |rate| {
            seen.push(rate);
            outcome(1.0, rate >= 400.0)
        });
        // 100, 200 pass; 400 fails; fine step 300 passes; 450 ≥ 400 ends.
        assert_eq!(seen, vec![100.0, 200.0, 400.0, 300.0]);
        assert_eq!(r.best.map(|b| b.0), Some(300.0));
        assert_eq!(r.failed_at, Some(400.0));
        // A failing first step leaves no passing rate.
        let r = ramp(100.0, 2.0, 1.5, 1.0, 50, |_| outcome(5.0, false));
        assert!(r.best.is_none());
        assert_eq!(r.steps.len(), 1);
    }
}
