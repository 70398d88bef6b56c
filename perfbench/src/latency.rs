//! `latency`: an open loop into a latency-bound pool beside a batch pool.
//!
//! Seeded Poisson arrivals of small `fft` jobs go into one pool; a batch
//! pool co-runs under the same `Controller` with a fixed partition and
//! keeps itself busy (each finished product submits the next from inside
//! the pool). The idle park/unpark path, the adaptive spin budget, the
//! injector and the wake path do the work; the control loop does almost
//! nothing. A spin-budget change that buys latency at the batch pool's
//! cost shows here as a lower `jobs_per_s`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use native_rt::{Controller, Pool, PoolConfig};
use workloads::native::fft::{dft_reference, fft, Complex};
use workloads::native::matmul::{matmul, Matrix};

use crate::report::{median_setup, PoolAgg, Report};
use crate::spans::{Spans, NONE};
use crate::stats::{poisson_schedule, ramp, Rng, StepOutcome, Summary};
use crate::sys;
use crate::Cfg;

/// FFT length, distinct inputs, and every how-many-th job is checked
/// against the naive DFT.
const FFT_N: usize = 256;
const FFT_INPUTS: usize = 16;
const CHECK_EVERY: u64 = 4;
/// Batch products: order and distinct inputs.
const BATCH_N: usize = 48;
const BATCH_INPUTS: usize = 8;
/// The fixed offered rate for the latency figures, jobs/s: busy enough that
/// the latency pool's processor does not sit idle between jobs (an idle
/// virtual CPU can take milliseconds to be scheduled again, which would
/// make the tail measure the hypervisor).
const FIXED_RATE: f64 = 20_000.0;
/// Ramp: start, coarse and fine factors, step length, p99 limit (µs).
const RAMP_START: f64 = FIXED_RATE;
const RAMP_COARSE: f64 = 1.25;
const RAMP_FINE: f64 = 1.05;
const RAMP_STEP: Duration = Duration::from_millis(250);
pub const RAMP_LIMIT_US: f64 = 2_000.0;
const TICK: Duration = Duration::from_millis(10);

struct FftInputs {
    x: Vec<Vec<Complex>>,
    want: Vec<Vec<Complex>>,
}

struct BatchInputs {
    a: Vec<Matrix>,
    b: Vec<Matrix>,
    want: Vec<Matrix>,
}

fn fft_inputs(seed: u64) -> FftInputs {
    let mut rng = Rng::new(seed);
    let x: Vec<Vec<Complex>> = (0..FFT_INPUTS)
        .map(|_| {
            (0..FFT_N)
                .map(|_| Complex::new(rng.signed(), rng.signed()))
                .collect()
        })
        .collect();
    let want = x.iter().map(|v| dft_reference(v)).collect();
    FftInputs { x, want }
}

fn batch_inputs(seed: u64) -> BatchInputs {
    let mut rng = Rng::new(seed ^ 0xba7c);
    let mut m = || Matrix::from_fn(BATCH_N, BATCH_N, |_, _| rng.signed());
    let (a, b): (Vec<Matrix>, Vec<Matrix>) = (0..BATCH_INPUTS).map(|_| (m(), m())).unzip();
    let want = a.iter().zip(&b).map(|(a, b)| matmul(a, b)).collect();
    BatchInputs { a, b, want }
}

/// Shared state of the self-feeding batch pool.
struct Batch {
    inputs: BatchInputs,
    stop: AtomicBool,
    done: AtomicU64,
    bad: AtomicU64,
    body_cpu_ns: AtomicU64,
    traced: bool,
}

fn batch_job(pool: Arc<Pool>, b: Arc<Batch>, idx: usize) {
    let p2 = Arc::clone(&pool);
    pool.execute(move || {
        let c0 = if b.traced { sys::thread_cpu_ns() } else { 0 };
        let i = idx % BATCH_INPUTS;
        let out = matmul(&b.inputs.a[i], &b.inputs.b[i]);
        if out != b.inputs.want[i] {
            b.bad.fetch_add(1, Ordering::Relaxed);
        }
        if b.traced {
            b.body_cpu_ns
                .fetch_add(sys::thread_cpu_ns() - c0, Ordering::Relaxed);
        }
        b.done.fetch_add(1, Ordering::Relaxed);
        if !b.stop.load(Ordering::Acquire) {
            batch_job(p2, b, idx + 1);
        }
    });
}

/// One open-loop phase's observations.
#[derive(Default)]
struct Phase {
    latency_us: Vec<f64>,
    lag_us: Vec<f64>,
    execute_ns: Vec<f64>,
    fft_us: Vec<f64>,
    body_cpu_ns: u64,
    checked: u64,
    bad: u64,
    /// Jobs not finished at the last due instant.
    outstanding_at_end: u64,
    wall_s: f64,
}

/// Offers the schedule to `pool`, waits for every job, and returns the
/// observations. Latency runs from each job's due time to its completion.
fn open_loop(
    pool: &Pool,
    inputs: &Arc<FftInputs>,
    schedule: &[Duration],
    spans: &Spans,
    first_id: u64,
) -> Phase {
    let n = schedule.len();
    let done_ns: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
    let bad = Arc::new(AtomicU64::new(0));
    let body_cpu = Arc::new(AtomicU64::new(0));
    let fft_us = Arc::new(Mutex::new(Vec::new()));
    let completed = Arc::new(AtomicU64::new(0));
    let mut ph = Phase::default();
    let mut job_spans = Vec::with_capacity(if spans.enabled() { n } else { 0 });
    let start = Instant::now();
    for (i, off) in schedule.iter().enumerate() {
        let due = start + *off;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        ph.lag_us.push((sent - due).as_secs_f64() * 1e6);
        let (inputs, done_ns, bad, body_cpu, fft_us, completed, jspans) = (
            Arc::clone(inputs),
            Arc::clone(&done_ns),
            Arc::clone(&bad),
            Arc::clone(&body_cpu),
            Arc::clone(&fft_us),
            Arc::clone(&completed),
            spans.clone(),
        );
        let id = first_id + i as u64;
        let job_span = spans.new_id();
        let job = move || {
            let traced = jspans.enabled();
            let (t0, c0) = if traced {
                (Some(Instant::now()), sys::thread_cpu_ns())
            } else {
                (None, 0)
            };
            let k = (id as usize) % FFT_INPUTS;
            let mut data = inputs.x[k].clone();
            fft(&mut data);
            if id.is_multiple_of(CHECK_EVERY) {
                let tol = 1e-9 * FFT_N as f64;
                if data
                    .iter()
                    .zip(&inputs.want[k])
                    .any(|(a, b)| Complex::new(a.re - b.re, a.im - b.im).abs() > tol)
                {
                    bad.fetch_add(1, Ordering::Relaxed);
                }
            }
            let end = Instant::now();
            if let Some(t0) = t0 {
                body_cpu.fetch_add(sys::thread_cpu_ns() - c0, Ordering::Relaxed);
                fft_us
                    .lock()
                    .expect("fft log poisoned")
                    .push((end - t0).as_secs_f64() * 1e6);
                jspans.record("kernel.fft", NONE, id, job_span, t0, end);
            }
            done_ns[i].store(
                end.duration_since(start).as_nanos() as u64,
                Ordering::Release,
            );
            completed.fetch_add(1, Ordering::Release);
        };
        if spans.enabled() {
            let t = Instant::now();
            pool.execute(job);
            let t1 = Instant::now();
            ph.execute_ns.push((t1 - t).as_nanos() as f64);
            spans.record("pool.execute", NONE, id, job_span, t, t1);
            job_spans.push(job_span);
        } else {
            pool.execute(job);
        }
    }
    ph.outstanding_at_end = n as u64 - completed.load(Ordering::Acquire);
    pool.wait_idle();
    ph.wall_s = start.elapsed().as_secs_f64();
    for (i, off) in schedule.iter().enumerate() {
        let done = done_ns[i].load(Ordering::Acquire);
        ph.latency_us
            .push(done.saturating_sub(off.as_nanos() as u64) as f64 / 1e3);
        if let Some(&id) = job_spans.get(i) {
            let (due, end) = (start + *off, start + Duration::from_nanos(done));
            spans.record("latency.job", id, first_id + i as u64, NONE, due, end);
        }
    }
    ph.checked = (0..n as u64)
        .filter(|i| (first_id + i).is_multiple_of(CHECK_EVERY))
        .count() as u64;
    ph.bad = bad.load(Ordering::Relaxed);
    ph.body_cpu_ns = body_cpu.load(Ordering::Relaxed);
    ph.fft_us = std::mem::take(&mut *fft_us.lock().expect("fft log poisoned"));
    ph
}

pub fn run(cfg: &Cfg) -> Report {
    let mut rep = Report::default();
    let cpus = cfg.nproc;
    let w = 2 * cpus;
    let ((controller, batch_slot, lat_pool, batch_pool, inputs, batch), setup_s) =
        median_setup(15, || {
            let inputs = Arc::new(fft_inputs(cfg.seed));
            let batch = Arc::new(Batch {
                inputs: batch_inputs(cfg.seed),
                stop: AtomicBool::new(false),
                done: AtomicU64::new(0),
                bad: AtomicU64::new(0),
                body_cpu_ns: AtomicU64::new(0),
                traced: cfg.spans.enabled(),
            });
            let controller = Controller::new(cpus, TICK);
            let mut pcfg = PoolConfig::new(w);
            pcfg.pin = true;
            // Registered by hand to keep the batch pool's slot: its CPU set
            // is where the generator runs.
            let lat_pool = Pool::with_config(&controller, pcfg.clone());
            let batch_slot = controller.register(w);
            let batch_pool = Arc::new(Pool::with_slot_config(Arc::clone(&batch_slot), pcfg));
            controller.recompute_now();
            (controller, batch_slot, lat_pool, batch_pool, inputs, batch)
        });
    rep.setup_s = setup_s;
    for i in 0..w {
        batch_job(Arc::clone(&batch_pool), Arc::clone(&batch), i);
    }

    // The generator shares the batch pool's partition: beside a worker
    // that always runs, its wakeups meet the same contention in every run,
    // where beside the latency pool's worker they would depend on how long
    // that worker spins.
    sys::set_timer_slack_ns(1);
    if let Some(set) = batch_slot.cpus() {
        let set: Vec<usize> = set.iter().map(|&c| c as usize).collect();
        sys::set_affinity(&set);
    }

    // Fixed-rate phase: the latency figures and the batch pool's rate.
    let fixed_span = Duration::from_secs_f64(cfg.seconds * 0.7);
    let schedule = poisson_schedule(cfg.seed, FIXED_RATE, fixed_span);
    let cpu0 = sys::process_cpu_ns();
    let batch0 = batch.done.load(Ordering::Relaxed);
    let body0 = batch.body_cpu_ns.load(Ordering::Relaxed);
    let runq0 = sys::runq_wait_ns();
    let ctx0 = sys::usage().nonvol_ctx_switches;
    let t0 = Instant::now();
    let fixed = open_loop(&lat_pool, &inputs, &schedule, &cfg.spans, 0);
    let wall = t0.elapsed().as_secs_f64();
    rep.peak_rss_kb = Some(sys::usage().max_rss_kb);
    let batch_done = batch.done.load(Ordering::Relaxed) - batch0;
    let batch_body_ns = batch.body_cpu_ns.load(Ordering::Relaxed) - body0;
    let cpu_s = (sys::process_cpu_ns() - cpu0) as f64 / 1e9;
    rep.set(
        "os.runq_wait_ms",
        sys::runq_wait_ns().saturating_sub(runq0) as f64 / 1e6,
    );
    rep.set(
        "os.nonvol_ctx_switches",
        (sys::usage().nonvol_ctx_switches - ctx0) as f64,
    );
    rep.set_rates(batch_done, wall, cpu_s, "batch-pool products completed");
    rep.checks(fixed.checked, fixed.bad);
    rep.latency_us = fixed.latency_us.clone();
    rep.set_q("gen.lag_us_p99", &Summary::new(fixed.lag_us.clone()), 0.99);
    rep.note(format!(
        "latency: {} fft{FFT_N} jobs offered at {FIXED_RATE}/s over {wall:.3} s; batch pool \
         {batch_done} products of {BATCH_N}x{BATCH_N} ({:.1}/s), {cpu_s:.3} s CPU",
        schedule.len(),
        batch_done as f64 / wall
    ));

    // Stepped ramp: the highest offered rate whose p99 meets the limit
    // with no growing backlog, within the rest of the run.
    let ramp_budget = cfg.seconds * 0.25;
    let max_steps = ((ramp_budget / RAMP_STEP.as_secs_f64()) as usize).max(1);
    let mut next_id = schedule.len() as u64;
    let mut step_seed = cfg.seed;
    let mut step_checks = (0, 0);
    let r = ramp(
        RAMP_START,
        RAMP_COARSE,
        RAMP_FINE,
        RAMP_LIMIT_US,
        max_steps,
        |rate| {
            step_seed = step_seed.wrapping_add(1);
            let sched = poisson_schedule(step_seed, rate, RAMP_STEP);
            let off = Spans::new(false, cfg.origin);
            let ph = open_loop(&lat_pool, &inputs, &sched, &off, next_id);
            next_id += sched.len() as u64;
            step_checks.0 += ph.checked;
            step_checks.1 += ph.bad;
            StepOutcome {
                achieved_per_s: sched.len() as f64 / ph.wall_s,
                p99_us: Summary::new(ph.latency_us).q(0.99),
                // More than a millisecond of arrivals still queued at the last
                // due instant: the pool is falling behind.
                backlog_growing: ph.outstanding_at_end as f64 > (rate * 1e-3).max(50.0),
            }
        },
    );
    rep.checks(step_checks.0, step_checks.1);
    let (best, achieved) = r
        .best
        .map_or((0.0, 0.0), |(rate, o)| (rate, o.achieved_per_s));
    rep.set("ramp.max_rate_per_s", best);
    rep.note(format!(
        "ramp: {} steps of {} ms, limit p99 <= {RAMP_LIMIT_US} us; best offered {best:.0}/s \
         (achieved {achieved:.0}/s), first failure at {:?}/s",
        r.steps.len(),
        RAMP_STEP.as_millis(),
        r.failed_at.map(|f| f.round())
    ));
    for (rate, o, ok) in &r.steps {
        rep.note(format!(
            "  step {rate:.0}/s: p99 {:.1} us, backlog growing {}, {}",
            o.p99_us,
            o.backlog_growing,
            if *ok { "pass" } else { "fail" }
        ));
    }

    batch.stop.store(true, Ordering::Release);
    batch_pool.wait_idle();
    let total = batch.done.load(Ordering::Relaxed);
    rep.checks(total, batch.bad.load(Ordering::Relaxed));
    let mut agg = PoolAgg::default();
    let lat_snap = lat_pool.stats();
    let batch_snap = batch_pool.stats();
    rep.check(lat_snap.counters["jobs_run"] == next_id);
    rep.check(batch_snap.counters["jobs_run"] == total);
    agg.add(&lat_snap);
    agg.fill(&mut rep);
    rep.note(format!(
        "batch pool: spin_before_park sum {:.3} ms, parks {}",
        batch_snap.histograms["spin_before_park_ns"].sum as f64 / 1e6,
        batch_snap.histograms["park_ns"].count
    ));
    if cfg.spans.enabled() {
        rep.set_q("pool.execute_ns_p50", &Summary::new(fixed.execute_ns), 0.5);
        rep.set_q("kernel.fft_us_p50", &Summary::new(fixed.fft_us), 0.5);
        let body = fixed.body_cpu_ns + batch_body_ns;
        rep.set("kernel.useful_ratio", body as f64 / 1e9 / cpu_s);
    }
    sys::set_affinity(&[]);
    drop(lat_pool);
    drop(batch_pool);
    drop(controller);
    rep
}
