//! `mix`: the paper's Fig 1/5 natively, as a closed loop.
//!
//! One persistent pool and one pool that arrives and departs on a fixed
//! schedule share one in-process `Controller` partitioning `nproc` CPUs;
//! each pool has `2 × nproc` workers, so the runnable threads exceed the
//! processors on purpose. Exactly two apps: with three on two CPUs the
//! floor of one worker per app pins every target at 1 and nothing
//! repartitions. Jobs are `workloads::native` matrix products split into
//! row-band child jobs forked from inside the pool, with a bounded window
//! of products in flight per pool. The per-worker deques, stealing,
//! suspend/resume and the controller do nearly all the work; no socket.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use native_rt::{Controller, Pool};
use procctl::{partition, AppDemand};
use workloads::native::matmul::{matmul, Matrix};

use crate::converge::{self, Event, Obs, Sampler};
use crate::report::{median_setup, PoolAgg, Report};
use crate::spans::{Spans, NONE};
use crate::stats::{Rng, Summary};
use crate::sys;
use crate::Cfg;

/// Matrix order, band height and distinct input pairs.
const N: usize = 96;
const BAND: usize = 8;
const INPUTS: usize = 32;
/// Controller ticker period (also the "poll interval" of the bound).
const TICK: Duration = Duration::from_millis(10);
/// Time the second app is present, then absent, per arrive/depart cycle.
const PHASE: Duration = Duration::from_millis(40);
/// Sampler period: fine enough for sub-millisecond episodes, coarse
/// enough not to steal the saturated processors from the pools.
const SAMPLE: Duration = Duration::from_micros(200);

struct Inputs {
    /// Per input: the row bands of A, B, and the serial product's bands.
    a_bands: Vec<Vec<Matrix>>,
    b: Vec<Matrix>,
    want: Vec<Vec<Vec<f64>>>,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        let mut inp = Inputs {
            a_bands: Vec::new(),
            b: Vec::new(),
            want: Vec::new(),
        };
        for _ in 0..INPUTS {
            let a = Matrix::from_fn(N, N, |_, _| rng.signed());
            let b = Matrix::from_fn(N, N, |_, _| rng.signed());
            let c = matmul(&a, &b);
            let bands: Vec<Matrix> = (0..N / BAND)
                .map(|k| Matrix::from_fn(BAND, N, |i, j| a.at(k * BAND + i, j)))
                .collect();
            let want = (0..N / BAND)
                .map(|k| (k * BAND..(k + 1) * BAND).flat_map(|i| (0..N).map(move |j| (i, j))))
                .map(|cells| cells.map(|(i, j)| c.at(i, j)).collect())
                .collect();
            inp.a_bands.push(bands);
            inp.b.push(b);
            inp.want.push(want);
        }
        inp
    }
}

/// A finished product: which pool slot, whether every band matched the
/// serial product, and when it was submitted and finished.
struct Done {
    slot: usize,
    ok: bool,
    submitted: Instant,
    finished: Instant,
    span: u64,
    group: u64,
}

struct Live {
    pool: Arc<Pool>,
    inflight: usize,
    submitted: u64,
}

type LiveSet = Arc<Mutex<Vec<Option<Arc<Pool>>>>>;

struct Shared {
    inputs: Arc<Inputs>,
    spans: Spans,
    /// Σ CPU time of job bodies (traced runs only), ns.
    body_cpu_ns: Arc<AtomicUsize>,
    band_us: Arc<Mutex<Vec<f64>>>,
    execute_ns: Mutex<Vec<f64>>,
}

fn submit(sh: &Shared, tx: &Sender<Done>, slot: usize, live: &mut Live, idx: usize, group: u64) {
    let pool = Arc::clone(&live.pool);
    let inputs = Arc::clone(&sh.inputs);
    let tx = tx.clone();
    let spans = sh.spans.clone();
    let body_cpu = Arc::clone(&sh.body_cpu_ns);
    let band_us = Arc::clone(&sh.band_us);
    let root_span = spans.new_id();
    let submitted = Instant::now();
    let job = move || {
        let nb = N / BAND;
        let left = Arc::new(AtomicUsize::new(nb));
        let bad = Arc::new(AtomicBool::new(false));
        for k in 0..nb {
            let (inputs, left, bad, tx) = (
                Arc::clone(&inputs),
                Arc::clone(&left),
                Arc::clone(&bad),
                tx.clone(),
            );
            let (spans, body_cpu, band_us) =
                (spans.clone(), Arc::clone(&body_cpu), Arc::clone(&band_us));
            pool.execute(move || {
                let traced = spans.enabled();
                let (t0, c0) = if traced {
                    (Some(Instant::now()), sys::thread_cpu_ns())
                } else {
                    (None, 0)
                };
                let out = matmul(&inputs.a_bands[idx][k], &inputs.b[idx]);
                if let Some(t0) = t0 {
                    let t1 = Instant::now();
                    body_cpu.fetch_add((sys::thread_cpu_ns() - c0) as usize, Ordering::Relaxed);
                    band_us
                        .lock()
                        .expect("band log poisoned")
                        .push((t1 - t0).as_secs_f64() * 1e6);
                    spans.record("kernel.matmul_band", NONE, group, root_span, t0, t1);
                }
                if out.data != inputs.want[idx][k] {
                    bad.store(true, Ordering::Relaxed);
                }
                if left.fetch_sub(1, Ordering::AcqRel) == 1 {
                    let _ = tx.send(Done {
                        slot,
                        ok: !bad.load(Ordering::Relaxed),
                        submitted,
                        finished: Instant::now(),
                        span: root_span,
                        group,
                    });
                }
            });
        }
    };
    if sh.spans.enabled() {
        let t = Instant::now();
        live.pool.execute(job);
        let t1 = Instant::now();
        sh.execute_ns
            .lock()
            .expect("execute log poisoned")
            .push((t1 - t).as_nanos() as f64);
        sh.spans
            .record("pool.execute", NONE, group, root_span, t, t1);
    } else {
        live.pool.execute(job);
    }
    live.inflight += 1;
    live.submitted += 1;
}

/// The controller's target for each of `n` pools of `w` workers on
/// `cpus` processors (floor of one, as `Controller` publishes it).
fn expected_target(cpus: usize, w: usize, n: usize) -> usize {
    let d = vec![AppDemand::new(w as u32); n];
    partition(cpus as u32, 0, &d)[0].max(1) as usize
}

pub fn run(cfg: &Cfg) -> Report {
    let mut rep = Report::default();
    let cpus = cfg.nproc;
    let w = 2 * cpus;
    let nb = (N / BAND) as u64;
    // Deep enough that a pool never runs dry while the submitter waits to
    // be scheduled, which made throughput follow the host's scheduling.
    let window = 4 * w;
    let ((controller, persistent, inputs), setup_s) = median_setup(15, || {
        let inputs = Arc::new(Inputs::new(cfg.seed));
        let controller = Controller::new(cpus, TICK);
        let persistent = Arc::new(Pool::new(&controller, w, false));
        (controller, persistent, inputs)
    });
    rep.setup_s = setup_s;
    let sh = Shared {
        inputs,
        spans: cfg.spans.clone(),
        body_cpu_ns: Arc::new(AtomicUsize::new(0)),
        band_us: Arc::new(Mutex::new(Vec::new())),
        execute_ns: Mutex::new(Vec::new()),
    };
    let mut rng = Rng::new(cfg.seed ^ 0x006d_6978);
    let live_set: LiveSet = Arc::new(Mutex::new(vec![Some(Arc::clone(&persistent)), None]));
    let probe_set = Arc::clone(&live_set);
    let rec = persistent.recorder();
    let sampler = Sampler::start(cfg.origin, SAMPLE, cpus, rec, move || {
        let set = probe_set.lock().expect("live set poisoned");
        let mut o = Obs {
            all_at_target: true,
            ..Obs::default()
        };
        for (i, p) in set.iter().enumerate() {
            let Some(p) = p else { continue };
            let (a, t) = (p.active(), p.target());
            if i == 0 {
                o.witness_active = a;
                o.witness_target = t;
            }
            o.npools += 1;
            o.all_at_target &= a == t;
            o.sum_active += a;
            o.sum_target += t;
        }
        o
    });

    let (tx, rx) = mpsc::channel::<Done>();
    let mut slots: [Option<Live>; 2] = [
        Some(Live {
            pool: persistent,
            inflight: 0,
            submitted: 0,
        }),
        None,
    ];
    let mut agg = PoolAgg::default();
    let mut latencies = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    let mut event_spans: Vec<(u64, &'static str, Instant, Instant)> = Vec::new();
    let (mut arrival_us, mut departure_us) = (Vec::new(), Vec::new());
    let mut group = 0u64;
    let next_idx = |rng: &mut Rng| (rng.next_u64() % INPUTS as u64) as usize;
    for _ in 0..window {
        group += 1;
        let idx = next_idx(&mut rng);
        submit(
            &sh,
            &tx,
            0,
            slots[0].as_mut().expect("persistent"),
            idx,
            group,
        );
    }

    let start = Instant::now();
    let cpu0 = sys::process_cpu_ns();
    let runq0 = sys::runq_wait_ns();
    let ctx0 = sys::usage().nonvol_ctx_switches;
    let end = start + Duration::from_secs_f64(cfg.seconds);
    let mut next_event = start + PHASE;
    let mut completed = 0u64;
    let handle = |d: Done,
                  slots: &mut [Option<Live>; 2],
                  rep: &mut Report,
                  latencies: &mut Vec<f64>,
                  refill: bool,
                  group: &mut u64,
                  rng: &mut Rng| {
        rep.check(d.ok);
        latencies.push((d.finished - d.submitted).as_secs_f64() * 1e6);
        sh.spans.record(
            "mix.product",
            d.span,
            d.group,
            NONE,
            d.submitted,
            d.finished,
        );
        let live = slots[d.slot].as_mut().expect("completion for a live pool");
        live.inflight -= 1;
        if refill {
            *group += 1;
            let idx = next_idx(rng);
            submit(&sh, &tx, d.slot, live, idx, *group);
        }
    };
    while Instant::now() < end {
        let now = Instant::now();
        match rx.recv_timeout(next_event.min(end).saturating_duration_since(now)) {
            Ok(d) => {
                completed += 1;
                handle(
                    d,
                    &mut slots,
                    &mut rep,
                    &mut latencies,
                    true,
                    &mut group,
                    &mut rng,
                );
                continue;
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => unreachable!("sender held here"),
        }
        if Instant::now() < next_event {
            continue;
        }
        // Causes are a phase apart from the previous cause, however long a
        // departing pool took to drain.
        next_event = Instant::now() + PHASE;
        if next_event > end {
            // No cause in the last phase: every episode gets a full phase
            // to converge while the load is still running.
            continue;
        }
        if slots[1].is_none() {
            // Arrival: Pool::new registers with the controller (which
            // recomputes and publishes) and spawns 2×nproc workers.
            let t0 = Instant::now();
            let pool = Arc::new(Pool::new(&controller, w, false));
            let t1 = Instant::now();
            arrival_us.push((t1 - t0).as_secs_f64() * 1e6);
            event_spans.push((events.len() as u64, "controller.arrival", t0, t1));
            events.push(Event {
                t0_ns: (t0 - cfg.origin).as_nanos() as u64,
                npools: 2,
                witness_target: expected_target(cpus, w, 2),
            });
            live_set.lock().expect("live set poisoned")[1] = Some(Arc::clone(&pool));
            let mut live = Live {
                pool,
                inflight: 0,
                submitted: 0,
            };
            for _ in 0..window {
                group += 1;
                let idx = next_idx(&mut rng);
                submit(&sh, &tx, 1, &mut live, idx, group);
            }
            slots[1] = Some(live);
        } else {
            // Departure: stop feeding the pool, let its window drain
            // (the persistent pool keeps its window full meanwhile),
            // then drop it and recompute.
            while slots[1].as_ref().is_some_and(|l| l.inflight > 0) {
                let d = rx.recv().expect("sender held here");
                completed += 1;
                let refill = d.slot == 0;
                handle(
                    d,
                    &mut slots,
                    &mut rep,
                    &mut latencies,
                    refill,
                    &mut group,
                    &mut rng,
                );
            }
            let live = slots[1].take().expect("departing pool");
            live_set.lock().expect("live set poisoned")[1] = None;
            live.pool.wait_idle();
            let snap = live.pool.stats();
            rep.check(snap.counters["jobs_run"] == live.submitted * (1 + nb));
            agg.add(&snap);
            // A root job drops its handle just after forking its last
            // band, which may already have finished: wait for that.
            let mut pool = live.pool;
            let pool = loop {
                match Arc::try_unwrap(pool) {
                    Ok(p) => break p,
                    Err(p) => {
                        pool = p;
                        std::thread::yield_now();
                    }
                }
            };
            let t0 = Instant::now();
            drop(pool);
            controller.recompute_now();
            let t1 = Instant::now();
            departure_us.push((t1 - t0).as_secs_f64() * 1e6);
            event_spans.push((events.len() as u64, "controller.departure", t0, t1));
            events.push(Event {
                t0_ns: (t0 - cfg.origin).as_nanos() as u64,
                npools: 1,
                witness_target: expected_target(cpus, w, 1),
            });
            // The drain above can be long: the next arrival still waits a
            // full phase after this cause.
            next_event = t1 + PHASE;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let cpu_s = (sys::process_cpu_ns() - cpu0) as f64 / 1e9;
    rep.set(
        "os.runq_wait_ms",
        sys::runq_wait_ns().saturating_sub(runq0) as f64 / 1e6,
    );
    rep.set(
        "os.nonvol_ctx_switches",
        (sys::usage().nonvol_ctx_switches - ctx0) as f64,
    );
    // Drain both pools; later completions are checked but not timed.
    while slots.iter().flatten().any(|l| l.inflight > 0) {
        let d = rx.recv().expect("sender held here");
        handle(
            d,
            &mut slots,
            &mut rep,
            &mut latencies,
            false,
            &mut group,
            &mut rng,
        );
    }
    let tl = sampler.finish();
    for live in slots.into_iter().flatten() {
        live.pool.wait_idle();
        let snap = live.pool.stats();
        rep.check(snap.counters["jobs_run"] == live.submitted * (1 + nb));
        agg.add(&snap);
    }
    drop(controller);

    rep.set_rates(completed, elapsed, cpu_s, "products completed");
    latencies.truncate(completed as usize);
    rep.latency_us = latencies;
    rep.note(format!(
        "mix: {completed} products of {N}x{N} in {elapsed:.3} s wall, {cpu_s:.3} s CPU; \
         {} arrive/depart episodes; cpus={cpus} workers/pool={w} window={window}",
        events.len()
    ));
    agg.fill(&mut rep);
    rep.set("controller.overcommit_ms", tl.overcommit_ms);
    rep.set(
        "controller.target_overcommit_obs",
        tl.target_overcommit_obs as f64,
    );
    rep.set_q("controller.arrival_us", &Summary::new(arrival_us), 0.5);
    rep.set_q("controller.departure_us", &Summary::new(departure_us), 0.5);

    let band = Summary::new(std::mem::take(&mut *sh.band_us.lock().expect("band log")));
    if sh.spans.enabled() {
        let exec = std::mem::take(&mut *sh.execute_ns.lock().expect("execute log"));
        rep.set_q("pool.execute_ns_p50", &Summary::new(exec), 0.5);
        rep.set_q("kernel.matmul_band_us_p50", &band, 0.5);
        rep.set(
            "kernel.useful_ratio",
            sh.body_cpu_ns.load(Ordering::Relaxed) as f64 / 1e9 / cpu_s,
        );
    }
    // ROADMAP bound: poll interval + one job grain + wake latency.
    let bound_ms =
        TICK.as_secs_f64() * 1e3 + band.q(0.99) / 1e3 + agg.hist_q("unpark_ns", 0.99) / 1e6;
    let stats = converge::record(
        &mut rep,
        &sh.spans,
        &tl,
        &events,
        &event_spans,
        cfg.origin,
        bound_ms,
    );
    rep.set_q("controller.publish_ms_p50", &stats.publish, 0.5);
    rep
}
