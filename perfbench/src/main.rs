//! `perfbench`: the repository's benchmark, end to end and per layer.
//!
//! ```text
//! perfbench --workload <mix|latency|fleet|paper_sim> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the last stdout line is
//! a JSON object carrying every end-to-end metric; with `--trace 1` the run
//! is split into an untraced quarter, a traced half and an untraced quarter,
//! the last line carries every per-layer metric plus the tracing overhead,
//! and the traced half's spans are written as Perfetto JSON under
//! `perfbench/out/`. See
//! `perfbench/README.md` for the metric definitions.

mod converge;
mod fleet;
mod latency;
mod mix;
mod paper_sim;
mod report;
mod spans;
mod stats;
mod sys;

use std::fmt::Write as _;
use std::time::Instant;

use report::Report;
use spans::Spans;

/// What a workload run is given.
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub spans: Spans,
    /// Zero of every timestamp in the run (sampler, spans, episodes).
    pub origin: Instant,
    /// Processors the host offers; pools get twice this many workers.
    pub nproc: usize,
}

type Workload = fn(&Cfg) -> Report;

const WORKLOADS: [(&str, Workload); 4] = [
    ("mix", mix::run),
    ("latency", latency::run),
    ("fleet", fleet::run),
    ("paper_sim", paper_sim::run),
];

/// Every end-to-end metric with its unit; each workload reports all of them.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("jobs_per_cpu_s", "1/cpu-s"),
    ("latency_us_p95", "us"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Every per-layer metric with its unit. A workload that does not exercise
/// a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 69] = [
    ("pool.execute_ns_p50", "ns"),
    ("pool.queue_wait_us_p50", "us"),
    ("pool.queue_wait_us_p99", "us"),
    ("pool.wake_to_run_us_p50", "us"),
    ("pool.unpark_us_p50", "us"),
    ("pool.spin_budget_us", "us"),
    ("pool.park_count", "count"),
    ("pool.spin_before_park_ms_sum", "ms"),
    ("pool.suspends", "count"),
    ("pool.resumes", "count"),
    ("pool.suspend_to_resume_ms_p50", "ms"),
    ("pool.safepoint_ms_p50", "ms"),
    ("pool.settle_ms_p50", "ms"),
    ("deque.local_hit_ratio", "ratio"),
    ("deque.steals", "count"),
    ("deque.steal_success_ratio", "ratio"),
    ("deque.steal_skips_suspended", "count"),
    ("injector.pops", "count"),
    ("injector.sweep_skips", "count"),
    ("trace.events_per_job", "ratio"),
    ("trace.drop_ratio", "ratio"),
    ("trace.overhead_jobs_frac", "ratio"),
    ("trace.overhead_latency_frac", "ratio"),
    ("controller.arrival_us", "us"),
    ("controller.departure_us", "us"),
    ("controller.publish_ms_p50", "ms"),
    ("controller.overcommit_ms", "ms"),
    ("controller.target_overcommit_obs", "count"),
    ("converge.ms_p50", "ms"),
    ("converge.ms_p90", "ms"),
    ("converge.episodes", "count"),
    ("converge.unconverged", "count"),
    ("converge.bound_miss", "count"),
    ("converge.conservation_miss", "count"),
    ("supervise.publish_ms_p50", "ms"),
    ("uds.fixed_rate_latency_us_p50", "us"),
    ("uds.fixed_rate_latency_us_p95", "us"),
    ("uds.poll_rtt_us_p50", "us"),
    ("uds.poll_rtt_us_p99", "us"),
    ("uds.churn_rtt_us_p50", "us"),
    ("uds.report_rtt_us_p50", "us"),
    ("uds.recomputes_per_churn", "ratio"),
    ("uds.err_replies", "count"),
    ("reactor.frames_per_wakeup", "ratio"),
    ("reactor.saturation_per_s", "1/s"),
    ("reactor.busy_frac", "ratio"),
    ("partition.call_us_p50", "us"),
    ("ramp.max_rate_per_s", "1/s"),
    ("kernel.matmul_band_us_p50", "us"),
    ("kernel.fft_us_p50", "us"),
    ("kernel.useful_ratio", "ratio"),
    ("os.runq_wait_ms", "ms"),
    ("os.nonvol_ctx_switches", "count"),
    ("gen.lag_us_p99", "us"),
    ("latency.p50_us", "us"),
    ("latency.tail_us", "us"),
    ("sim.fig1_ms", "ms"),
    ("sim.fig5_ms", "ms"),
    ("sim.cycles_per_s", "1/s"),
    ("simkernel.work_cycles", "count"),
    ("simkernel.spin_cycles", "count"),
    ("simkernel.refill_cycles", "count"),
    ("simkernel.switch_cycles", "count"),
    ("uthreads.tasks_run", "count"),
    ("uthreads.suspends", "count"),
    ("procctl.server_sweeps", "count"),
    ("span.self_ms_total", "ms"),
    ("span.count", "count"),
    ("span.layers", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad --seed {val}"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|_| format!("bad --seconds {val}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {val} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {val}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A run's latency figures over all its samples, in microseconds.
struct Latency {
    p50: f64,
    p95: f64,
    /// The highest percentile with ten samples beyond it
    /// (`stats::tail_percentile`), and that percentile.
    tail: f64,
    tail_pct: f64,
}

fn latency(r: &Report) -> Latency {
    let s = stats::Summary::new(r.latency_us.clone());
    let (tail, tail_pct) = s.tail();
    Latency {
        p50: s.p50(),
        p95: s.q(0.95),
        tail,
        tail_pct,
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(&(_, workload)) = WORKLOADS.iter().find(|w| w.0 == args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stamp = format!(
        "workload={} seed={} seconds={} trace={} {} {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::host_fingerprint(),
        sys::code_fingerprint()
    );
    println!("# stamp: {stamp}");
    let origin = Instant::now();
    let cfg = |seconds: f64, traced: bool| Cfg {
        seed: args.seed,
        seconds,
        spans: Spans::new(traced, origin),
        origin,
        nproc,
    };

    let (rep, metrics, overhead) = if args.trace {
        // Untraced quarter, traced half, untraced quarter: the per-layer
        // numbers come from the traced half, the overhead from comparing it
        // with the mean of the quarters around it, which cancels a host
        // that drifts steadily through the run.
        let before = workload(&cfg(args.seconds / 4.0, false));
        let tcfg = cfg(args.seconds / 2.0, true);
        let mut rep = workload(&tcfg);
        let after = workload(&cfg(args.seconds / 4.0, false));
        let p50 = |r: &Report| latency(r).p50;
        let jobs = 1.0 - 2.0 * rep.jobs_per_s / (before.jobs_per_s + after.jobs_per_s);
        let lat = 2.0 * p50(&rep) / (p50(&before) + p50(&after)) - 1.0;
        rep.set("trace.overhead_jobs_frac", jobs);
        rep.set("trace.overhead_latency_frac", lat);
        let l = latency(&rep);
        rep.set("latency.p50_us", l.p50);
        rep.set("latency.tail_us", l.tail);
        write_trace(&args, &tcfg.spans, &stamp, &mut rep);
        rep.attempted += before.attempted + after.attempted;
        rep.failed += before.failed + after.failed;
        let m: Vec<(&str, &str, f64)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n, u, rep.layer.get(n).copied().unwrap_or(0.0)))
            .collect();
        (rep, m, Some((jobs, lat)))
    } else {
        let rep = workload(&cfg(args.seconds, false));
        let rss_kb = rep.peak_rss_kb.unwrap_or_else(|| sys::usage().max_rss_kb);
        let l = latency(&rep);
        println!(
            "# latency: n={}, p50 {:.3} us, p95 {:.3} us, p{} {:.3} us",
            rep.latency_us.len(),
            l.p50,
            l.p95,
            l.tail_pct * 100.0,
            l.tail
        );
        let vals = [
            rep.setup_s,
            rep.jobs_per_s,
            rep.jobs_per_cpu_s,
            l.p95,
            rss_kb as f64 / 1024.0,
            1.0 - rep.failed as f64 / rep.attempted.max(1) as f64,
        ];
        let m = END_TO_END
            .iter()
            .zip(vals)
            .map(|(&(n, u), v)| (n, u, v))
            .collect();
        (rep, m, None)
    };
    for line in &rep.notes {
        println!("# {line}");
    }
    if let Some((jobs, lat)) = overhead {
        println!(
            "# tracing overhead: jobs_per_s {:+.2}%, latency p50 {:+.2}% (traced half vs the \
             untraced quarters around it)",
            -jobs * 100.0,
            lat * 100.0
        );
    }
    for (n, u, v) in &metrics {
        println!("# {n} = {v} {u}");
    }
    let valid = metrics.iter().all(|m| m.2.is_finite())
        && (args.trace || metrics.iter().all(|m| m.2 > 0.0));
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        rep.failed == 0 && rep.attempted > 0 && valid,
        rep.attempted.max(1),
        rep.failed
    );
    for (i, (n, u, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
            num(*v)
        );
    }
    json.push_str("}}");
    println!("{json}");
}

/// Writes the traced half's spans as Perfetto JSON and prints each span
/// name's self time.
fn write_trace(args: &Args, spans: &Spans, stamp: &str, rep: &mut Report) {
    let all = spans.take();
    let (own, totals) = spans::self_times(&all);
    println!("# span self times (name: count, total ms, self ms):");
    for (name, (n, total, selft)) in &totals {
        println!(
            "#   {name}: {n}, {:.3}, {:.3}",
            *total as f64 / 1e6,
            *selft as f64 / 1e6
        );
    }
    rep.set(
        "span.self_ms_total",
        totals.values().map(|t| t.2).sum::<u64>() as f64 / 1e6,
    );
    rep.set("span.count", all.len() as f64);
    rep.set("span.layers", totals.len() as f64);
    let doc = spans::perfetto(&all, &own, &format!("perfbench {}", args.workload), stamp);
    let path = format!("perfbench/out/trace-{}-{}.json", args.workload, args.seed);
    let written =
        std::fs::create_dir_all("perfbench/out").and_then(|()| std::fs::write(&path, doc.render()));
    match written {
        Ok(()) => println!("# wrote {path} ({} spans)", all.len()),
        Err(e) => println!("# could not write {path}: {e}"),
    }
}
