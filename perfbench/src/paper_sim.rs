//! `paper_sim`: the simulator regenerating the paper's figures.
//!
//! Each iteration rebuilds the Fig-1 sweep (the solo baselines its
//! speed-ups divide by, then matmul + fft together, no control, 1…24
//! processes each) and the Fig-5 controlled/uncontrolled pair with the
//! paper presets, one `run_scenario_instrumented` call per simulated
//! scenario, and checks the CSVs byte for byte against the
//! committed `results/fig1.csv` and `results/fig5_*.csv`. It exists so that
//! `desim`, `simkernel`, `machine`, `uthreads` and `procctl::server` are
//! measured too; a sans-IO rewrite of the server core must not slow them.

use std::collections::HashMap;
use std::time::Instant;

use bench::{baselines, fig4_launches, run_scenario_instrumented, AppKind, AppLaunch, SimEnv};
use bench::{ScenarioRun, PAPER_STAGGER};
use desim::{SimDur, SimTime};
use metrics::{runnable_app_series, runnable_total_series, series_csv, Series};
use workloads::Presets;

use crate::report::Report;
use crate::spans::NONE;
use crate::stats::Summary;
use crate::Cfg;

/// The committed Fig-1 sweep and the Fig-5 machine and poll period.
const FIG1_NPROCS: [u32; 11] = [1, 2, 4, 6, 8, 10, 12, 14, 16, 20, 24];
const FIG5_NPROCS: u32 = 16;
const FIG5_POLL: SimDur = SimDur(6_000_000_000);
/// Iterations a run makes at least, so every scenario has several timings.
const MIN_ITERATIONS: u64 = 5;
/// Simulated-time cap per scenario (as `bench::figures` uses).
const LIMIT: SimTime = SimTime(3_600 * 1_000_000_000);

struct Setup {
    env: SimEnv,
    presets: Presets,
    fig1: String,
    fig5_c: String,
    fig5_u: String,
    fig5_all: String,
}

fn committed(name: &str) -> String {
    std::fs::read_to_string(format!("results/{name}"))
        .unwrap_or_else(|e| panic!("read committed results/{name}: {e}"))
}

/// Deterministic counts of one Fig-5 pair, which a pure performance change
/// must leave exactly as they are.
#[derive(Default)]
struct Counts {
    work: u64,
    spin: u64,
    refill: u64,
    switch: u64,
    tasks_run: u64,
    suspends: u64,
    sweeps: u64,
}

impl Counts {
    fn add(&mut self, run: &ScenarioRun) {
        let c = &run.ledger.total;
        self.work += c.work.nanos();
        self.spin += c.spin.nanos();
        self.refill += c.refill.nanos();
        self.switch += c.switch.nanos();
        for a in &run.apps {
            self.tasks_run += a.metrics.tasks_run;
            self.suspends += a.metrics.suspends;
        }
        self.sweeps += run.sweeps.len() as u64;
    }
}

pub fn run(cfg: &Cfg) -> Report {
    let mut rep = Report::default();
    // The solo baselines are simulations like the scenarios and part of
    // regenerating Fig 1, so they are timed with them, not in set-up.
    let build = || Setup {
        env: SimEnv::default(),
        presets: Presets::paper(),
        fig1: committed("fig1.csv"),
        fig5_c: committed("fig5_controlled.csv"),
        fig5_u: committed("fig5_uncontrolled.csv"),
        fig5_all: committed("fig5_all.csv"),
    };
    // Set-up takes tens of microseconds, so a burst of repetitions catches
    // the host at one instant; it is repeated once per iteration instead,
    // spread over the run, and its median reported.
    let t = Instant::now();
    let st = build();
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let spans = &cfg.spans;
    // Wall and thread-CPU microseconds per scenario, iteration-major.
    let (mut scen_us, mut scen_cpu_us) = (Vec::new(), Vec::new());
    let (mut fig1_ms, mut fig5_ms) = (Vec::new(), Vec::new());
    let mut sim_cycles = 0u128;
    let mut sim_wall = 0.0;
    let mut counts: Option<Counts> = None;
    let mut first_base: Option<HashMap<AppKind, f64>> = None;
    // Runs one scenario, checks its cycle ledger, and counts its cycles;
    // returns it with its wall and thread-CPU microseconds.
    let mut scenario = |rep: &mut Report,
                        env: &SimEnv,
                        launches: &[AppLaunch],
                        poll: Option<SimDur>,
                        group: u64,
                        parent: u64| {
        let (t, c) = (Instant::now(), crate::sys::thread_cpu_ns());
        let run = run_scenario_instrumented(env, &st.presets, launches, poll, LIMIT);
        let t1 = Instant::now();
        let cpu_us = (crate::sys::thread_cpu_ns() - c) as f64 / 1e3;
        spans.record("sim.scenario", NONE, group, parent, t, t1);
        let wall = (t1 - t).as_secs_f64();
        sim_wall += wall;
        sim_cycles += u128::from(run.ledger.processor_cycles().nanos());
        rep.check(run.ledger.conserved());
        (run, wall * 1e6, cpu_us)
    };
    let start = Instant::now();
    let mut iter = 0u64;
    // The baselines, the Fig-1 sweep and the Fig-5 pair.
    let per_iter = 1 + FIG1_NPROCS.len() + 2;
    while iter < MIN_ITERATIONS || start.elapsed().as_secs_f64() < cfg.seconds {
        iter += 1;
        // Figure 1: speed-up = solo single-process wall / wall together.
        let t = Instant::now();
        let fig1_span = spans.new_id();
        let c = crate::sys::thread_cpu_ns();
        let base = baselines(&st.env, &st.presets, &[AppKind::Matmul, AppKind::Fft]);
        let tb = Instant::now();
        scen_cpu_us.push((crate::sys::thread_cpu_ns() - c) as f64 / 1e3);
        scen_us.push((tb - t).as_secs_f64() * 1e6);
        spans.record("sim.baselines", NONE, iter, fig1_span, t, tb);
        // Deterministic: every iteration's baselines equal the first's.
        match &first_base {
            Some(b) => rep.check(*b == base),
            None => first_base = Some(base.clone()),
        }
        let mut series = [Series::new("matmul"), Series::new("fft")];
        for &n in &FIG1_NPROCS {
            let launches: Vec<AppLaunch> = [AppKind::Matmul, AppKind::Fft]
                .into_iter()
                .map(|kind| AppLaunch {
                    kind,
                    nprocs: n,
                    start: SimTime::ZERO,
                })
                .collect();
            let (run, wall_us, cpu_us) =
                scenario(&mut rep, &st.env, &launches, None, iter, fig1_span);
            scen_us.push(wall_us);
            scen_cpu_us.push(cpu_us);
            for (s, a) in series.iter_mut().zip(&run.apps) {
                s.push(f64::from(n), base[&a.kind] / a.wall);
            }
        }
        rep.check(series_csv(&series) == st.fig1);
        let t1 = Instant::now();
        spans.record("sim.fig1", fig1_span, iter, NONE, t, t1);
        fig1_ms.push((t1 - t).as_secs_f64() * 1e3);

        // Figure 5: runnable processes over time, with and without control.
        let fig5_span = spans.new_id();
        let mut env = st.env;
        env.trace = true;
        let launches = fig4_launches(FIG5_NPROCS, PAPER_STAGGER);
        let mut pair = Vec::new();
        let mut iter_counts = Counts::default();
        for (poll, tag) in [(Some(FIG5_POLL), "controlled"), (None, "uncontrolled")] {
            let (run, wall_us, cpu_us) = scenario(&mut rep, &env, &launches, poll, iter, fig5_span);
            scen_us.push(wall_us);
            scen_cpu_us.push(cpu_us);
            iter_counts.add(&run);
            let tr = run.kernel.trace();
            let mut out: Vec<Series> = launches
                .iter()
                .enumerate()
                .map(|(i, l)| {
                    let label = format!("{} ({tag})", l.kind.name());
                    runnable_app_series(tr, simkernel::AppId(i as u32), label)
                })
                .collect();
            out.push(runnable_total_series(tr, format!("total ({tag})")));
            pair.push(out);
        }
        rep.check(series_csv(&pair[0]) == st.fig5_c);
        rep.check(series_csv(&pair[1]) == st.fig5_u);
        let all: Vec<Series> = pair.concat();
        rep.check(series_csv(&all) == st.fig5_all);
        let t2 = Instant::now();
        spans.record("sim.fig5", fig5_span, iter, NONE, t1, t2);
        fig5_ms.push((t2 - t1).as_secs_f64() * 1e3);
        match &counts {
            // Deterministic: every iteration must repeat the first exactly.
            Some(c) => rep.check(
                (c.work, c.tasks_run, c.sweeps)
                    == (iter_counts.work, iter_counts.tasks_run, iter_counts.sweeps),
            ),
            None => counts = Some(iter_counts),
        }
        let t = Instant::now();
        let again = build();
        setup_s.push(t.elapsed().as_secs_f64());
        drop(again);
    }
    let elapsed = start.elapsed().as_secs_f64();
    rep.setup_s = Summary::new(setup_s).p50();
    let n = scen_us.len() as f64;
    // Every iteration runs the same jobs (the baselines and 13 scenarios)
    // and is checked to repeat the first exactly (baselines, CSVs, ledgers,
    // counts), so a change to the code costs every iteration alike. Other
    // tenants of the host only ever add time, and they come and go within
    // a run, so each job's time is its fastest across iterations; the rates
    // and latencies follow from those.
    let fastest = |xs: &[f64], s: usize| {
        xs.iter()
            .skip(s)
            .step_by(per_iter)
            .copied()
            .fold(f64::INFINITY, f64::min)
    };
    let wall: Vec<f64> = (0..per_iter).map(|s| fastest(&scen_us, s)).collect();
    let cpu: f64 = (0..per_iter).map(|s| fastest(&scen_cpu_us, s)).sum();
    let wall_median: f64 = (0..per_iter)
        .map(|s| Summary::new(scen_us.iter().skip(s).step_by(per_iter).copied().collect()).p50())
        .sum();
    rep.jobs_per_s = per_iter as f64 / (wall.iter().sum::<f64>() / 1e6);
    rep.jobs_per_cpu_s = per_iter as f64 / (cpu / 1e6);
    rep.note(format!(
        "rates and latencies from each job's fastest time across {iter} iterations; \
         the job set took {:.3} ms at its fastest and {:.3} ms at the per-job median",
        wall.iter().sum::<f64>() / 1e3,
        wall_median / 1e3
    ));
    rep.latency_us = wall;
    rep.set("sim.cycles_per_s", sim_cycles as f64 / sim_wall);
    rep.set_q("sim.fig1_ms", &Summary::new(fig1_ms), 0.5);
    rep.set_q("sim.fig5_ms", &Summary::new(fig5_ms), 0.5);
    let c = counts.unwrap_or_default();
    rep.set("simkernel.work_cycles", c.work as f64);
    rep.set("simkernel.spin_cycles", c.spin as f64);
    rep.set("simkernel.refill_cycles", c.refill as f64);
    rep.set("simkernel.switch_cycles", c.switch as f64);
    rep.set("uthreads.tasks_run", c.tasks_run as f64);
    rep.set("uthreads.suspends", c.suspends as f64);
    rep.set("procctl.server_sweeps", c.sweeps as f64);
    rep.note(format!(
        "paper_sim: {iter} iterations of the solo baselines + Fig 1 ({} scenarios) + Fig 5 \
         pair in {elapsed:.3} s; {n} jobs; counts are one Fig-5 pair's ledger (simulated ns) \
         and threads counters",
        FIG1_NPROCS.len()
    ));
    rep
}
