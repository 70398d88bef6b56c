//! `fleet`: an open loop against the cross-process control plane.
//!
//! An in-process reactor `UdsServer` serves made-up-pid applications over
//! at most `nproc` connections: POLL at a fixed aggregate rate, REPORT on
//! top of it, and REGISTER/BYE churn (writes beside the reads). One real
//! `Pool`, driven by `SupervisedClient::spawn_poller` and registered under
//! the benchmark's own pid, has its target flipped by the churn: this is
//! the only workload that measures the cross-process control loop end to
//! end. The socket, reactor, partition and supervisor do the work; the
//! pool does almost none.
//!
//! Every made-up application declares one worker, so it always gets the
//! floor of one processor and the real pool gets the rest of the server's
//! (virtual) processors: `cpus` alone, `cpus − churn` while the churn apps
//! are registered. Those expected targets are what the replies and the
//! convergence episodes are checked against.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use native_rt::{
    PollerGuard, Pool, SupervisedClient, SupervisorConfig, TargetSlot, UdsServer, UdsServerConfig,
};
use procctl::{assign_cpu_sets, partition, AppDemand};

use crate::converge::{self, Event, Obs, Sampler};
use crate::report::{median_setup, PoolAgg, Report};
use crate::spans::NONE;
use crate::stats::{poisson_schedule, ramp, Rng, StepOutcome, Summary};
use crate::sys;
use crate::Cfg;

/// Made-up applications polling the server: the 64-connection point at
/// which `serverd_bench` reads its acceptance criterion. Their pids lie
/// above any Linux `pid_max`, so never a live process.
const APPS: u32 = 64;
const PID_BASE: u32 = 2_000_000_000;
const CHURN_PID_BASE: u32 = 2_100_000_000;
/// Every application, the real pool's supervisor included, polls at the
/// fastest cadence the repository's own supervised pollers use (10 ms in
/// the native-rt stress test; 20–100 ms in the examples and chaos tests).
const POLL_INTERVAL_MS: u64 = 10;
const POLL_INTERVAL: Duration = Duration::from_millis(POLL_INTERVAL_MS);
/// The fixed offered POLL rate: every application once per interval.
const POLL_RATE: f64 = APPS as f64 * 1_000.0 / POLL_INTERVAL_MS as f64;
/// One REPORT per this many POLLs on top: `serverd_bench`'s mixed traffic
/// (heartbeats plus throughput feedback) is 3 POLL : 1 REPORT.
const POLLS_PER_REPORT: f64 = 3.0;
/// REGISTER/BYE churn every four poll intervals, so each episode is polled
/// several times before the next cause. A 30 s run's fixed-rate phase then
/// holds 300 episodes, more than the 100 its p90 needs for ten beyond.
const CHURN: Duration = Duration::from_millis(4 * POLL_INTERVAL_MS);
/// Shares of `--seconds`: fixed-rate phase, saturation, ramp.
const FIXED_SHARE: f64 = 0.4;
const SATURATION_SHARE: f64 = 0.35;
const RAMP_SHARE: f64 = 0.25;
/// A tiny job trickles into the real pool this often, so its workers pass
/// safe points: the job grain of the convergence bound.
const TRICKLE: Duration = Duration::from_millis(1);
const SAMPLE: Duration = Duration::from_micros(200);
/// POLLs kept outstanding per connection in the saturation phase, and
/// one reply in this many timed there.
const WINDOW: usize = 256;
const SAT_LATENCY_EVERY: u64 = 16;
/// The reactor thread's name as `/proc` shows it (15 bytes at most).
const REACTOR_THREAD: &str = "procctl-uds-rea";
/// Ramp from the fixed rate: coarse and fine factors, step length, p99
/// limit (µs).
const RAMP_COARSE: f64 = 1.5;
const RAMP_FINE: f64 = 1.1;
const RAMP_STEP: Duration = Duration::from_millis(250);
pub const RAMP_LIMIT_US: f64 = 1_000.0;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Poll,
    Report,
    Register,
    Bye,
}

/// A scheduled frame batch: at `due`, send `kind` for these pids.
struct Frame {
    due: Duration,
    kind: Kind,
    app: u32,
}

struct Pending {
    due_ns: u64,
    sent_ns: u64,
    kind: Kind,
}

struct Conn {
    stream: UnixStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    pending: VecDeque<Pending>,
}

impl Conn {
    fn flush(&mut self) {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) => panic!("control socket write failed: {e}"),
            }
        }
        self.out.clear();
        self.out_pos = 0;
    }

    /// Reads what is available; returns complete reply lines.
    fn read_lines(&mut self, lines: &mut Vec<String>) {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => panic!("control server closed the connection"),
                Ok(n) => self.inbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => panic!("control socket read failed: {e}"),
            }
        }
        let mut start = 0;
        while let Some(p) = self.inbuf[start..].iter().position(|&b| b == b'\n') {
            lines.push(String::from_utf8_lossy(&self.inbuf[start..start + p]).into_owned());
            start += p + 1;
        }
        self.inbuf.drain(..start);
    }
}

/// What one open-loop phase saw.
#[derive(Default)]
struct Phase {
    latency_us: Vec<f64>,
    poll_rtt_us: Vec<f64>,
    churn_rtt_us: Vec<f64>,
    report_rtt_us: Vec<f64>,
    lag_us: Vec<f64>,
    replies: u64,
    bad: u64,
    err: u64,
    outstanding_at_end: u64,
    wall_s: f64,
    /// Churn writes: (time, registered-after).
    churn_at: Vec<(Instant, bool)>,
}

struct Fleet {
    /// Declared first so the poller says BYE before the server stops.
    guard: Option<PollerGuard>,
    pool: Arc<Pool>,
    conns: Vec<Conn>,
    server: UdsServer,
    path: PathBuf,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        drop(self.guard.take());
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The real pool's expected target with or without the churn apps, from
/// the same partition arithmetic the server runs.
fn expected_target(cpus: usize, churned: bool) -> (usize, Vec<AppDemand>) {
    let extra = if churned { churn_apps(cpus) } else { 0 };
    let mut d = vec![AppDemand::new(1); (APPS + extra) as usize];
    d.push(AppDemand::new(2 * cpus as u32));
    let t = partition(server_cpus(cpus) as u32, 0, &d);
    (*t.last().expect("real pool") as usize, d)
}

fn churn_apps(cpus: usize) -> u32 {
    (cpus as u32).div_ceil(2)
}

fn server_cpus(cpus: usize) -> usize {
    APPS as usize + cpus
}

fn frame(out: &mut Vec<u8>, kind: Kind, pid: u32, seq: u64) {
    let s = match kind {
        Kind::Poll => format!("POLL {pid}\n"),
        Kind::Report => format!("REPORT {pid} jobs_run={seq} steals=0\n"),
        Kind::Register => format!("REGISTER {pid} 1\n"),
        Kind::Bye => format!("BYE {pid}\n"),
    };
    out.extend_from_slice(s.as_bytes());
}

fn setup(cfg: &Cfg, rep_no: usize) -> Fleet {
    let cpus = cfg.nproc;
    std::fs::create_dir_all("perfbench/out").expect("create perfbench/out");
    let path = PathBuf::from(format!(
        "perfbench/out/fleet-{}-{rep_no}.sock",
        std::process::id()
    ));
    let mut scfg = UdsServerConfig::new(&path, server_cpus(cpus));
    scfg.prune_dead = false;
    scfg.lease_ttl = Duration::from_secs(600);
    // The reactor thread inherits this thread's affinity at spawn. It and
    // the generator (see `run`) share processor 0, so every run has the
    // same placement and each frame's wakeups stay on one processor,
    // instead of whatever the scheduler picks.
    sys::set_affinity(&[0]);
    let server = UdsServer::start(scfg);
    // Everything else (pool workers, poller, sampler) starts on the last
    // processor, away from the frame path.
    sys::set_affinity(&[cpus - 1]);
    let server = server.expect("start control server");
    let mut conns: Vec<Conn> = (0..cpus)
        .map(|_| {
            let stream = UnixStream::connect(&path).expect("connect to control server");
            Conn {
                stream,
                out: Vec::new(),
                out_pos: 0,
                inbuf: Vec::new(),
                pending: VecDeque::new(),
            }
        })
        .collect();
    // Register the fleet, one blocking round trip per connection.
    let n = conns.len() as u32;
    for (c, conn) in conns.iter_mut().enumerate() {
        let mut out = Vec::new();
        let mine: Vec<u32> = (0..APPS).filter(|a| a % n == c as u32).collect();
        for a in &mine {
            frame(&mut out, Kind::Register, PID_BASE + a, 0);
        }
        conn.stream.write_all(&out).expect("register fleet");
        let mut got = 0;
        let mut lines = Vec::new();
        while got < mine.len() {
            let mut buf = [0u8; 4096];
            let k = conn.stream.read(&mut buf).expect("register replies");
            assert!(k > 0, "server closed during registration");
            conn.inbuf.extend_from_slice(&buf[..k]);
            lines.clear();
            let mut start = 0;
            while let Some(p) = conn.inbuf[start..].iter().position(|&b| b == b'\n') {
                lines.push(String::from_utf8_lossy(&conn.inbuf[start..start + p]).into_owned());
                start += p + 1;
            }
            conn.inbuf.drain(..start);
            assert!(
                lines.iter().all(|l| l.starts_with("OK ")),
                "register: {lines:?}"
            );
            got += lines.len();
        }
        conn.stream.set_nonblocking(true).expect("nonblocking");
    }
    let w = 2 * cpus;
    let slot = Arc::new(TargetSlot::new(w));
    let pool = Arc::new(Pool::with_slot(Arc::clone(&slot), w, false));
    let sup = SupervisedClient::new(SupervisorConfig::new(&path, w as u32), pool.registry());
    let guard = sup.spawn_poller(slot, POLL_INTERVAL, false);
    // Set-up ends when the real pool runs at its share.
    let want = expected_target(cpus, false).0;
    let deadline = Instant::now() + Duration::from_secs(10);
    while pool.target() != want || pool.active() != want {
        assert!(
            Instant::now() < deadline,
            "real pool never reached its target"
        );
        pool.execute(|| {});
        std::thread::sleep(Duration::from_micros(20));
    }
    Fleet {
        guard: Some(guard),
        pool,
        conns,
        server,
        path,
    }
}

/// Runs `frames` open-loop over the fleet's connections, trickling tiny
/// jobs into the real pool, until every reply is in.
fn open_loop(fleet: &mut Fleet, frames: &[Frame], cpus: usize, churned: &mut bool) -> Phase {
    let mut ph = Phase::default();
    let nconn = fleet.conns.len() as u32;
    let start = Instant::now();
    let ns = |t: Instant| t.duration_since(start).as_nanos() as u64;
    let mut next = 0usize;
    let mut next_trickle = Duration::ZERO;
    let mut seq = 0u64;
    let mut lines = Vec::new();
    let last_due = frames.last().map_or(Duration::ZERO, |f| f.due);
    let mut outstanding_marked = false;
    loop {
        let now = start.elapsed();
        while next < frames.len() && frames[next].due <= now {
            let f = &frames[next];
            let sent = Instant::now();
            ph.lag_us.push((now - f.due).as_secs_f64() * 1e6);
            let (conn, pids): (usize, Vec<u32>) = match f.kind {
                Kind::Poll | Kind::Report => ((f.app % nconn) as usize, vec![PID_BASE + f.app]),
                Kind::Register | Kind::Bye => (
                    0,
                    (0..churn_apps(cpus)).map(|j| CHURN_PID_BASE + j).collect(),
                ),
            };
            let c = &mut fleet.conns[conn];
            for pid in pids {
                seq += 1;
                frame(&mut c.out, f.kind, pid, seq);
                c.pending.push_back(Pending {
                    due_ns: f.due.as_nanos() as u64,
                    sent_ns: ns(sent),
                    kind: f.kind,
                });
            }
            if matches!(f.kind, Kind::Register | Kind::Bye) {
                c.flush();
                *churned = f.kind == Kind::Register;
                ph.churn_at.push((Instant::now(), *churned));
            }
            next += 1;
        }
        if !outstanding_marked && next == frames.len() {
            ph.outstanding_at_end = fleet.conns.iter().map(|c| c.pending.len() as u64).sum();
            outstanding_marked = true;
        }
        if now >= next_trickle && now <= last_due {
            fleet.pool.execute(|| {
                std::hint::black_box((0..64u64).sum::<u64>());
            });
            next_trickle = now + TRICKLE;
        }
        for c in &mut fleet.conns {
            c.flush();
        }
        for c in &mut fleet.conns {
            lines.clear();
            c.read_lines(&mut lines);
            let t = ns(Instant::now());
            for line in &lines {
                let p = c.pending.pop_front().expect("reply without a request");
                ph.replies += 1;
                ph.latency_us.push(t.saturating_sub(p.due_ns) as f64 / 1e3);
                let rtt = t.saturating_sub(p.sent_ns) as f64 / 1e3;
                let ok = match p.kind {
                    Kind::Poll => {
                        ph.poll_rtt_us.push(rtt);
                        // Every made-up app holds the floor of one.
                        line.split_whitespace().nth(1) == Some("1") && line.starts_with("TARGET ")
                    }
                    Kind::Report => {
                        ph.report_rtt_us.push(rtt);
                        line.starts_with("OK ")
                    }
                    Kind::Register | Kind::Bye => {
                        ph.churn_rtt_us.push(rtt);
                        line.starts_with("OK ")
                    }
                };
                if line.starts_with("ERR") {
                    ph.err += 1;
                }
                ph.bad += u64::from(!ok);
            }
        }
        let pending = fleet.conns.iter().any(|c| !c.pending.is_empty());
        if next == frames.len() && !pending {
            break;
        }
        // The generator never sleeps: an idle virtual CPU can take
        // milliseconds to run again, which sleeping until the next due
        // instant put into the generator's lag and every frame's latency.
        // It yields on every pass instead, so the reactor it shares a
        // processor with runs whenever it has work.
        std::thread::yield_now();
    }
    ph.wall_s = start.elapsed().as_secs_f64();
    ph
}

/// Closed-loop saturation: keeps [`WINDOW`] POLLs outstanding on every
/// connection for `span`, then collects the rest. Returns the replies, the
/// bad ones, and the latency of one reply in [`SAT_LATENCY_EVERY`] (from
/// the pass that handed its frame to the socket to the pass that read its
/// reply), in microseconds.
///
/// The generator does as little as it can per frame, so that the reactor,
/// not the generator, sets the rate: every frame is copied from bytes
/// rendered once, and replies are checked in place without allocating.
fn saturate(fleet: &mut Fleet, span: Duration) -> (u64, u64, Vec<f64>) {
    let nconn = fleet.conns.len();
    // Apps stay on their own connection, as in the open loop, and each
    // connection cycles through its own.
    let per = (APPS as usize / nconn).max(1);
    let rendered: Vec<Vec<u8>> = (0..nconn)
        .map(|c| {
            let mut out = Vec::new();
            for k in 0..per + WINDOW {
                let a = ((k % per) * nconn + c) as u32;
                frame(&mut out, Kind::Poll, PID_BASE + a, 0);
            }
            out
        })
        .collect();
    // Every pid has ten digits, so every frame has the same length.
    let len = rendered[0].len() / (per + WINDOW);
    assert!(rendered.iter().all(|r| r.len() == len * (per + WINDOW)));
    let mut cursor = vec![0usize; nconn];
    // Per connection: frames in flight, and (count, sent) per batch.
    let mut inflight = vec![0usize; nconn];
    let mut batches: Vec<VecDeque<(usize, u64)>> = vec![VecDeque::new(); nconn];
    let (mut replies, mut bad) = (0u64, 0u64);
    let mut latency_us = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    let start = Instant::now();
    let ns = |t: Instant| t.duration_since(start).as_nanos() as u64;
    let mut sending = true;
    loop {
        sending = sending && start.elapsed() < span;
        for (c, conn) in fleet.conns.iter_mut().enumerate() {
            let k = if sending { WINDOW - inflight[c] } else { 0 };
            if k > 0 {
                let at = cursor[c];
                conn.out
                    .extend_from_slice(&rendered[c][at * len..(at + k) * len]);
                cursor[c] = (at + k) % per;
                inflight[c] += k;
                batches[c].push_back((k, ns(Instant::now())));
            }
            conn.flush();
            let n = match conn.stream.read(&mut buf) {
                Ok(0) => panic!("control server closed the connection"),
                Ok(n) => n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    continue
                }
                Err(e) => panic!("control socket read failed: {e}"),
            };
            let t = ns(Instant::now());
            conn.inbuf.extend_from_slice(&buf[..n]);
            let mut from = 0;
            while let Some(p) = conn.inbuf[from..].iter().position(|&b| b == b'\n') {
                bad += u64::from(!conn.inbuf[from..from + p].starts_with(b"TARGET 1 "));
                from += p + 1;
                let front = batches[c].front_mut().expect("reply without a request");
                if replies % SAT_LATENCY_EVERY == 0 {
                    latency_us.push(t.saturating_sub(front.1) as f64 / 1e3);
                }
                front.0 -= 1;
                if front.0 == 0 {
                    batches[c].pop_front();
                }
                inflight[c] -= 1;
                replies += 1;
            }
            conn.inbuf.drain(..from);
        }
        if !sending && inflight.iter().all(|&n| n == 0) {
            break;
        }
    }
    (replies, bad, latency_us)
}

/// POLL and REPORT frames at `rate` POLLs/s over `span`, plus churn every
/// [`CHURN`] when `churn` is set, merged in due order.
fn schedule(seed: u64, rate: f64, span: Duration, churn: bool, registered: bool) -> Vec<Frame> {
    let mut rng = Rng::new(seed ^ 0xf1ee7);
    let mut frames: Vec<Frame> = poisson_schedule(seed, rate, span)
        .into_iter()
        .map(|due| Frame {
            due,
            kind: Kind::Poll,
            app: (rng.next_u64() % u64::from(APPS)) as u32,
        })
        .collect();
    frames.extend(
        poisson_schedule(seed ^ 0x5e9, rate / POLLS_PER_REPORT, span)
            .into_iter()
            .map(|due| Frame {
                due,
                kind: Kind::Report,
                app: (rng.next_u64() % u64::from(APPS)) as u32,
            }),
    );
    if churn {
        let mut t = CHURN;
        let mut reg = registered;
        while t < span {
            reg = !reg;
            frames.push(Frame {
                due: t,
                kind: if reg { Kind::Register } else { Kind::Bye },
                app: 0,
            });
            t += CHURN;
        }
    }
    frames.sort_by_key(|f| f.due);
    frames
}

pub fn run(cfg: &Cfg) -> Report {
    let mut rep = Report::default();
    let cpus = cfg.nproc;
    sys::set_timer_slack_ns(1);
    let mut reps = 0;
    let (mut fleet, setup_s) = median_setup(31, || {
        reps += 1;
        setup(cfg, reps)
    });
    rep.setup_s = setup_s;
    let probe = Arc::clone(&fleet.pool);
    let rec = fleet.pool.recorder();
    let sampler = Sampler::start(cfg.origin, SAMPLE, cpus, rec, move || {
        let (a, t) = (probe.active(), probe.target());
        Obs {
            npools: 1,
            witness_active: a,
            witness_target: t,
            all_at_target: a == t,
            sum_active: a,
            sum_target: t,
        }
    });

    sys::set_affinity(&[0]);

    // Fixed-rate phase with churn.
    let span = Duration::from_secs_f64(cfg.seconds * FIXED_SHARE);
    let frames = schedule(cfg.seed, POLL_RATE, span, true, false);
    let s0 = fleet.server.stats();
    let cpu0 = sys::process_cpu_ns();
    let runq0 = sys::runq_wait_ns();
    let ctx0 = sys::usage().nonvol_ctx_switches;
    let mut churned = false;
    let ph = open_loop(&mut fleet, &frames, cpus, &mut churned);
    let cpu_s = (sys::process_cpu_ns() - cpu0) as f64 / 1e9;
    rep.peak_rss_kb = Some(sys::usage().max_rss_kb);
    rep.set(
        "os.runq_wait_ms",
        sys::runq_wait_ns().saturating_sub(runq0) as f64 / 1e6,
    );
    rep.set(
        "os.nonvol_ctx_switches",
        (sys::usage().nonvol_ctx_switches - ctx0) as f64,
    );
    let s1 = fleet.server.stats();
    let d = |k: &str| (s1.counters[k] - s0.counters[k]) as f64;
    let frames_served = d("polls") + d("reports") + d("registers") + d("byes");
    rep.set(
        "reactor.frames_per_wakeup",
        frames_served / d("reactor_wakeups").max(1.0),
    );
    let churns = ph.churn_at.len() as f64;
    rep.set(
        "uds.recomputes_per_churn",
        d("recompute_coalesced") / churns.max(1.0),
    );
    rep.set("uds.err_replies", ph.err as f64);
    rep.checks(ph.replies, ph.bad);
    let fixed = Summary::new(ph.latency_us.clone());
    rep.set_q("uds.fixed_rate_latency_us_p50", &fixed, 0.5);
    rep.set("uds.fixed_rate_latency_us_p95", fixed.q(0.95));
    rep.note(format!(
        "fixed-rate latency (frame due → reply read): n={}, p50 {:.3} us, p95 {:.3} us",
        fixed.n(),
        fixed.p50(),
        fixed.q(0.95)
    ));
    rep.set_q(
        "uds.poll_rtt_us_p50",
        &Summary::new(ph.poll_rtt_us.clone()),
        0.5,
    );
    rep.set_q(
        "uds.poll_rtt_us_p99",
        &Summary::new(ph.poll_rtt_us.clone()),
        0.99,
    );
    rep.set_q(
        "uds.churn_rtt_us_p50",
        &Summary::new(ph.churn_rtt_us.clone()),
        0.5,
    );
    rep.set_q(
        "uds.report_rtt_us_p50",
        &Summary::new(ph.report_rtt_us.clone()),
        0.5,
    );
    rep.set_q("gen.lag_us_p99", &Summary::new(ph.lag_us.clone()), 0.99);
    rep.note(format!(
        "fleet: {} replies at {POLL_RATE} POLL/s + 1 REPORT per {POLLS_PER_REPORT} POLL over {:.3} s, \
         {} churn episodes, {} connections, {APPS} apps on {} server cpus, {cpu_s:.3} s CPU",
        ph.replies,
        ph.wall_s,
        ph.churn_at.len(),
        fleet.conns.len(),
        server_cpus(cpus)
    ));

    // Convergence: churn write → the real pool at its new target. The
    // partition call on the fleet's demand vector is timed beside it.
    let mut events = Vec::new();
    let mut causes = Vec::new();
    let mut part_us = Vec::new();
    let order: Vec<u32> = (0..server_cpus(cpus) as u32).collect();
    for (i, (at, reg)) in ph.churn_at.iter().enumerate() {
        let t = Instant::now();
        let (want, demands) = expected_target(cpus, *reg);
        let targets = partition(server_cpus(cpus) as u32, 0, &demands);
        std::hint::black_box(assign_cpu_sets(&order, &targets));
        let t1 = Instant::now();
        part_us.push((t1 - t).as_secs_f64() * 1e6);
        cfg.spans
            .record("partition.call", NONE, i as u64 + 1, NONE, t, t1);
        causes.push((i as u64, "uds.churn_write", *at, *at));
        events.push(Event {
            t0_ns: (*at - cfg.origin).as_nanos() as u64,
            npools: 1,
            witness_target: want,
        });
    }
    rep.set_q("partition.call_us_p50", &Summary::new(part_us), 0.5);

    // Saturation: the most frames per second the control plane answers
    // with every connection's pipeline kept full, which the server sets
    // and the generator does not. The generator moves off the reactor's
    // processor for it, so the reactor never waits for the generator to
    // yield and never idles either: its pipeline stays full.
    sys::set_affinity(&[cpus - 1]);
    let cpu0 = sys::process_cpu_ns();
    let reactor0 = sys::named_threads_cpu_ns(REACTOR_THREAD);
    let t = Instant::now();
    let (replies, bad, sat_latency_us) = saturate(
        &mut fleet,
        Duration::from_secs_f64(cfg.seconds * SATURATION_SHARE),
    );
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = (sys::process_cpu_ns() - cpu0) as f64 / 1e9;
    let reactor_s = sys::named_threads_cpu_ns(REACTOR_THREAD).saturating_sub(reactor0) as f64 / 1e9;
    sys::set_affinity(&[0]);
    rep.set("reactor.busy_frac", reactor_s / wall_s);
    rep.note(format!(
        "saturation: reactor thread busy {:.3} of the wall time, {:.1} ns of its CPU per reply",
        reactor_s / wall_s,
        reactor_s * 1e9 / replies.max(1) as f64
    ));
    rep.checks(replies, bad);
    rep.set_rates(
        replies,
        wall_s,
        cpu_s,
        &format!("POLL replies with {WINDOW} in flight per connection"),
    );
    rep.set("reactor.saturation_per_s", rep.jobs_per_s);
    rep.note(format!(
        "latency: one saturation reply in {SAT_LATENCY_EVERY}, frame written → reply read"
    ));
    rep.latency_us = sat_latency_us;

    // Stepped ramp of the POLL rate (no churn): the highest rate whose
    // p99 meets the limit with no growing backlog.
    let max_steps = ((cfg.seconds * RAMP_SHARE / RAMP_STEP.as_secs_f64()) as usize).max(1);
    let mut step_seed = cfg.seed;
    let mut ramp_checks = (0, 0);
    let r = ramp(
        POLL_RATE,
        RAMP_COARSE,
        RAMP_FINE,
        RAMP_LIMIT_US,
        max_steps,
        |rate| {
            step_seed = step_seed.wrapping_add(1);
            let frames = schedule(step_seed, rate, RAMP_STEP, false, churned);
            let ph = open_loop(&mut fleet, &frames, cpus, &mut churned);
            ramp_checks.0 += ph.replies;
            ramp_checks.1 += ph.bad;
            StepOutcome {
                achieved_per_s: ph.replies as f64 / ph.wall_s,
                p99_us: Summary::new(ph.latency_us).q(0.99),
                backlog_growing: ph.outstanding_at_end as f64 > (rate * 1e-3).max(50.0),
            }
        },
    );
    rep.checks(ramp_checks.0, ramp_checks.1);
    let (best, achieved) = r
        .best
        .map_or((0.0, 0.0), |(rate, o)| (rate, o.achieved_per_s));
    rep.set("ramp.max_rate_per_s", best);
    rep.note(format!(
        "ramp: {} steps of {} ms, limit p99 <= {RAMP_LIMIT_US} us; best offered {best:.0} POLL/s \
         (answered {achieved:.0} frames/s), first failure at {:?}/s",
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

    let tl = sampler.finish();
    let mut agg = PoolAgg::default();
    agg.add(&fleet.pool.stats());
    agg.fill(&mut rep);
    let bound_ms = POLL_INTERVAL.as_secs_f64() * 1e3
        + TRICKLE.as_secs_f64() * 1e3
        + agg.hist_q("unpark_ns", 0.99) / 1e6;
    let st = converge::record(
        &mut rep, &cfg.spans, &tl, &events, &causes, cfg.origin, bound_ms,
    );
    rep.set_q("supervise.publish_ms_p50", &st.publish, 0.5);
    rep.set("controller.overcommit_ms", tl.overcommit_ms);
    rep.set(
        "controller.target_overcommit_obs",
        tl.target_overcommit_obs as f64,
    );
    sys::set_affinity(&[]);
    drop(fleet);
    rep
}
