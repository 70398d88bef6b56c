//! The control loop measured from outside: a sampler thread polls the
//! pools' public `active()`/`target()` and each arrival, departure or
//! churn episode is cut out of the sampled timeline afterwards.
//!
//! Per episode (cause at `t0`), as the sampler saw it:
//! - *publish*: `t0` → first sample where the witness pool's target is the
//!   new one (the `TargetSlot` store, including any poll cadence);
//! - *safepoint*: → first sample where the witness pool's `active` moved
//!   (a worker reached a safe point and suspended or resumed);
//! - *settle*: → first sample where every pool has `active == target`;
//! - *converge*: `t0` → first sample where every pool has `active ==
//!   target` under the new targets.
//!
//! The sampled segments tile *converge* by construction, so the
//! conservation check ends *safepoint* with a second instrument: the
//! witness pool's own flight recorder, drained by the sampler. It brackets
//! the recorded move of the witness's active count nearest the sampler's:
//! no worker acts on a new target before recording `Epoch` for it, and the
//! move is stamped by `Suspend` (taken after the worker lowered `active`
//! and handed off its local jobs, so a preempted worker stamps late) or by
//! `Resume` minus its wake latency (the instant `resume_one` raised
//! `active`). *safepoint* ends at the point of that bracket nearest the
//! sampler's observation; publish + safepoint + settle must then equal
//! converge within the sampler's resolution, i.e. the two instruments must
//! agree on when the witness's active count moved.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use native_rt::{trace, EventKind, FlightRecorder};

use crate::report::Report;
use crate::spans::{Spans, NONE};
use crate::stats::Summary;

/// One observation of the pools.
#[derive(Clone, Copy, Debug, Default)]
pub struct Obs {
    /// Pools observed.
    pub npools: usize,
    /// The witness pool's `active()` and `target()`.
    pub witness_active: usize,
    pub witness_target: usize,
    /// Whether every observed pool had `active == target`.
    pub all_at_target: bool,
    pub sum_active: usize,
    pub sum_target: usize,
}

/// What the sampler saw over a run.
#[derive(Default)]
pub struct Timeline {
    pub samples: Vec<(u64, Obs)>,
    /// ∫ max(0, Σ active − cpus) dt, in milliseconds.
    pub overcommit_ms: f64,
    /// Samples in which Σ targets exceeded the processors.
    pub target_overcommit_obs: u64,
    /// Stamps of the witness pool's active-count moves from its flight
    /// recorder, ascending.
    pub active_changes: Vec<u64>,
    /// The recorder's `Epoch` events: (instant, the target a worker saw).
    pub epochs: Vec<(u64, usize)>,
}

/// Appends the recorder's active-count moves and epochs, as ns since
/// `origin`.
fn drain_recorder(rec: &FlightRecorder, origin: Instant, tl: &mut Timeline) {
    let since_origin = |ts: u64| {
        let at = trace::clock_origin() + Duration::from_nanos(ts);
        at.saturating_duration_since(origin).as_nanos() as u64
    };
    for ev in rec.drain(usize::MAX) {
        match ev.kind {
            EventKind::Suspend => tl.active_changes.push(since_origin(ev.ts_ns)),
            // Stamped when the resumed worker runs; `arg` is how many µs
            // after the resume signal, which is when `active` moved.
            EventKind::Resume => {
                let at = ev.ts_ns.saturating_sub(u64::from(ev.arg) * 1_000);
                tl.active_changes.push(since_origin(at));
            }
            EventKind::Epoch => tl.epochs.push((since_origin(ev.ts_ns), ev.arg as usize)),
            _ => {}
        }
    }
}

pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Timeline>,
}

impl Sampler {
    /// Starts sampling `probe` every `period` and draining the witness
    /// pool's recorder `rec`; times are ns since `origin`.
    pub fn start(
        origin: Instant,
        period: Duration,
        cpus: usize,
        rec: Arc<FlightRecorder>,
        probe: impl Fn() -> Obs + Send + 'static,
    ) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("perfbench-sampler".into())
            .spawn(move || {
                let mut tl = Timeline::default();
                let mut prev: Option<(u64, usize)> = None;
                while !stop2.load(Ordering::Acquire) {
                    let obs = probe();
                    let t = origin.elapsed().as_nanos() as u64;
                    if let Some((pt, pa)) = prev {
                        let excess = pa.saturating_sub(cpus) as f64;
                        tl.overcommit_ms += excess * (t - pt) as f64 / 1e6;
                    }
                    if obs.sum_target > cpus {
                        tl.target_overcommit_obs += 1;
                    }
                    prev = Some((t, obs.sum_active));
                    tl.samples.push((t, obs));
                    drain_recorder(&rec, origin, &mut tl);
                    std::thread::sleep(period);
                }
                drain_recorder(&rec, origin, &mut tl);
                tl.active_changes.sort_unstable();
                tl.epochs.sort_unstable();
                tl
            })
            .expect("spawn sampler");
        Sampler { stop, handle }
    }

    pub fn finish(self) -> Timeline {
        self.stop.store(true, Ordering::Release);
        self.handle.join().expect("sampler panicked")
    }
}

/// A cause the benchmark triggered.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub t0_ns: u64,
    /// Pools expected once the episode settles.
    pub npools: usize,
    /// The witness pool's target under the new partition.
    pub witness_target: usize,
}

/// One analysed episode, all in milliseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Episode {
    pub converge: f64,
    /// The segments as the sampler saw them.
    pub publish: f64,
    pub safepoint: f64,
    pub settle: f64,
    /// publish + safepoint + settle with *safepoint* ending in the flight
    /// recorder's bracket of the first active-count move. `None` when
    /// neither instrument saw the witness's active count move (nothing to
    /// check); NaN when only one of them did, which fails the check.
    pub recorded_sum: Option<f64>,
    /// The sampler's resolution around the episode.
    pub resolution: f64,
}

impl Episode {
    pub fn checked(&self) -> bool {
        self.recorded_sum.is_some()
    }

    pub fn conserved(&self) -> bool {
        self.recorded_sum
            .is_none_or(|sum| (sum - self.converge).abs() <= self.resolution)
    }
}

/// Cuts every event's episode out of the timeline. An episode that never
/// converged before the next event (or the end of sampling) is returned as
/// `Err(ms)`, the time it was watched for.
pub fn episodes(tl: &Timeline, events: &[Event]) -> Vec<Result<Episode, f64>> {
    let s = &tl.samples;
    events
        .iter()
        .enumerate()
        .map(|(i, ev)| {
            let end = events.get(i + 1).map_or(u64::MAX, |n| n.t0_ns);
            let first = s.partition_point(|(t, _)| *t < ev.t0_ns);
            let last = s.partition_point(|(t, _)| *t < end);
            let window = &s[first..last];
            let ms = |t: u64| (t - ev.t0_ns) as f64 / 1e6;
            let conv = window.iter().find(|(_, o)| {
                o.npools == ev.npools && o.all_at_target && o.witness_target == ev.witness_target
            });
            let Some(&(t_conv, _)) = conv else {
                return Err(window.last().map_or(0.0, |x| ms(x.0)));
            };
            let t_pub = window
                .iter()
                .find(|(_, o)| o.witness_target == ev.witness_target)
                .map_or(t_conv, |x| x.0);
            // The sampler compares against the last sample that had not seen
            // the new target yet, so that a move of an earlier episode that
            // settled late (its target reaching the witness after this
            // cause, on a stalled host) is not taken for this one's.
            let base = s[..s.partition_point(|(t, _)| *t < t_pub)].last();
            let old_active = base.map(|(_, o)| o.witness_active);
            let t_safe = window
                .iter()
                .find(|(t, o)| *t >= t_pub && Some(o.witness_active) != old_active)
                .map(|x| x.0);
            // The recorder's move nearest the sampler's observation, from
            // the sample before the cause on: a move can land between a
            // sample's reads and its time stamp, and an earlier episode's
            // late move can precede this one's. Its bracket runs from the
            // first worker seeing the new target (or the cause) to its stamp.
            let since = first.checked_sub(1).map_or(ev.t0_ns, |j| s[j].0);
            let in_window = |t: u64| t > since && t < end;
            let mut moves = tl.active_changes.iter().copied().filter(|&t| in_window(t));
            let rec = match t_safe {
                Some(ts) => moves.min_by_key(|t| t.abs_diff(ts)),
                None => moves.next(),
            };
            let seen = tl
                .epochs
                .iter()
                .find(|&&(t, target)| in_window(t) && target == ev.witness_target)
                .map_or(ev.t0_ns, |e| e.0);
            // Widest gap between consecutive samples from just before the
            // cause to the convergence sample or the sampled move.
            let t_last = t_conv.max(t_safe.unwrap_or(0));
            let lo = first.saturating_sub(1);
            let hi = s.partition_point(|(t, _)| *t <= t_last).max(lo + 1);
            let gap = s[lo..hi.min(s.len())]
                .windows(2)
                .map(|w| w[1].0 - w[0].0)
                .max()
                .unwrap_or(0);
            let signed = |a: u64, b: u64| (a as f64 - b as f64) / 1e6;
            let recorded_sum = match (t_safe, rec) {
                (None, None) => None,
                (Some(ts), Some(tr)) => {
                    let tr = ts.clamp(seen.min(tr), tr);
                    Some(ms(t_pub) + signed(tr, t_pub) + signed(t_conv, ts))
                }
                _ => Some(f64::NAN),
            };
            let t_safe = t_safe.unwrap_or(t_pub);
            Ok(Episode {
                converge: ms(t_conv),
                publish: ms(t_pub),
                safepoint: (t_safe.saturating_sub(t_pub)) as f64 / 1e6,
                settle: (t_conv.saturating_sub(t_safe)) as f64 / 1e6,
                recorded_sum,
                resolution: 2.0 * gap as f64 / 1e6,
            })
        })
        .collect()
}

/// Convergence figures derived from the analysed episodes.
pub struct ConvergeStats {
    pub converge: Summary,
    pub publish: Summary,
    pub safepoint: Summary,
    pub settle: Summary,
    pub unconverged: u64,
    /// Converged episodes the recorder could be checked against.
    pub checked: u64,
    pub conservation_miss: u64,
}

pub fn summarize(eps: &[Result<Episode, f64>]) -> ConvergeStats {
    let ok: Vec<&Episode> = eps.iter().filter_map(|e| e.as_ref().ok()).collect();
    let col = |f: fn(&Episode) -> f64| Summary::new(ok.iter().map(|e| f(e)).collect());
    // An unconverged episode enters the convergence figures with the time
    // it was watched for, a lower bound, rather than being dropped.
    let converge = eps.iter().map(|e| e.map_or_else(|w| w, |e| e.converge));
    ConvergeStats {
        converge: Summary::new(converge.collect()),
        publish: col(|e| e.publish),
        safepoint: col(|e| e.safepoint),
        settle: col(|e| e.settle),
        unconverged: (eps.len() - ok.len()) as u64,
        checked: ok.iter().filter(|e| e.checked()).count() as u64,
        conservation_miss: ok.iter().filter(|e| !e.conserved()).count() as u64,
    }
}

/// Cuts the run's episodes out of `tl`, records their convergence
/// metrics, checks and spans, and returns their summary. `causes` holds, per event index, the span of
/// the call that caused it (`Pool::new`, drop + recompute, churn write).
pub fn record(
    rep: &mut Report,
    spans: &Spans,
    tl: &Timeline,
    events: &[Event],
    causes: &[(u64, &'static str, Instant, Instant)],
    origin: Instant,
    bound_ms: f64,
) -> ConvergeStats {
    let eps = &episodes(tl, events);
    let st = summarize(eps);
    rep.set_q("converge.ms_p50", &st.converge, 0.5);
    rep.set_q("converge.ms_p90", &st.converge, 0.9);
    rep.set_q("pool.safepoint_ms_p50", &st.safepoint, 0.5);
    rep.set_q("pool.settle_ms_p50", &st.settle, 0.5);
    let misses = eps
        .iter()
        .filter(|e| e.as_ref().map_or(true, |e| e.converge > bound_ms))
        .count();
    rep.set("converge.episodes", eps.len() as f64);
    rep.set("converge.unconverged", st.unconverged as f64);
    rep.set("converge.bound_miss", misses as f64);
    rep.set("converge.conservation_miss", st.conservation_miss as f64);
    // Each checked episode's segments must add up: the sampler and the
    // flight recorder must agree. Episodes that do not converge before the
    // next cause are a measured property of the control loop, reported as
    // `converge.unconverged`, not a failed output.
    rep.checks(st.checked, st.conservation_miss);
    rep.note(format!(
        "converge: {} episodes, p50 {:.3} ms, p90 {:.3} ms (publish {:.3} + safepoint {:.3} + \
         settle {:.3} at p50); {} unconverged; {} checked against the flight recorder, {} \
         break conservation; {misses} over the bound of {bound_ms:.3} ms (poll interval + job \
         grain p99 + wake p99)",
        eps.len(),
        st.converge.p50(),
        st.converge.q(0.9),
        st.publish.p50(),
        st.safepoint.p50(),
        st.settle.p50(),
        st.unconverged,
        st.checked,
        st.conservation_miss
    ));
    // What both instruments saw around each episode that breaks
    // conservation, so the disagreement can be traced to its cause.
    let misses = eps.iter().zip(events).enumerate();
    for (i, (ep, ev)) in misses.filter(|(_, (e, _))| e.is_ok_and(|e| !e.conserved())) {
        let Ok(ep) = ep else { continue };
        let end = events.get(i + 1).map_or(u64::MAX, |n| n.t0_ns);
        let lo = ev.t0_ns.saturating_sub(1_000_000);
        let rel = |t: u64| (t as f64 - ev.t0_ns as f64) / 1e6;
        let samples: Vec<String> = tl
            .samples
            .iter()
            .filter(|(t, _)| *t >= lo && *t < end)
            .take(40)
            .map(|(t, o)| {
                format!(
                    "{:.3}:{}/{}{}",
                    rel(*t),
                    o.witness_active,
                    o.witness_target,
                    if o.all_at_target { "" } else { "*" }
                )
            })
            .collect();
        let moves: Vec<String> = tl
            .active_changes
            .iter()
            .filter(|&&t| t >= lo && t < end)
            .take(10)
            .map(|&t| format!("{:.3}", rel(t)))
            .collect();
        let epochs: Vec<String> = tl
            .epochs
            .iter()
            .filter(|&&(t, _)| t >= lo && t < end)
            .take(10)
            .map(|&(t, target)| format!("{:.3}:{target}", rel(t)))
            .collect();
        rep.note(format!(
            "conservation miss, episode {i}: {ep:?}; recorder moves at [{}] ms, epochs \
             (ms:target) [{}]; samples (ms:active/target, * = some pool off target) [{}]",
            moves.join(" "),
            epochs.join(" "),
            samples.join(" ")
        ));
    }
    if spans.enabled() {
        let at = |ns: u64| origin + Duration::from_nanos(ns);
        for (i, (ep, ev)) in eps.iter().zip(events).enumerate() {
            let Ok(ep) = ep else { continue };
            let g = i as u64 + 1;
            let t0 = at(ev.t0_ns);
            let ms = |x: f64| Duration::from_secs_f64(x / 1e3);
            let id = spans.new_id();
            for (_, name, a, b) in causes.iter().filter(|c| c.0 == i as u64) {
                spans.record(name, NONE, g, id, *a, *b);
            }
            let t_pub = t0 + ms(ep.publish);
            let t_safe = t_pub + ms(ep.safepoint);
            spans.record("converge.publish", NONE, g, id, t0, t_pub);
            spans.record("converge.safepoint", NONE, g, id, t_pub, t_safe);
            spans.record(
                "converge.settle",
                NONE,
                g,
                id,
                t_safe,
                t_safe + ms(ep.settle),
            );
            spans.record("converge.episode", id, g, NONE, t0, t0 + ms(ep.converge));
        }
    }
    st
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn obs(n: usize, wa: usize, wt: usize, all: bool) -> Obs {
        Obs {
            npools: n,
            witness_active: wa,
            witness_target: wt,
            all_at_target: all,
            sum_active: wa,
            sum_target: wt,
        }
    }

    /// A pool of two at target 2 until a cause at 1.5 ms; the sampler sees
    /// the new target at 2 ms, the witness's active move at 4 ms and every
    /// pool settled at 5 ms.
    fn timeline(active_changes: Vec<u64>) -> Timeline {
        Timeline {
            samples: vec![
                (0, obs(1, 2, 2, true)),
                (MS, obs(1, 2, 2, true)),
                (2 * MS, obs(2, 2, 1, false)),
                (3 * MS, obs(2, 2, 1, false)),
                (4 * MS, obs(2, 1, 1, false)),
                (5 * MS, obs(2, 1, 1, true)),
            ],
            active_changes,
            ..Timeline::default()
        }
    }

    const EV: [Event; 1] = [Event {
        t0_ns: 3 * MS / 2,
        npools: 2,
        witness_target: 1,
    }];

    #[test]
    fn segments_add_up_when_the_recorder_agrees() {
        // The recorder stamps the suspension between the 3 and 4 ms samples.
        let e = episodes(&timeline(vec![3_600_000]), &EV)[0].expect("converged");
        assert_eq!(
            (e.publish, e.safepoint, e.settle, e.converge),
            (0.5, 2.0, 1.0, 3.5)
        );
        assert_eq!(e.resolution, 2.0);
        let sum = e.recorded_sum.expect("checked");
        assert!((sum - 3.1).abs() < 1e-9, "{sum}");
        assert!(e.checked() && e.conserved());
        // A worker preempted before it stamped `Suspend`: the bracket from
        // its `Epoch` at 1.8 ms to the stamp at 5.3 ms holds the sampler's
        // observation at 4 ms.
        let mut tl = timeline(vec![5_300_000]);
        tl.epochs = vec![(1_800_000, 1)];
        let e = episodes(&tl, &EV)[0].expect("converged");
        assert_eq!(e.recorded_sum, Some(3.5));
        assert!(e.conserved());
    }

    #[test]
    fn instruments_that_disagree_break_conservation() {
        // No worker saw the new target before 7 ms, yet the sampler saw the
        // active count move at 4 ms.
        let mut tl = timeline(vec![7_500_000]);
        tl.epochs = vec![(7 * MS, 1)];
        let e = episodes(&tl, &EV)[0].expect("converged");
        assert!(e.checked() && !e.conserved(), "{e:?}");
        // The recorder stamped the move at 1.2 ms, before the cause and
        // long before the sampler saw it.
        let e = episodes(&timeline(vec![1_200_000]), &EV)[0].expect("converged");
        assert!(e.checked() && !e.conserved(), "{e:?}");
        // The recorder saw no move at all while the sampler did.
        let e = episodes(&timeline(vec![]), &EV)[0].expect("converged");
        assert!(e.checked() && !e.conserved(), "{e:?}");
        // A move before the sample the episode compares against is not
        // this episode's.
        let e = episodes(&timeline(vec![MS / 2]), &EV)[0].expect("converged");
        assert!(!e.conserved(), "{e:?}");
    }

    #[test]
    fn a_late_move_of_the_previous_episode_is_not_this_ones() {
        // Before the cause at 1.5 ms the witness runs 1 of 1. The previous
        // episode's target 2 reaches it only after the cause (epoch at
        // 1.55 ms, resume at 1.6 ms); this episode's target 1 follows
        // (epoch at 3.8 ms, suspension stamped at 3.9 ms).
        let tl = Timeline {
            samples: vec![
                (0, obs(2, 1, 1, true)),
                (MS, obs(2, 1, 1, true)),
                (2 * MS, obs(2, 2, 2, true)),
                (3 * MS, obs(2, 2, 2, true)),
                (4 * MS, obs(2, 1, 1, true)),
                (5 * MS, obs(2, 1, 1, true)),
            ],
            active_changes: vec![1_600_000, 3_900_000],
            epochs: vec![(1_550_000, 2), (3_800_000, 1)],
            ..Timeline::default()
        };
        let ev = [Event {
            witness_target: 1,
            ..EV[0]
        }];
        let e = episodes(&tl, &ev)[0].expect("converged");
        assert_eq!((e.publish, e.safepoint, e.converge), (2.5, 0.0, 2.5));
        let sum = e.recorded_sum.expect("checked");
        assert!((sum - 2.4).abs() < 1e-9, "{sum}");
        assert!(e.conserved(), "{e:?}");
        // Without the suspension's stamp only the sampler saw this
        // episode's move.
        let tl = Timeline {
            active_changes: vec![1_600_000],
            ..tl
        };
        let e = episodes(&tl, &ev)[0].expect("converged");
        assert!(e.checked() && !e.conserved(), "{e:?}");
    }

    #[test]
    fn a_move_between_a_samples_reads_and_its_stamp_is_seen() {
        // The sample stamped 2 ms read the witness just before the cause's
        // target reached it and the suspension at 1.98 ms; the next sample,
        // 3 ms later, shows both.
        let tl = Timeline {
            samples: vec![
                (MS, obs(2, 2, 2, true)),
                (2 * MS, obs(2, 2, 2, true)),
                (5 * MS, obs(2, 1, 1, true)),
            ],
            active_changes: vec![1_980_000],
            epochs: vec![(1_970_000, 1)],
            ..Timeline::default()
        };
        let ev = [Event {
            witness_target: 1,
            ..EV[0]
        }];
        let e = episodes(&tl, &ev)[0].expect("converged");
        assert_eq!(e.resolution, 6.0);
        assert!(e.checked() && e.conserved(), "{e:?}");
    }

    #[test]
    fn no_move_seen_by_either_is_not_checked() {
        let mut tl = timeline(vec![]);
        for (_, o) in &mut tl.samples[2..] {
            *o = obs(2, 2, 2, true);
        }
        let ev = [Event {
            witness_target: 2,
            ..EV[0]
        }];
        let e = episodes(&tl, &ev)[0].expect("converged");
        assert!(!e.checked() && e.conserved(), "{e:?}");
        // No convergence in the window: reported with the time watched.
        let tl = Timeline {
            samples: vec![(0, obs(1, 2, 2, true)), (MS, obs(1, 2, 1, false))],
            ..Timeline::default()
        };
        let ev = [Event {
            t0_ns: MS / 2,
            ..EV[0]
        }];
        assert_eq!(episodes(&tl, &ev)[0], Err(0.5));
    }
}
