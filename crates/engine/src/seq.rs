//! Sequential executors.
//!
//! [`run_sequential`] is the reference executor (one global event queue).
//! [`run_sequential_windowed`] processes the same global order but
//! additionally scores the run: each [`Scoring`] attributes every event
//! to a `(window, partition)` cell, producing the trace the cluster
//! performance model consumes. Because window boundaries never change
//! event order, one run can be scored against any number of mappings,
//! and every variant produces identical model states.

use crate::event::{EventRecord, LpId};
use crate::model::{seed_events, Emitter, Model};
use crate::queue::EventQueue;
use crate::resume::ResumeState;
use crate::stats::{ExecutionStats, Scoring, WindowAccumulator};
use crate::time::SimTime;
use massf_topology::MassfError;

/// Run `model` until `end_time` (exclusive), starting from `initial`
/// `(time, target, payload)` events. Returns per-LP statistics.
pub fn run_sequential<M: Model>(
    model: &mut M,
    lp_count: usize,
    initial: Vec<(SimTime, LpId, M::Event)>,
    end_time: SimTime,
) -> ExecutionStats {
    run_inner(model, lp_count, initial, end_time, &[]).0
}

/// Like [`run_sequential`], but also score the one run against each of
/// `scorings`, returning one [`ExecutionStats`] per scoring, in order.
/// Their per-LP totals, `total_events` and `end_time` are the run's and
/// equal across scorings; the windowed fields are each scoring's own.
///
/// A scoring with a zero window, an assignment that does not cover
/// `lp_count` LPs, or a partition id past its partition count is
/// [`MassfError::InvalidConfig`], returned before any event runs.
pub fn run_sequential_windowed<M: Model>(
    model: &mut M,
    lp_count: usize,
    initial: Vec<(SimTime, LpId, M::Event)>,
    end_time: SimTime,
    scorings: &[Scoring<'_>],
) -> Result<Vec<ExecutionStats>, MassfError> {
    for scoring in scorings {
        scoring.check(lp_count)?;
    }
    Ok(run_inner(model, lp_count, initial, end_time, scorings).1)
}

/// Continue a paused sequential run from `resume` until `end_time`,
/// returning the stats of the executed segment and the new frontier
/// (pending events at `end_time` plus advanced LP counters). Seeding a
/// [`ResumeState::fresh`] frontier whose events came through
/// [`seed_events`] is exactly [`run_sequential`]; chaining segments is
/// bit-identical to one straight-through run because the frontier
/// preserves every `(time, tag)` ordering key.
///
/// `resume` is validated first (it may come from a snapshot file):
/// malformed frontiers yield [`MassfError::InvalidConfig`], never a
/// panic.
pub fn run_sequential_resumable<M: Model>(
    model: &mut M,
    lp_count: usize,
    resume: ResumeState<M::Event>,
    end_time: SimTime,
) -> Result<(ExecutionStats, ResumeState<M::Event>), MassfError> {
    resume.validate(lp_count)?;
    let (stats, _, frontier) = run_core(
        model,
        lp_count,
        resume.events,
        resume.counters,
        end_time,
        &[],
        true,
    );
    Ok((stats, frontier))
}

fn run_inner<M: Model>(
    model: &mut M,
    lp_count: usize,
    initial: Vec<(SimTime, LpId, M::Event)>,
    end_time: SimTime,
    scorings: &[Scoring<'_>],
) -> (ExecutionStats, Vec<ExecutionStats>) {
    let pending = seed_events(initial);
    let counters = vec![0u32; lp_count];
    let (stats, scored, _) = run_core(
        model, lp_count, pending, counters, end_time, scorings, false,
    );
    (stats, scored)
}

/// The sequential loop: returns the run's stats, one scored copy per
/// entry of `scorings`, and the frontier (empty unless
/// `collect_resume`).
fn run_core<M: Model>(
    model: &mut M,
    lp_count: usize,
    pending: Vec<EventRecord<M::Event>>,
    mut counters: Vec<u32>,
    end_time: SimTime,
    scorings: &[Scoring<'_>],
    collect_resume: bool,
) -> (ExecutionStats, Vec<ExecutionStats>, ResumeState<M::Event>) {
    let mut stats = ExecutionStats::new(lp_count);
    let mut queue: EventQueue<M::Event> = EventQueue::new();
    for ev in pending {
        queue.push(ev);
    }
    let mut out_buf: Vec<EventRecord<M::Event>> = Vec::new();
    let mut scorers: Vec<(&Scoring<'_>, WindowAccumulator)> = scorings
        .iter()
        .map(|s| (s, WindowAccumulator::new(s.partitions, s.window, end_time)))
        .collect();

    // Events at or past `end_time` stay queued, so the frontier drain
    // below sees the complete pending set.
    while let Some(ev) = queue.pop_before(end_time) {
        let lp = ev.target;
        debug_assert!(lp.index() < lp_count, "event for unknown LP {lp:?}");
        {
            let mut emitter = Emitter::new(ev.time, lp.0, &mut counters[lp.index()], &mut out_buf);
            model.handle(lp, ev.time, ev.payload, &mut emitter);
        }
        stats.lp_events[lp.index()] += 1;
        stats.total_events += 1;
        for (s, acc) in &mut scorers {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "window indices are bounded by the run's window count, which fits usize"
            )]
            let w = (ev.time.as_ns() / s.window.as_ns()) as usize;
            acc.record(w, s.assignment[lp.index()] as usize);
        }
        for new_ev in out_buf.drain(..) {
            queue.push(new_ev);
        }
    }
    stats.end_time = end_time;
    let scored = scorers
        .into_iter()
        .map(|(_, acc)| acc.finish(stats.clone()))
        .collect();

    let events = if collect_resume {
        queue.drain()
    } else {
        Vec::new()
    };
    (stats, scored, ResumeState { events, counters })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One run scored once: the stats of the single scoring.
    pub(super) fn windowed<M: Model>(
        model: &mut M,
        lp_count: usize,
        initial: Vec<(SimTime, LpId, M::Event)>,
        end_time: SimTime,
        window: SimTime,
        assignment: &[u32],
        partitions: usize,
    ) -> ExecutionStats {
        let scoring = Scoring {
            window,
            assignment,
            partitions,
        };
        let mut scored = run_sequential_windowed(model, lp_count, initial, end_time, &[scoring])
            .expect("valid scoring");
        scored.pop().expect("one stats per scoring")
    }

    /// Each LP forwards a token to the next LP after 1 ms, recording the
    /// visit order.
    struct Ring {
        n: u32,
        visits: Vec<u32>,
    }

    impl Model for Ring {
        type Event = u8;
        fn handle(&mut self, target: LpId, _now: SimTime, _ev: u8, out: &mut Emitter<'_, u8>) {
            self.visits.push(target.0);
            out.emit(SimTime::from_ms(1), LpId((target.0 + 1) % self.n), 0);
        }
    }

    #[test]
    fn token_ring_progresses_in_time_order() {
        let mut m = Ring {
            n: 4,
            visits: vec![],
        };
        let stats = run_sequential(
            &mut m,
            4,
            vec![(SimTime::ZERO, LpId(0), 0)],
            SimTime::from_ms(10),
        );
        assert_eq!(m.visits, vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1]);
        assert_eq!(stats.total_events, 10);
        assert_eq!(stats.lp_events, vec![3, 3, 2, 2]);
    }

    #[test]
    fn end_time_is_exclusive() {
        let mut m = Ring {
            n: 2,
            visits: vec![],
        };
        let stats = run_sequential(
            &mut m,
            2,
            vec![(SimTime::ZERO, LpId(0), 0)],
            SimTime::from_ms(1),
        );
        // Only the event at t=0 runs; the one at exactly 1 ms is excluded.
        assert_eq!(stats.total_events, 1);
    }

    #[test]
    fn simultaneous_events_process_in_injection_order() {
        struct Recorder(Vec<u32>);
        impl Model for Recorder {
            type Event = ();
            fn handle(&mut self, t: LpId, _: SimTime, _: (), _: &mut Emitter<'_, ()>) {
                self.0.push(t.0);
            }
        }
        let mut m = Recorder(vec![]);
        run_sequential(
            &mut m,
            3,
            vec![
                (SimTime::from_ms(1), LpId(2), ()),
                (SimTime::from_ms(1), LpId(0), ()),
                (SimTime::from_ms(1), LpId(1), ()),
            ],
            SimTime::from_ms(2),
        );
        assert_eq!(m.0, vec![2, 0, 1], "ties broken by injection order");
    }

    #[test]
    fn resumable_segments_match_straight_through() {
        let mut full = Ring {
            n: 4,
            visits: vec![],
        };
        let full_stats = run_sequential(
            &mut full,
            4,
            vec![(SimTime::ZERO, LpId(0), 0)],
            SimTime::from_ms(10),
        );

        let mut split = Ring {
            n: 4,
            visits: vec![],
        };
        let start = ResumeState {
            events: seed_events(vec![(SimTime::ZERO, LpId(0), 0)]),
            counters: vec![0; 4],
        };
        let (s1, mid) =
            run_sequential_resumable(&mut split, 4, start, SimTime::from_ms(5)).expect("valid");
        // The event scheduled at exactly the cut time must sit in the
        // frontier, unexecuted (end_time is exclusive).
        assert_eq!(mid.events.len(), 1);
        assert_eq!(mid.events[0].time, SimTime::from_ms(5));
        let (s2, fin) =
            run_sequential_resumable(&mut split, 4, mid, SimTime::from_ms(10)).expect("valid");
        assert_eq!(split.visits, full.visits, "chained segments = one run");
        assert_eq!(s1.total_events + s2.total_events, full_stats.total_events);
        assert_eq!(fin.events.len(), 1, "next hop stays pending at the end");
    }

    #[test]
    fn resumable_rejects_malformed_frontier() {
        let mut m = Ring {
            n: 2,
            visits: vec![],
        };
        let bad = ResumeState::<u8> {
            events: vec![],
            counters: vec![0; 3], // wrong LP count
        };
        assert!(run_sequential_resumable(&mut m, 2, bad, SimTime::from_ms(1)).is_err());
    }

    #[test]
    fn windowed_counts_attribute_correctly() {
        let mut m = Ring {
            n: 2,
            visits: vec![],
        };
        // LP0 -> partition 0, LP1 -> partition 1; 1 ms window; events at
        // t=0(LP0),1(LP1),2(LP0),3(LP1) within end=4ms.
        let stats = windowed(
            &mut m,
            2,
            vec![(SimTime::ZERO, LpId(0), 0)],
            SimTime::from_ms(4),
            SimTime::from_ms(1),
            &[0, 1],
            2,
        );
        assert_eq!(stats.n_windows, 4);
        // 4 windows at 1 window per bucket: buckets mirror windows.
        assert_eq!(stats.bucket_critical, vec![1, 1, 1, 1]);
        assert_eq!(stats.bucket_totals, vec![1, 1, 1, 1]);
        assert_eq!(stats.partition_totals, vec![2, 2]);
        assert_eq!(stats.critical_path_events(), 4);
        assert_eq!(stats.windows_executed, 4);
        assert_eq!(stats.windows_skipped, 0);
    }

    #[test]
    fn windowed_and_plain_runs_agree_on_state() {
        let mut a = Ring {
            n: 5,
            visits: vec![],
        };
        let mut b = Ring {
            n: 5,
            visits: vec![],
        };
        let init = vec![
            (SimTime::ZERO, LpId(0), 0u8),
            (SimTime::from_ms(2), LpId(3), 0u8),
        ];
        run_sequential(&mut a, 5, init.clone(), SimTime::from_ms(20));
        windowed(
            &mut b,
            5,
            init,
            SimTime::from_ms(20),
            SimTime::from_ms(3),
            &[0, 0, 1, 1, 1],
            2,
        );
        assert_eq!(a.visits, b.visits);
    }

    /// Caller input that used to panic inside the accumulator (a
    /// partition id past the count indexed out of bounds) or trip an
    /// `assert!` comes back as `InvalidConfig`, before any event runs.
    #[test]
    fn bad_scoring_is_invalid_config_not_a_panic() {
        let run = |window, assignment: &[u32], partitions| {
            let mut m = Ring {
                n: 2,
                visits: vec![],
            };
            let scoring = Scoring {
                window,
                assignment,
                partitions,
            };
            let initial = vec![(SimTime::ZERO, LpId(0), 0)];
            let outcome =
                run_sequential_windowed(&mut m, 2, initial, SimTime::from_ms(4), &[scoring]);
            assert!(m.visits.is_empty(), "no event runs on bad input");
            outcome.map(|scored| scored.len())
        };
        let ms = SimTime::from_ms(1);
        for (what, outcome) in [
            ("zero window", run(SimTime::ZERO, &[0, 1], 2)),
            ("no partitions", run(ms, &[0, 0], 0)),
            ("short assignment", run(ms, &[0], 2)),
            ("partition id past the partitions", run(ms, &[0, 2], 2)),
        ] {
            assert!(
                matches!(outcome, Err(MassfError::InvalidConfig(_))),
                "{what}: got {outcome:?}"
            );
        }
    }

    #[test]
    fn event_rate_normalization() {
        let mut m = Ring {
            n: 2,
            visits: vec![],
        };
        let stats = windowed(
            &mut m,
            2,
            vec![(SimTime::ZERO, LpId(0), 0)],
            SimTime::from_secs(1),
            SimTime::from_ms(100),
            &[0, 1],
            2,
        );
        let rates = stats.partition_event_rates();
        assert_eq!(rates.len(), 2);
        assert!((rates[0] + rates[1] - stats.total_events as f64).abs() < 1e-9);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::tests::windowed;
    use super::*;
    use crate::stats::TRACE_BUCKETS;

    /// Self-ticking LP: one event per millisecond.
    struct Ticker;
    impl crate::model::Model for Ticker {
        type Event = ();
        fn handle(&mut self, t: LpId, _: SimTime, _: (), out: &mut crate::model::Emitter<'_, ()>) {
            out.emit(SimTime::from_ms(1), t, ());
        }
    }

    #[test]
    fn coarse_trace_covers_long_runs_with_bounded_buckets() {
        let mut m = Ticker;
        // 2000 windows of 1 ms: must be bucketed down to ≤ TRACE_BUCKETS.
        let stats = windowed(
            &mut m,
            1,
            vec![(SimTime::ZERO, LpId(0), ())],
            SimTime::from_ms(2000),
            SimTime::from_ms(1),
            &[0],
            1,
        );
        assert_eq!(stats.n_windows, 2000);
        assert!(stats.coarse_trace.len() <= TRACE_BUCKETS);
        assert!(stats.windows_per_bucket >= 2);
        let bucket_total: u64 = stats.coarse_trace.iter().flatten().sum();
        assert_eq!(bucket_total, stats.total_events);
    }

    #[test]
    fn event_on_window_boundary_lands_in_later_window() {
        let mut m = Ticker;
        // Events at t = 0, 1, 2, 3 ms with 2 ms windows: the t = 2 ms
        // event belongs to window 1 (windows are half-open [t0, t1)).
        let stats = windowed(
            &mut m,
            1,
            vec![(SimTime::ZERO, LpId(0), ())],
            SimTime::from_ms(4),
            SimTime::from_ms(2),
            &[0],
            1,
        );
        assert_eq!(stats.bucket_totals, vec![2, 2]);
    }

    #[test]
    fn empty_initial_events_is_a_clean_noop() {
        let mut m = Ticker;
        let stats = run_sequential(&mut m, 3, vec![], SimTime::from_secs(1));
        assert_eq!(stats.total_events, 0);
        assert!(stats.lp_events.iter().all(|&c| c == 0));
    }
}

#[cfg(test)]
mod scoring_tests {
    use super::*;
    use proptest::prelude::*;

    fn mix(x: u64) -> u64 {
        let x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Tokens hop between LPs after pseudo-random delays, so windows
    /// hold uneven, partly empty, partly simultaneous event sets.
    struct Scatter {
        lps: u32,
    }

    impl Model for Scatter {
        type Event = u64;
        fn handle(&mut self, _: LpId, _: SimTime, h: u64, out: &mut Emitter<'_, u64>) {
            let h = mix(h.wrapping_add(0x9E37_79B9_7F4A_7C15));
            out.emit(
                SimTime::from_us(1 + h % 700),
                LpId((h >> 32) as u32 % self.lps),
                h,
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One run scored K ways equals K runs scored one way each,
        /// every `ExecutionStats` field equal: random assignments and
        /// partition counts, windows from 512 ns to 33 ms that rarely
        /// divide the horizon and often exceed it, and up to 39,000
        /// windows per scoring (so coarse buckets span several).
        #[test]
        fn one_run_scores_like_one_run_per_scoring(
            horizon_us in 1u64..20_000,
            tokens in 1u64..6,
            specs in proptest::collection::vec(
                (9u32..25, any::<u64>(), 1usize..7, any::<u64>()),
                1..9,
            ),
        ) {
            const LPS: u32 = 11;
            let end = SimTime::from_us(horizon_us);
            let initial: Vec<(SimTime, LpId, u64)> = (0..tokens)
                .map(|i| (SimTime::from_us(i * 37), LpId((i * 5) as u32 % LPS), i))
                .collect();
            let assignments: Vec<Vec<u32>> = specs
                .iter()
                .map(|&(_, _, parts, seed)| {
                    (0..LPS)
                        .map(|lp| (mix(seed ^ u64::from(lp)) % parts as u64) as u32)
                        .collect()
                })
                .collect();
            let scorings: Vec<Scoring<'_>> = specs
                .iter()
                .zip(&assignments)
                .map(|(&(shift, jitter, partitions, _), assignment)| Scoring {
                    window: SimTime::from_ns((1 << shift) + jitter % (1 << shift)),
                    assignment,
                    partitions,
                })
                .collect();
            let run = |scorings: &[Scoring<'_>]| {
                let mut model = Scatter { lps: LPS };
                run_sequential_windowed(&mut model, LPS as usize, initial.clone(), end, scorings)
                    .expect("valid scorings")
            };
            let together = run(&scorings);
            prop_assert_eq!(together.len(), scorings.len());
            for (stats, scoring) in together.iter().zip(&scorings) {
                let alone = run(std::slice::from_ref(scoring));
                prop_assert_eq!(stats, &alone[0]);
            }
        }
    }
}
