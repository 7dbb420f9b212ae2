//! The multi-threaded barrier-windowed conservative executor.
//!
//! One OS thread per partition, exactly like MaSSF runs one MPI process
//! per cluster node. Virtual time advances in fixed windows no longer
//! than the minimum cross-partition link latency (MLL): within a window
//! each partition processes its local events independently; events bound
//! for other partitions are buffered and exchanged at the global barrier
//! that ends the window. Conservative correctness requires every
//! cross-partition event to arrive in a *later* window, which holds by
//! construction when `window ≤ MLL`; the executor checks it and returns
//! [`MassfError::LookaheadViolation`] otherwise.
//!
//! # Hot-path design
//!
//! The per-event path acquires **no locks**. Cross-partition events go
//! into a `partitions × partitions` mailbox matrix: during a window,
//! partition *p* appends to its private row of per-destination buffers
//! (plain `Vec` pushes). At the window-end barrier each sender swaps its
//! non-empty buffers into per-pair exchange slots — one uncontended
//! mutex acquisition per *pair per window*, never per event — and each
//! receiver drains its column in fixed sender-index order. The swap
//! ping-pongs the two buffers of every pair, so allocations are recycled
//! across windows. (The mutex is only a `mem::swap` rendezvous; by the
//! barrier protocol the sender and receiver never touch a slot
//! concurrently. `parking_lot`'s uncontended lock is a single CAS.)
//!
//! Determinism does not depend on drain order — each partition's event
//! queue pops in `(time, tag)` order — but the fixed order makes the
//! execution schedule itself reproducible.
//!
//! **Empty-window fast-forward**: after the exchange, every partition
//! publishes its next local event time into a per-partition slot; all
//! partitions then compute the same global minimum and jump virtual time
//! directly to the window containing that event. This is conservatively
//! exact: at the barrier *all* in-flight events have been exchanged, so
//! the global minimum over partition queues is the true next event time
//! of the whole simulation, and every window before it is empty. Long
//! idle stretches (fault epochs, TCP RTO backoff) collapse from
//! thousands of barrier pairs to one. Relaxed atomics suffice for the
//! published times because [`WindowBarrier::wait`] establishes
//! happens-before between everything written before the barrier and
//! everything read after it (its generation word is the Release/Acquire
//! edge; see [`crate::barrier`]).
//!
//! **Barrier**: waits spin on the generation word for a fixed iteration
//! budget before parking, because a window's work is often shorter than
//! a futex sleep plus a cross-core wake. A panic on any partition
//! thread breaks the barrier, so peers leave their loops and the panic
//! reaches the caller instead of deadlocking the run.
//!
//! Statistics are streamed into `TRACE_BUCKETS`-bounded arrays by
//! partition 0 between the two barriers of each executed window (see
//! [`crate::stats`]); nothing is sized `O(end_time / window)`.

use crate::barrier::WindowBarrier;
use crate::event::{EventRecord, LpId};
use crate::model::{seed_events, Emitter, Model};
use crate::queue::EventQueue;
use crate::resume::ResumeState;
use crate::stats::{ExecutionStats, Scoring, WindowAccumulator};
use crate::time::SimTime;
use massf_topology::MassfError;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Hook for measuring wall-clock barrier-wait time from *outside* the
/// engine. The engine itself never reads host clocks (clippy's
/// `disallowed_types`); the bench crate implements this trait with
/// `Instant`-based timing and passes it into
/// [`try_run_parallel_observed`]. The observer is invoked around every
/// [`WindowBarrier::wait`] — outside the deterministic event path, so it
/// cannot affect simulation results.
pub trait BarrierObserver: Sync {
    /// Called by partition `p`'s thread immediately before it blocks on
    /// a barrier.
    fn wait_begin(&self, _partition: usize) {}
    /// Called immediately after the barrier releases the thread.
    fn wait_end(&self, _partition: usize) {}
    /// Total measured wait per partition, microseconds. Collected into
    /// [`ExecutionStats::barrier_wait_us`] after the run.
    fn waits_us(&self) -> Vec<f64> {
        Vec::new()
    }
}

/// The default observer: no measurement, zero overhead.
pub struct NoopBarrierObserver;

impl BarrierObserver for NoopBarrierObserver {}

/// Sentinel for "my queue is empty" in the published next-event times.
const IDLE: u64 = u64::MAX;

struct ThreadResult<M: Model> {
    shard: M,
    lp_events: Vec<u64>,
    total: u64,
    /// Earliest cross-partition event time (ns) this partition emitted
    /// inside the current window, if any — a lookahead violation.
    violation: Option<u64>,
    /// `Some` only for partition 0, which performs the reduction.
    windowed: Option<WindowAccumulator>,
    /// Barrier rounds this partition passed (equal on every partition).
    barrier_rounds: u64,
    /// This partition's drained frontier (empty unless the caller asked
    /// for a resume state), sorted by `(time, tag)`.
    pending: Vec<EventRecord<M::Event>>,
    /// Per-LP emission counters at exit (only this partition's LPs ever
    /// advanced beyond their restored values).
    counters: Vec<u32>,
}

/// Run `shards[p]` as partition `p`, one thread each, until `end_time`.
///
/// `assignment[lp]` gives each LP's partition; events for LP `l` are
/// handled by shard `assignment[l]`. Handlers must only touch state of
/// their target LP (see [`Model`]); under that contract the result is
/// bit-identical to [`crate::run_sequential`] with an equivalent
/// combined model.
///
/// Returns the shards (with their final state) and merged statistics,
/// or [`MassfError::LookaheadViolation`] if a model emitted a
/// cross-partition event with delay smaller than the window. On
/// violation all partition threads shut down together at the next
/// barrier and the error reports the earliest offending event.
///
/// A zero `window`, no shards, or an `assignment` inconsistent with
/// `lp_count` / the shard count is [`MassfError::InvalidConfig`],
/// returned before any thread spawns.
pub fn try_run_parallel<M: Model>(
    shards: Vec<M>,
    lp_count: usize,
    assignment: &[u32],
    initial: Vec<(SimTime, LpId, M::Event)>,
    end_time: SimTime,
    window: SimTime,
) -> Result<(Vec<M>, ExecutionStats), MassfError> {
    try_run_parallel_observed(
        shards,
        lp_count,
        assignment,
        initial,
        end_time,
        window,
        &NoopBarrierObserver,
    )
}

/// [`try_run_parallel`] with a [`BarrierObserver`] wrapped around every
/// barrier wait, for wall-clock sync-cost measurement from the bench
/// layer. `observer.waits_us()` lands in
/// [`ExecutionStats::barrier_wait_us`].
pub fn try_run_parallel_observed<M: Model, O: BarrierObserver>(
    shards: Vec<M>,
    lp_count: usize,
    assignment: &[u32],
    initial: Vec<(SimTime, LpId, M::Event)>,
    end_time: SimTime,
    window: SimTime,
    observer: &O,
) -> Result<(Vec<M>, ExecutionStats), MassfError> {
    let pending = seed_events(initial);
    let counters = vec![0u32; lp_count];
    let (shards, stats, _) = run_parallel_core(
        shards, lp_count, assignment, pending, counters, end_time, window, observer, false,
    )?;
    Ok((shards, stats))
}

/// Continue a paused run from `resume` until `end_time`, in parallel.
/// Returns the shards, the executed segment's stats, and the new
/// frontier — merged across partitions and sorted by `(time, tag)`, so
/// it is thread-count independent: resuming at 1 or N threads (or
/// chaining any mix of [`crate::seq::run_sequential_resumable`] and
/// this) reproduces the straight-through run bit for bit.
///
/// `resume` is validated first (it may come from a snapshot file);
/// malformed frontiers yield [`MassfError::InvalidConfig`].
#[expect(
    clippy::type_complexity,
    reason = "(shards, stats, frontier) is the natural segment result"
)]
pub fn try_run_parallel_resumable<M: Model>(
    shards: Vec<M>,
    lp_count: usize,
    assignment: &[u32],
    resume: ResumeState<M::Event>,
    end_time: SimTime,
    window: SimTime,
) -> Result<(Vec<M>, ExecutionStats, ResumeState<M::Event>), MassfError> {
    resume.validate(lp_count)?;
    run_parallel_core(
        shards,
        lp_count,
        assignment,
        resume.events,
        resume.counters,
        end_time,
        window,
        &NoopBarrierObserver,
        true,
    )
}

#[expect(
    clippy::too_many_arguments,
    clippy::type_complexity,
    reason = "internal core shared by the public facades"
)]
fn run_parallel_core<M: Model, O: BarrierObserver>(
    shards: Vec<M>,
    lp_count: usize,
    assignment: &[u32],
    pending: Vec<EventRecord<M::Event>>,
    counters_init: Vec<u32>,
    end_time: SimTime,
    window: SimTime,
    observer: &O,
    collect_resume: bool,
) -> Result<(Vec<M>, ExecutionStats, ResumeState<M::Event>), MassfError> {
    // Caller input, checked before any thread spawns: sessions pass
    // windows and assignments computed at run time (a migration can put
    // a zero-latency link on the cut).
    let partitions = shards.len();
    Scoring {
        window,
        assignment,
        partitions,
    }
    .check(lp_count)?;
    let end_ns = end_time.as_ns();

    // Route pending events to their home partitions.
    let mut initial_per_part: Vec<Vec<EventRecord<M::Event>>> =
        (0..partitions).map(|_| Vec::new()).collect();
    for ev in pending {
        let p = assignment[ev.target.index()] as usize;
        initial_per_part[p].push(ev);
    }

    // The mailbox matrix, row-major: slot p * partitions + q carries
    // events from sender p to receiver q. Each mutex is a swap
    // rendezvous touched once per pair per executed window.
    let exchange: Vec<Mutex<Vec<EventRecord<M::Event>>>> = (0..partitions * partitions)
        .map(|_| Mutex::new(Vec::new()))
        .collect();
    // Per-partition published state, read by everyone after a barrier:
    // the next local event time (fast-forward input) and the event count
    // of the window just executed (stats-reduction input).
    let next_times: Vec<AtomicU64> = (0..partitions).map(|_| AtomicU64::new(IDLE)).collect();
    let win_counts: Vec<AtomicU64> = (0..partitions).map(|_| AtomicU64::new(0)).collect();
    let barrier = WindowBarrier::new(partitions);
    // Lookahead violations raise this flag instead of panicking; all
    // threads observe it after the same barrier and shut down together,
    // each reporting its earliest offending event time.
    // (A thread that does panic — a model bug — breaks the barrier
    // through its `break_on_unwind` guard; the panic is re-raised below.)
    let poison = AtomicBool::new(false);

    let results: Vec<ThreadResult<M>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(partitions);
        for (p, (shard, init)) in shards.into_iter().zip(initial_per_part).enumerate() {
            let exchange = &exchange;
            let next_times = &next_times;
            let win_counts = &win_counts;
            let barrier = &barrier;
            let poison = &poison;
            let counters_init = &counters_init;
            handles.push(scope.spawn(move || {
                let _break_on_unwind = barrier.break_on_unwind();
                // One barrier round; false once a peer has unwound.
                let sync = || {
                    observer.wait_begin(p);
                    let round = barrier.wait();
                    observer.wait_end(p);
                    round.is_ok()
                };
                let mut shard = shard;
                // Per-thread event queue: local events never leave this
                // thread. Cross-partition events travel as full
                // `EventRecord`s through the exchange matrix and enter
                // the *receiver's* queue on drain.
                let mut queue: EventQueue<M::Event> = EventQueue::new();
                for ev in init {
                    queue.push(ev);
                }
                // Restored counters: only this partition's LPs will
                // advance; the merge below takes the elementwise max.
                let mut counters = counters_init.clone();
                let mut out_buf: Vec<EventRecord<M::Event>> = Vec::new();
                // Private per-destination rows; swapped (never moved)
                // into the exchange slots, so capacity is recycled.
                let mut out_rows: Vec<Vec<EventRecord<M::Event>>> =
                    (0..partitions).map(|_| Vec::new()).collect();
                let mut lp_events = vec![0u64; lp_count];
                let mut total = 0u64;
                let mut violation: Option<u64> = None;
                let mut windowed =
                    (p == 0).then(|| WindowAccumulator::new(partitions, window, end_time));
                let mut barrier_rounds = 1; // the initial publish barrier

                // Publish the initial next-event time, then rendezvous so
                // every partition computes the first window from complete
                // information.
                let next = queue.min_time().map_or(IDLE, SimTime::as_ns);
                next_times[p].store(next, Ordering::Relaxed);
                let mut live = sync();

                while live {
                    // Every partition computes the same global minimum
                    // from the same published values (happens-before via
                    // the barrier), so all take the same branch.
                    let global_min = next_times
                        .iter()
                        .map(|t| t.load(Ordering::Relaxed))
                        .min()
                        .unwrap_or(IDLE);
                    if global_min >= end_ns {
                        break;
                    }
                    // Fast-forward: jump straight to the window holding
                    // the next event anywhere in the simulation.
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "window indices are bounded by the run's window count, which fits usize"
                    )]
                    let w = (global_min / window.as_ns()) as usize;
                    let window_end = (window * (w as u64 + 1)).min(end_time);

                    // Process this window's local events.
                    let mut count = 0u64;
                    while let Some(ev) = queue.pop_before(window_end) {
                        let lp = ev.target;
                        debug_assert_eq!(assignment[lp.index()] as usize, p);
                        {
                            let mut emitter = Emitter::new(
                                ev.time,
                                lp.0,
                                &mut counters[lp.index()],
                                &mut out_buf,
                            );
                            shard.handle(lp, ev.time, ev.payload, &mut emitter);
                        }
                        lp_events[lp.index()] += 1;
                        count += 1;
                        for new_ev in out_buf.drain(..) {
                            let dest = assignment[new_ev.target.index()] as usize;
                            if dest == p {
                                queue.push(new_ev);
                            } else {
                                if new_ev.time < window_end {
                                    // Lookahead violation (window exceeds
                                    // the MLL). Record the earliest and
                                    // flag it; everyone aborts together
                                    // at the barrier.
                                    let t = new_ev.time.as_ns();
                                    violation = Some(violation.map_or(t, |prev| prev.min(t)));
                                    poison.store(true, Ordering::Relaxed);
                                }
                                out_rows[dest].push(new_ev);
                            }
                        }
                    }
                    total += count;
                    win_counts[p].store(count, Ordering::Relaxed);
                    // Publish outboxes: swap each non-empty row into its
                    // exchange slot. Uncontended by protocol — receivers
                    // only touch the slot after the barrier.
                    for (dest, row) in out_rows.iter_mut().enumerate() {
                        if !row.is_empty() {
                            std::mem::swap(&mut *exchange[p * partitions + dest].lock(), row);
                        }
                    }
                    // All sends for window `w` complete.
                    if !sync() || poison.load(Ordering::Relaxed) {
                        // Coordinated shutdown: every thread sees the
                        // flag (or the broken barrier) after the same
                        // round and returns, so no peer is left blocking.
                        break;
                    }
                    barrier_rounds += 2;
                    // Reduce this window's counts into the bucketed
                    // stats (partition 0 only; peers are draining their
                    // columns meanwhile, which never touches
                    // `win_counts`). Fast-forward chose `w` because it
                    // holds the globally next event, so it is never
                    // empty.
                    if let Some(acc) = windowed.as_mut() {
                        acc.record_window(w, win_counts.iter().map(|c| c.load(Ordering::Relaxed)));
                    }
                    // Drain my column in fixed sender-index order.
                    for q in 0..partitions {
                        if q == p {
                            continue;
                        }
                        let mut slot = exchange[q * partitions + p].lock();
                        for ev in slot.drain(..) {
                            debug_assert!(ev.time >= window_end, "lookahead-safe arrival");
                            queue.push(ev);
                        }
                    }
                    // Publish my next local event time for the
                    // fast-forward decision. Every in-flight event has
                    // been exchanged, so the global min over these is
                    // exact — and ≥ window_end, so virtual time strictly
                    // advances.
                    let next = queue.min_time().map_or(IDLE, SimTime::as_ns);
                    next_times[p].store(next, Ordering::Relaxed);
                    // Nobody may compute the next window (or start
                    // sending into it) until every partition has drained
                    // and published.
                    live = sync();
                }
                // At loop exit every in-flight event has been exchanged
                // (the exit check precedes popping, after a barrier), so
                // this queue holds exactly this partition's share of the
                // global frontier.
                let pending = if collect_resume && !poison.load(Ordering::Relaxed) {
                    queue.drain()
                } else {
                    Vec::new()
                };
                ThreadResult {
                    shard,
                    lp_events,
                    total,
                    violation,
                    windowed,
                    barrier_rounds,
                    pending,
                    counters,
                }
            }));
        }
        // A partition that panicked (a model bug) broke the barrier, so
        // every peer has returned; re-raise with the original payload.
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(result) => result,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    // Abort path: report the earliest violation across partitions
    // (deterministic — every thread processed the same window set before
    // the coordinated shutdown).
    if let Some((event_time_ns, partition)) = results
        .iter()
        .enumerate()
        .filter_map(|(p, r)| r.violation.map(|t| (t, p)))
        .min()
    {
        let partition = u32::try_from(partition).expect("partition count fits in u32");
        return Err(MassfError::LookaheadViolation {
            partition,
            event_time_ns,
            window_ns: window.as_ns(),
        });
    }

    let mut stats = ExecutionStats::new(lp_count);
    stats.end_time = end_time;
    stats.barrier_wait_us = observer.waits_us();
    let mut shards_out = Vec::with_capacity(partitions);
    let mut resume_events: Vec<EventRecord<M::Event>> = Vec::new();
    let mut resume_counters = vec![0u32; if collect_resume { lp_count } else { 0 }];
    for r in results {
        for (dst, src) in stats.lp_events.iter_mut().zip(&r.lp_events) {
            *dst += src;
        }
        stats.total_events += r.total;
        if let Some(acc) = r.windowed {
            stats = acc.finish(stats);
            stats.barrier_rounds = r.barrier_rounds;
        }
        if collect_resume {
            resume_events.extend(r.pending);
            // Each LP advances only in its owner partition; everywhere
            // else its counter stays at the restored value, so the
            // elementwise max reconstructs the global counter vector.
            for (dst, src) in resume_counters.iter_mut().zip(&r.counters) {
                *dst = (*dst).max(*src);
            }
        }
        shards_out.push(r.shard);
    }
    // Per-partition drains are each sorted; the merged frontier must be
    // globally sorted by `(time, tag)` to be partition-layout agnostic.
    resume_events.sort_unstable();
    Ok((
        shards_out,
        stats,
        ResumeState {
            events: resume_events,
            counters: resume_counters,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Token ring over n LPs with 1 ms hops; each shard records visits to
    /// its own LPs (handlers touch only target-LP state).
    #[derive(Debug)]
    struct RingShard {
        n: u32,
        hop: SimTime,
        visits: Vec<(u32, u64)>, // (lp, time ns)
    }

    impl Model for RingShard {
        type Event = u8;
        fn handle(&mut self, target: LpId, now: SimTime, _ev: u8, out: &mut Emitter<'_, u8>) {
            self.visits.push((target.0, now.as_ns()));
            out.emit(self.hop, LpId((target.0 + 1) % self.n), 0);
        }
    }

    fn ring_shards(n: u32, parts: usize, hop: SimTime) -> Vec<RingShard> {
        (0..parts)
            .map(|_| RingShard {
                n,
                hop,
                visits: vec![],
            })
            .collect()
    }

    #[test]
    fn parallel_matches_sequential_token_ring() {
        let n = 6u32;
        let hop = SimTime::from_ms(2);
        let end = SimTime::from_ms(50);
        let assignment = [0u32, 0, 1, 1, 2, 2];

        // Sequential reference.
        let mut seq_model = RingShard {
            n,
            hop,
            visits: vec![],
        };
        let seq_stats = crate::run_sequential(
            &mut seq_model,
            n as usize,
            vec![(SimTime::ZERO, LpId(0), 0)],
            end,
        );

        // Parallel, window = hop latency (the MLL).
        let (shards, par_stats) = try_run_parallel(
            ring_shards(n, 3, hop),
            n as usize,
            &assignment,
            vec![(SimTime::ZERO, LpId(0), 0)],
            end,
            hop,
        )
        .expect("window within lookahead");

        assert_eq!(seq_stats.total_events, par_stats.total_events);
        assert_eq!(seq_stats.lp_events, par_stats.lp_events);
        // Merge + sort parallel visit logs; must equal sequential order.
        let mut merged: Vec<(u32, u64)> = shards.into_iter().flat_map(|s| s.visits).collect();
        merged.sort_by_key(|&(_, t)| t);
        assert_eq!(merged, seq_model.visits);
    }

    #[test]
    fn resumable_parallel_chains_bit_identically_across_layouts() {
        let n = 6u32;
        let hop = SimTime::from_ms(2);
        let end = SimTime::from_ms(50);

        let mut seq_model = RingShard {
            n,
            hop,
            visits: vec![],
        };
        let seq_stats = crate::run_sequential(
            &mut seq_model,
            n as usize,
            vec![(SimTime::ZERO, LpId(0), 0)],
            end,
        );

        // Segment 1: 3 partitions to 24 ms. Segment 2: resume the merged
        // frontier on 2 partitions with a different assignment — the
        // frontier is layout-agnostic, so the chain must still equal the
        // sequential run bit for bit.
        let start = ResumeState {
            events: seed_events(vec![(SimTime::ZERO, LpId(0), 0)]),
            counters: vec![0; n as usize],
        };
        let (shards1, s1, mid) = try_run_parallel_resumable(
            ring_shards(n, 3, hop),
            n as usize,
            &[0, 0, 1, 1, 2, 2],
            start,
            SimTime::from_ms(24),
            hop,
        )
        .expect("no violation");
        let (shards2, s2, fin) = try_run_parallel_resumable(
            ring_shards(n, 2, hop),
            n as usize,
            &[0, 1, 0, 1, 0, 1],
            mid,
            end,
            hop,
        )
        .expect("no violation");

        let mut merged: Vec<(u32, u64)> = shards1
            .into_iter()
            .chain(shards2)
            .flat_map(|s| s.visits)
            .collect();
        merged.sort_by_key(|&(_, t)| t);
        assert_eq!(merged, seq_model.visits);
        assert_eq!(s1.total_events + s2.total_events, seq_stats.total_events);
        assert_eq!(fin.events.len(), 1, "the next hop survives in the frontier");
        assert_eq!(
            fin.counters.iter().map(|&c| u64::from(c)).sum::<u64>(),
            seq_stats.total_events,
            "every handled ring event emitted exactly one follow-up"
        );
    }

    #[test]
    fn window_counts_cover_all_events() {
        let n = 4u32;
        let hop = SimTime::from_ms(1);
        let (_, stats) = try_run_parallel(
            ring_shards(n, 2, hop),
            n as usize,
            &[0, 0, 1, 1],
            vec![(SimTime::ZERO, LpId(0), 0)],
            SimTime::from_ms(10),
            hop,
        )
        .expect("window within lookahead");
        let counted: u64 = stats.bucket_totals.iter().sum();
        assert_eq!(counted, stats.total_events);
        let by_partition: u64 = stats.partition_totals.iter().sum();
        assert_eq!(by_partition, stats.total_events);
        assert_eq!(stats.n_windows, 10);
        // A dense ring fills every window: nothing skipped, a barrier
        // pair per window plus the initial publish rendezvous.
        assert_eq!(stats.windows_executed, 10);
        assert_eq!(stats.windows_skipped, 0);
        assert_eq!(stats.barrier_rounds, 1 + 2 * 10);
    }

    #[test]
    fn single_partition_parallel_equals_sequential() {
        let n = 5u32;
        let hop = SimTime::from_ms(1);
        let mut seq_model = RingShard {
            n,
            hop,
            visits: vec![],
        };
        crate::run_sequential(
            &mut seq_model,
            n as usize,
            vec![(SimTime::ZERO, LpId(2), 0)],
            SimTime::from_ms(20),
        );
        let (shards, _) = try_run_parallel(
            ring_shards(n, 1, hop),
            n as usize,
            &[0, 0, 0, 0, 0],
            vec![(SimTime::ZERO, LpId(2), 0)],
            SimTime::from_ms(20),
            SimTime::from_ms(7), // window larger than hop is fine for 1 partition
        )
        .expect("window within lookahead");
        assert_eq!(shards[0].visits, seq_model.visits);
    }

    #[test]
    fn lookahead_violation_is_structured_and_earliest() {
        let n = 2u32;
        let hop = SimTime::from_ms(1);
        let err = try_run_parallel(
            ring_shards(n, 2, hop),
            n as usize,
            &[0, 1],
            vec![(SimTime::ZERO, LpId(0), 0)],
            SimTime::from_ms(10),
            SimTime::from_ms(2),
        )
        .expect_err("1 ms hops inside a 2 ms window must violate lookahead");
        // The t=0 event on LP0 (partition 0) emits the first violating
        // cross event, landing at t=1 ms inside window [0, 2) ms.
        assert_eq!(
            err,
            MassfError::LookaheadViolation {
                partition: 0,
                event_time_ns: SimTime::from_ms(1).as_ns(),
                window_ns: SimTime::from_ms(2).as_ns(),
            }
        );
        assert!(err.to_string().starts_with("lookahead violation"));
    }

    /// Caller input that used to trip an `assert!` inside a `try_` API
    /// comes back as `InvalidConfig`, before any thread spawns.
    #[test]
    fn bad_caller_input_is_invalid_config_not_a_panic() {
        let hop = SimTime::from_ms(1);
        let run = |parts: usize, assignment: &[u32], window: SimTime| {
            let initial = vec![(SimTime::ZERO, LpId(0), 0)];
            let end = SimTime::from_ms(10);
            try_run_parallel(
                ring_shards(2, parts, hop),
                2,
                assignment,
                initial,
                end,
                window,
            )
            .map(|(_, stats)| stats.total_events)
        };
        for (what, outcome) in [
            ("zero window", run(2, &[0, 1], SimTime::ZERO)),
            ("no shards", run(0, &[0, 1], hop)),
            ("short assignment", run(2, &[0], hop)),
            ("partition id past the shards", run(2, &[0, 2], hop)),
        ] {
            assert!(
                matches!(outcome, Err(MassfError::InvalidConfig(_))),
                "{what}: got {outcome:?}"
            );
        }
    }

    #[test]
    fn events_beyond_end_time_not_processed() {
        let n = 2u32;
        let hop = SimTime::from_ms(3);
        let (_, stats) = try_run_parallel(
            ring_shards(n, 2, hop),
            n as usize,
            &[0, 1],
            vec![(SimTime::ZERO, LpId(0), 0)],
            SimTime::from_ms(7),
            hop,
        )
        .expect("window within lookahead");
        // Events at t=0,3,6 run; t=9 is beyond end.
        assert_eq!(stats.total_events, 3);
    }

    /// A handler that panics used to leave its peers blocked in the
    /// barrier forever (and `thread::scope` never returned). The run
    /// goes on a helper thread so that a regression fails this test
    /// instead of hanging the suite.
    #[test]
    fn handler_panic_propagates_instead_of_deadlocking() {
        /// Token ring; only the `fragile` shard gives up.
        struct Fragile {
            fragile: bool,
            handled: u32,
        }
        impl Model for Fragile {
            type Event = u8;
            fn handle(&mut self, target: LpId, _now: SimTime, _ev: u8, out: &mut Emitter<'_, u8>) {
                self.handled += 1;
                assert!(
                    !self.fragile || self.handled < 10,
                    "shard gives up on event {}",
                    self.handled
                );
                out.emit(SimTime::from_ms(1), LpId(1 - target.0), 0);
            }
        }
        let shard = |fragile| Fragile {
            fragile,
            handled: 0,
        };
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(|| {
                try_run_parallel(
                    vec![shard(false), shard(true)],
                    2,
                    &[0, 1],
                    vec![(SimTime::ZERO, LpId(0), 0)],
                    SimTime::from_secs(1),
                    SimTime::from_ms(1),
                )
                .map(|(_, stats)| stats.total_events)
            });
            // The receiver may have timed out and gone; nothing to do then.
            let _ = done_tx.send(outcome);
        });
        let payload = done_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("executor deadlocked after a handler panic")
            .expect_err("the handler's panic must reach the caller");
        let message = payload
            .downcast_ref::<String>()
            .expect("a formatted assert! message is a String");
        assert_eq!(message, "shard gives up on event 10");
    }

    /// Two LPs ping-pong a token with a long idle gap between bursts:
    /// fast-forward must skip the empty windows (barrier count shrinks)
    /// while the visit log stays bit-identical to sequential.
    struct BurstShard {
        gap: SimTime,
        visits: Vec<(u32, u64)>,
    }

    impl Model for BurstShard {
        type Event = u32; // hops remaining in the current burst
        fn handle(&mut self, target: LpId, now: SimTime, left: u32, out: &mut Emitter<'_, u32>) {
            self.visits.push((target.0, now.as_ns()));
            let next = LpId(1 - target.0);
            if left > 0 {
                out.emit(SimTime::from_ms(1), next, left - 1);
            } else {
                out.emit(self.gap, next, 4); // next burst after the gap
            }
        }
    }

    #[test]
    fn fast_forward_skips_idle_windows_bit_identically() {
        let gap = SimTime::from_ms(200);
        let end = SimTime::from_secs(2);
        let window = SimTime::from_ms(1);
        let init = vec![(SimTime::ZERO, LpId(0), 4u32)];

        let mut seq = BurstShard {
            gap,
            visits: vec![],
        };
        let seq_stats = crate::run_sequential(&mut seq, 2, init.clone(), end);

        let shards = (0..2)
            .map(|_| BurstShard {
                gap,
                visits: vec![],
            })
            .collect();
        let (shards, stats) = try_run_parallel(shards, 2, &[0, 1], init, end, window)
            .expect("window within lookahead");

        let mut merged: Vec<(u32, u64)> = shards.into_iter().flat_map(|s| s.visits).collect();
        merged.sort_by_key(|&(_, t)| t);
        assert_eq!(merged, seq.visits);
        assert_eq!(stats.total_events, seq_stats.total_events);

        // 2000 nominal 1 ms windows, but bursts cover only ~5 ms every
        // ~204 ms: the executor must skip the idle stretches.
        assert_eq!(stats.n_windows, 2000);
        assert!(
            stats.windows_executed < 100,
            "only burst windows execute, got {}",
            stats.windows_executed
        );
        assert_eq!(stats.windows_skipped, 2000 - stats.windows_executed);
        assert_eq!(stats.barrier_rounds, 1 + 2 * stats.windows_executed);
        // ≥5× fewer barriers than the one-pair-per-window baseline.
        assert!(stats.barrier_rounds * 5 < 2 * 2000);
    }

    #[test]
    fn empty_initial_events_fast_forwards_to_exit() {
        let (_, stats) = try_run_parallel(
            ring_shards(2, 2, SimTime::from_ms(1)),
            2,
            &[0, 1],
            vec![],
            SimTime::from_secs(10),
            SimTime::from_ms(1),
        )
        .expect("window within lookahead");
        assert_eq!(stats.total_events, 0);
        assert_eq!(stats.windows_executed, 0);
        assert_eq!(stats.windows_skipped, 10_000);
        assert_eq!(stats.barrier_rounds, 1, "just the initial rendezvous");
    }

    /// The observer hooks fire around every barrier and its measurement
    /// lands in the stats without disturbing results.
    #[test]
    fn observer_hooks_fire_and_surface_in_stats() {
        use std::sync::atomic::AtomicU64 as Counter;
        struct CountingObserver {
            begins: Counter,
            ends: Counter,
        }
        impl BarrierObserver for CountingObserver {
            fn wait_begin(&self, _p: usize) {
                self.begins.fetch_add(1, Ordering::Relaxed);
            }
            fn wait_end(&self, _p: usize) {
                self.ends.fetch_add(1, Ordering::Relaxed);
            }
            fn waits_us(&self) -> Vec<f64> {
                vec![1.25, 2.5]
            }
        }
        let obs = CountingObserver {
            begins: Counter::new(0),
            ends: Counter::new(0),
        };
        let (_, stats) = try_run_parallel_observed(
            ring_shards(4, 2, SimTime::from_ms(1)),
            4,
            &[0, 0, 1, 1],
            vec![(SimTime::ZERO, LpId(0), 0)],
            SimTime::from_ms(10),
            SimTime::from_ms(1),
            &obs,
        )
        .expect("no violation");
        let expected = stats.barrier_rounds * 2; // 2 partitions per round
        assert_eq!(obs.begins.load(Ordering::Relaxed), expected);
        assert_eq!(obs.ends.load(Ordering::Relaxed), expected);
        assert_eq!(stats.barrier_wait_us, vec![1.25, 2.5]);
        assert!((stats.total_barrier_wait_us() - 3.75).abs() < 1e-12);
    }
}
