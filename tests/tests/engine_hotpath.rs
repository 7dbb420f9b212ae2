//! Hot-path correctness of the overhauled parallel executor: property
//! tests for bit-identity against the sequential reference over random
//! window sizes (divisors and non-divisors of the horizon), sparse and
//! bursty schedules, and random LP→partition assignments; plus the
//! empty-window fast-forward guarantees, the bounded-memory regression
//! for tiny-window/long-horizon runs, and the two fixed ring workloads
//! (dense, sparse bursty) whose barrier counts EXPERIMENTS.md records;
//! and a schedule aimed at the event queue's edges (zero-delay chains,
//! equal-time ties from several sources, timers crossing powers of two).

use massf_engine::{
    run_sequential, run_sequential_resumable, run_sequential_windowed, seed_events,
    try_run_parallel, Emitter, ExecutionStats, LpId, Model, ResumeState, Scoring, SimTime,
    TRACE_BUCKETS,
};
use proptest::prelude::*;

/// Ring model keeping a full per-LP visit log — the strongest identity
/// witness: any difference in event order, timing, or payload at any LP
/// shows up. A token travels `burst` hops of `hop` each, then sleeps
/// `idle` before the next burst (`idle == ZERO` keeps the ring dense).
#[derive(Debug, Clone)]
struct LogRing {
    n: u32,
    hop: SimTime,
    idle: SimTime,
    burst: u32,
    log: Vec<Vec<(u64, u32)>>,
}

impl LogRing {
    fn new(n: u32, hop: SimTime, idle: SimTime, burst: u32) -> Self {
        LogRing {
            n,
            hop,
            idle,
            burst,
            log: vec![Vec::new(); n as usize],
        }
    }
}

impl Model for LogRing {
    type Event = u32; // hops left in the current burst

    fn handle(&mut self, target: LpId, now: SimTime, left: u32, out: &mut Emitter<'_, u32>) {
        self.log[target.index()].push((now.as_ns(), left));
        let next = LpId((target.0 + 1) % self.n);
        if left > 0 {
            out.emit(self.hop, next, left - 1);
        } else if self.idle > SimTime::ZERO {
            out.emit(self.idle, next, self.burst);
        } else {
            out.emit(self.hop, next, self.burst);
        }
    }
}

/// Merge shard logs: every LP is handled only on its home shard, so for
/// each LP exactly one shard may have entries.
fn merged_log(shards: &[LogRing]) -> Vec<Vec<(u64, u32)>> {
    let n = shards[0].log.len();
    (0..n)
        .map(|lp| {
            let mut owners = shards.iter().filter(|s| !s.log[lp].is_empty());
            let log = owners.next().map(|s| s.log[lp].clone()).unwrap_or_default();
            assert!(
                owners.next().is_none(),
                "LP {lp} was handled on more than one shard"
            );
            log
        })
        .collect()
}

/// Stats fields that must be bit-identical between the windowed
/// sequential reference and the parallel executor (everything except
/// `barrier_rounds` / `barrier_wait_us`, which are executor-specific).
fn assert_windowed_stats_match(seq: &ExecutionStats, par: &ExecutionStats) {
    assert_eq!(seq.total_events, par.total_events);
    assert_eq!(seq.lp_events, par.lp_events);
    assert_eq!(seq.bucket_critical, par.bucket_critical);
    assert_eq!(seq.bucket_totals, par.bucket_totals);
    assert_eq!(seq.partition_totals, par.partition_totals);
    assert_eq!(seq.coarse_trace, par.coarse_trace);
    assert_eq!(seq.windows_executed, par.windows_executed);
    assert_eq!(seq.windows_skipped, par.windows_skipped);
    assert_eq!(seq.n_windows, par.n_windows);
}

/// `run_sequential_windowed` with one scoring: that scoring's stats.
fn windowed<M: Model>(
    model: &mut M,
    lp_count: usize,
    initial: Vec<(SimTime, LpId, M::Event)>,
    end: SimTime,
    window: SimTime,
    assignment: &[u32],
    partitions: usize,
) -> ExecutionStats {
    let scoring = Scoring {
        window,
        assignment,
        partitions,
    };
    let mut scored =
        run_sequential_windowed(model, lp_count, initial, end, &[scoring]).expect("valid scoring");
    scored.pop().expect("one stats per scoring")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The overhauled executor is bit-identical to `run_sequential`
    /// (visit logs) and to `run_sequential_windowed` (window/partition
    /// accounting) for any window ≤ the 1 ms hop lookahead — including
    /// windows that do not divide the horizon — any burst/idle shape,
    /// and any assignment of LPs to 1..=4 partitions.
    #[test]
    fn parallel_is_bit_identical_over_random_windows_and_schedules(
        n in 2u32..24,
        parts in 1usize..5,
        // 1 ns ..= 1 ms: anything above 1 ms would violate the hop
        // lookahead; 1 ms itself (the 0 case below) divides the 200 ms
        // horizon exactly, most smaller values do not.
        window_ns in 0u64..=1_000_000,
        idle_ms in 0u64..50,
        burst in 0u32..12,
        tokens in proptest::collection::vec((0u64..50, any::<u32>()), 1..6),
        assign_seed in any::<u64>(),
    ) {
        let hop = SimTime::from_ms(1);
        let idle = SimTime::from_ms(idle_ms);
        let end = SimTime::from_ms(200);
        let window = SimTime::from_ns(if window_ns == 0 { 1_000_000 } else { window_ns });
        let initial: Vec<(SimTime, LpId, u32)> = tokens
            .iter()
            .map(|&(t, v)| (SimTime::from_ms(t), LpId(v % n), v % (burst + 1)))
            .collect();
        // Random (not block) assignment; some partitions may own no LPs.
        let assignment: Vec<u32> = (0..n as u64)
            .map(|i| {
                let x = assign_seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(i.wrapping_mul(1442695040888963407));
                (x >> 33) as u32 % parts as u32
            })
            .collect();

        let mut seq = LogRing::new(n, hop, idle, burst);
        run_sequential(&mut seq, n as usize, initial.clone(), end);

        let mut seqw = LogRing::new(n, hop, idle, burst);
        let seqw_stats = windowed(
            &mut seqw, n as usize, initial.clone(), end, window, &assignment, parts,
        );
        prop_assert_eq!(&seqw.log, &seq.log);

        let shards: Vec<LogRing> = (0..parts)
            .map(|_| LogRing::new(n, hop, idle, burst))
            .collect();
        let (shards, par_stats) =
            try_run_parallel(shards, n as usize, &assignment, initial, end, window)
                .expect("window within lookahead");

        prop_assert_eq!(&merged_log(&shards), &seq.log);
        assert_windowed_stats_match(&seqw_stats, &par_stats);
        prop_assert_eq!(par_stats.barrier_rounds, 1 + 2 * par_stats.windows_executed);
    }

    /// Fast-forward property: the executed barrier rounds track only the
    /// non-empty windows, so on any schedule the new executor performs
    /// `1 + 2·windows_executed` rounds where the pre-overhaul design
    /// paid `2·n_windows` — and skipping never perturbs the logs.
    #[test]
    fn fast_forward_shrinks_barrier_count_without_touching_logs(
        n in 2u32..16,
        parts in 2usize..5,
        idle_ms in 20u64..200,
        burst in 1u32..8,
    ) {
        let hop = SimTime::from_ms(1);
        let idle = SimTime::from_ms(idle_ms);
        let end = SimTime::from_secs(2);
        let window = hop;
        let initial = vec![(SimTime::ZERO, LpId(0), burst)];

        let mut seq = LogRing::new(n, hop, idle, burst);
        run_sequential(&mut seq, n as usize, initial.clone(), end);

        let assignment: Vec<u32> = (0..n).map(|i| i % parts as u32).collect();
        let shards: Vec<LogRing> = (0..parts)
            .map(|_| LogRing::new(n, hop, idle, burst))
            .collect();
        let (shards, stats) =
            try_run_parallel(shards, n as usize, &assignment, initial, end, window)
                .expect("window within lookahead");

        prop_assert_eq!(&merged_log(&shards), &seq.log);
        prop_assert_eq!(stats.barrier_rounds, 1 + 2 * stats.windows_executed);
        prop_assert!(stats.windows_skipped > 0, "idle gaps must produce empty windows");
        let old_rounds = 2 * stats.n_windows as u64;
        prop_assert!(
            stats.barrier_rounds < old_rounds,
            "fast-forward must beat the fixed-stride barrier count ({} vs {})",
            stats.barrier_rounds,
            old_rounds
        );
    }
}

/// The dense and sparse-bursty rings of EXPERIMENTS.md "Engine hot path
/// & sync cost", as fixed inputs: parallel ≡ sequential at 1/2/4
/// partitions, the windowed stats add up, and barrier rounds follow the
/// executed windows only (the recorded counts, the same at any
/// partition count). A barrier pair per nominal window would cost
/// `2·n_windows` rounds — 40,000 on the sparse ring.
#[test]
fn dense_and_sparse_rings_match_sequential_and_count_barriers() {
    let n = 64u32;
    let hop = SimTime::from_ms(1); // the MLL of any contiguous cut
    let ms = SimTime::from_ms;
    // (label, idle, burst, tokens, end, recorded barrier rounds)
    let rings = [
        ("dense", SimTime::ZERO, 1u32, 8u32, ms(5_000), 10_001u64),
        ("sparse", ms(500), 20, 4, ms(20_000), 1_639),
    ];
    for (ring, idle, burst, tokens, end, rounds) in rings {
        let model = || LogRing::new(n, hop, idle, burst);
        // Token k starts at LP k·n/tokens with a fresh burst.
        let initial: Vec<(SimTime, LpId, u32)> = (0..tokens)
            .map(|k| (SimTime::ZERO, LpId(k * n / tokens), burst))
            .collect();
        let mut seq = model();
        run_sequential(&mut seq, n as usize, initial.clone(), end);

        for parts in [1usize, 2, 4] {
            let label = format!("{ring} ring, {parts} partitions");
            // Contiguous arcs: the minimum cut of a ring.
            let per = n / parts as u32;
            let assignment: Vec<u32> = (0..n).map(|lp| lp / per).collect();
            let shards = (0..parts).map(|_| model()).collect();
            let (shards, stats) =
                try_run_parallel(shards, n as usize, &assignment, initial.clone(), end, hop)
                    .expect("window within lookahead");

            assert_eq!(merged_log(&shards), seq.log, "{label}");
            let windows = stats.n_windows as u64;
            let counted: u64 = stats.bucket_totals.iter().sum();
            assert_eq!(counted, stats.total_events, "{label}");
            assert_eq!(
                stats.windows_executed + stats.windows_skipped,
                windows,
                "{label}"
            );
            assert_eq!(
                stats.barrier_rounds,
                1 + 2 * stats.windows_executed,
                "{label}"
            );
            assert_eq!(stats.barrier_rounds, rounds, "{label}");
            if ring == "sparse" {
                assert!(5 * stats.barrier_rounds <= 2 * windows, "{label}");
            }
        }
    }
}

/// Regression for the O(n_windows) memory blowup: a 1 µs window over a
/// 100 s horizon means 10^8 nominal windows. The executor must neither
/// allocate per-window arrays nor iterate empty windows — the run holds
/// three events and finishes instantly with all stats vectors bounded by
/// `TRACE_BUCKETS`.
#[test]
fn tiny_window_long_horizon_stays_bounded() {
    let n = 4u32;
    let hop = SimTime::from_secs(30); // three hops inside the horizon
    let model = || LogRing::new(n, hop, SimTime::ZERO, 0);
    let end = SimTime::from_secs(100);
    let window = SimTime::from_us(1);
    let n_windows = 100_000_000usize;
    let initial = vec![(SimTime::ZERO, LpId(0), 0u32)];
    let assignment: Vec<u32> = (0..n).map(|i| i % 2).collect();

    let mut seq = model();
    let seq_stats = windowed(
        &mut seq,
        n as usize,
        initial.clone(),
        end,
        window,
        &assignment,
        2,
    );

    let (shards, stats) = try_run_parallel(
        vec![model(), model()],
        n as usize,
        &assignment,
        initial,
        end,
        window,
    )
    .expect("window within lookahead");

    for s in [&seq_stats, &stats] {
        assert_eq!(s.n_windows, n_windows);
        assert_eq!(s.total_events, 4);
        assert_eq!(s.windows_executed, 4);
        assert_eq!(s.windows_skipped, n_windows as u64 - 4);
        assert!(s.bucket_critical.len() <= TRACE_BUCKETS);
        assert!(s.bucket_totals.len() <= TRACE_BUCKETS);
        assert!(s.coarse_trace.len() <= TRACE_BUCKETS);
    }
    assert_eq!(merged_log(&shards), seq.log);
    // 4 executed windows ⇒ 9 barrier rounds instead of 2·10^8.
    assert_eq!(stats.barrier_rounds, 9);
}

/// Payload of [`Mixer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mix {
    /// Every LP's self-timer: re-arm after [`TIMER`], start two tokens.
    Timer,
    /// A token with this many hops left, from this LP.
    Token(u32, u32),
    /// A zero-delay self event with this many more to follow.
    Echo(u32),
}

/// Timers every 2^30 + 2^28 + 7 ns fire on all LPs at once and cross
/// 2^31, 2^32 and 2^33 ns; their tokens reach each LP from two sources
/// at the same instant, and every token hop starts a zero-delay chain.
const TIMER: SimTime = SimTime::from_ns((1 << 30) + (1 << 28) + 7);
const HOP: SimTime = SimTime::from_ms(1);

#[derive(Debug, Clone)]
struct Mixer {
    n: u32,
    log: Vec<Vec<(u64, Mix)>>,
}

impl Mixer {
    fn new(n: u32) -> Self {
        Mixer {
            n,
            log: vec![Vec::new(); n as usize],
        }
    }
}

impl Model for Mixer {
    type Event = Mix;

    fn handle(&mut self, target: LpId, now: SimTime, ev: Mix, out: &mut Emitter<'_, Mix>) {
        self.log[target.index()].push((now.as_ns(), ev));
        let next = |k: u32| LpId((target.0 + k) % self.n);
        match ev {
            Mix::Timer => {
                out.emit(TIMER, target, Mix::Timer);
                out.emit(HOP, next(1), Mix::Token(4, target.0));
                out.emit(HOP, next(2), Mix::Token(4, target.0));
            }
            Mix::Token(left, _) => {
                out.emit(SimTime::ZERO, target, Mix::Echo(1));
                if left > 0 {
                    out.emit(HOP, next(1), Mix::Token(left - 1, target.0));
                }
            }
            Mix::Echo(left) => {
                if left > 0 {
                    out.emit(SimTime::ZERO, target, Mix::Echo(left - 1));
                }
            }
        }
    }
}

#[test]
fn queue_edges_match_across_executors_and_a_split_at_2_pow_32() {
    let n = 6u32;
    let split = SimTime::from_ns(1 << 32);
    let end = SimTime::from_ns((1 << 33) + (1 << 31));
    // Every LP's timer at 0, plus one on LP 0 whose tokens arrive at
    // exactly 2^32 ns.
    let mut initial: Vec<(SimTime, LpId, Mix)> = (0..n)
        .map(|lp| (SimTime::ZERO, LpId(lp), Mix::Timer))
        .collect();
    initial.push((split - HOP, LpId(0), Mix::Timer));

    let mut seq = Mixer::new(n);
    run_sequential(&mut seq, n as usize, initial.clone(), end);
    let times: Vec<u64> = seq.log.iter().flatten().map(|&(t, _)| t).collect();
    assert!(times.contains(&split.as_ns()), "an event lands on 2^32 ns");
    assert!(
        times.iter().any(|&t| t > 1 << 33),
        "the run crosses 2^33 ns"
    );

    for parts in [1usize, 2, 4] {
        let assignment: Vec<u32> = (0..n).map(|lp| lp % parts as u32).collect();
        let mut seqw = Mixer::new(n);
        let seqw_stats = windowed(
            &mut seqw,
            n as usize,
            initial.clone(),
            end,
            HOP,
            &assignment,
            parts,
        );
        assert_eq!(seqw.log, seq.log, "{parts} partitions");
        let shards = (0..parts).map(|_| Mixer::new(n)).collect();
        let (shards, par_stats) =
            try_run_parallel(shards, n as usize, &assignment, initial.clone(), end, HOP)
                .expect("window within lookahead");
        let merged: Vec<Vec<(u64, Mix)>> = (0..n as usize)
            .map(|lp| {
                let shard: &Mixer = &shards[assignment[lp] as usize];
                shard.log[lp].clone()
            })
            .collect();
        assert_eq!(merged, seq.log, "{parts} partitions");
        // Includes `lp_events`.
        assert_windowed_stats_match(&seqw_stats, &par_stats);
        assert_eq!(
            par_stats.barrier_rounds,
            1 + 2 * seqw_stats.windows_executed,
            "{parts} partitions"
        );
    }

    // Two resumable segments split at exactly 2^32 ns ≡ one.
    let mut events = seed_events(initial);
    events.sort_unstable();
    let start = ResumeState {
        events,
        counters: vec![0; n as usize],
    };
    let mut straight = Mixer::new(n);
    let (all, all_frontier) =
        run_sequential_resumable(&mut straight, n as usize, start.clone(), end).expect("valid");
    let mut halves = Mixer::new(n);
    let (first, mid) =
        run_sequential_resumable(&mut halves, n as usize, start, split).expect("valid");
    assert!(
        mid.events.iter().any(|ev| ev.time == split),
        "events at the cut wait in the frontier"
    );
    let (second, frontier) =
        run_sequential_resumable(&mut halves, n as usize, mid, end).expect("valid");
    assert_eq!(halves.log, straight.log);
    assert_eq!(straight.log, seq.log);
    let summed: Vec<u64> = first
        .lp_events
        .iter()
        .zip(&second.lp_events)
        .map(|(a, b)| a + b)
        .collect();
    assert_eq!(summed, all.lp_events);
    let key = |s: &ResumeState<Mix>| -> Vec<(SimTime, u64, LpId, Mix)> {
        s.events
            .iter()
            .map(|ev| (ev.time, ev.tag, ev.target, ev.payload))
            .collect()
    };
    assert_eq!(key(&frontier), key(&all_frontier));
    assert_eq!(frontier.counters, all_frontier.counters);
}
