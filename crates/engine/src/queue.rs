//! The per-executor event queue: one thread's pending events, popped in
//! exact `(time, tag)` order.
//!
//! Storage and index are separate. A pending event's payload, tag and
//! target sit in slot arrays, and freed slots are recycled LIFO, so the
//! storage stops growing at the pending high-water mark. The index
//! orders only 16-byte [`Key`]s `(time, slot)`.
//!
//! The index is a monotone radix heap. `last` is the time of the most
//! recent pop, and no pending time is below it: handlers emit with delay
//! ≥ 0, and the parallel executor receives cross-partition events at
//! ≥ the window end. A key lives in the bucket of the highest bit in
//! which its time differs from `last` (bucket 0 when equal). A pop takes
//! bucket 0. When bucket 0 is empty, the smallest time of the lowest
//! non-empty bucket becomes the new floor, and that bucket's keys move
//! into strictly lower buckets. A push is O(1), and a key moves down at
//! most 64 times in its life, usually a few.
//!
//! Bucket 0 holds exactly the keys at time `last`, sorted by descending
//! tag so `Vec::pop` takes the smallest. Pops therefore come out in the
//! `(time, tag)` order a binary heap on that pair gives, which
//! `tests::radix_queue_matches_binary_heap_oracle` checks.
//!
//! The floor moves only to a time a pop returns, never to a limit: after
//! its window's pops, the parallel executor pushes the events it receives
//! at ≥ the window end, and they must stay legal pushes.

use crate::event::{EventRecord, LpId};
use crate::time::SimTime;
use std::cmp::Reverse;

/// A pending event in the index: its time and its storage slot.
#[derive(Clone, Copy)]
struct Key {
    time: u64,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<Key>() == 16);

/// Bucket 0 for time `== last`, bucket `b` in `1..=64` for times whose
/// highest bit differing from `last` is bit `b - 1`.
const BUCKETS: usize = 65;

/// The bucket of `time` relative to the floor `last`.
#[inline]
fn bucket(time: u64, last: u64) -> usize {
    (64 - (time ^ last).leading_zeros()) as usize
}

/// One executor thread's pending events.
pub(crate) struct EventQueue<M> {
    payloads: Vec<Option<M>>,
    tags: Vec<u64>,
    targets: Vec<LpId>,
    free: Vec<u32>,
    buckets: [Vec<Key>; BUCKETS],
    /// Bit `b` is set iff `buckets[b]` is non-empty.
    nonempty: u128,
    /// The time of the last pop; no pending time is below it.
    last: u64,
    len: usize,
}

impl<M> EventQueue<M> {
    pub(crate) fn new() -> Self {
        EventQueue {
            payloads: Vec::new(),
            tags: Vec::new(),
            targets: Vec::new(),
            free: Vec::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            nonempty: 0,
            last: 0,
            len: 0,
        }
    }

    /// Schedule `ev`.
    ///
    /// # Panics
    /// If `ev.time` is before the last popped time. The executors never
    /// schedule into the past, so this is an engine bug.
    pub(crate) fn push(&mut self, ev: EventRecord<M>) {
        let time = ev.time.as_ns();
        assert!(time >= self.last, "event scheduled before the last pop");
        let slot = match self.free.pop() {
            Some(slot) => {
                let i = slot as usize;
                self.payloads[i] = Some(ev.payload);
                self.tags[i] = ev.tag;
                self.targets[i] = ev.target;
                slot
            }
            None => {
                let slot = u32::try_from(self.payloads.len()).expect("pending events fit in u32");
                self.payloads.push(Some(ev.payload));
                self.tags.push(ev.tag);
                self.targets.push(ev.target);
                slot
            }
        };
        let key = Key { time, slot };
        let b = bucket(time, self.last);
        if b == 0 {
            let tags = &self.tags;
            let at = self.buckets[0].partition_point(|k| tags[k.slot as usize] > ev.tag);
            self.buckets[0].insert(at, key);
        } else {
            self.buckets[b].push(key);
        }
        self.nonempty |= 1 << b;
        self.len += 1;
    }

    /// Remove and return the first event in `(time, tag)` order if its
    /// time is before `limit`; otherwise `None`, with the floor unmoved.
    pub(crate) fn pop_before(&mut self, limit: SimTime) -> Option<EventRecord<M>> {
        if self.nonempty & 1 == 0 {
            let b = self.nonempty.trailing_zeros() as usize;
            if b == 128 {
                return None;
            }
            let min = self.bucket_min(b);
            if min >= limit.as_ns() {
                return None;
            }
            self.advance(b, min);
        } else if self.last >= limit.as_ns() {
            return None;
        }
        let key = self.buckets[0].pop().expect("bucket 0 is marked non-empty");
        if self.buckets[0].is_empty() {
            self.nonempty &= !1;
        }
        Some(self.take(key))
    }

    /// The earliest pending time, without moving the floor.
    pub(crate) fn min_time(&self) -> Option<SimTime> {
        match self.nonempty.trailing_zeros() {
            128 => None,
            0 => Some(SimTime::from_ns(self.last)),
            b => Some(SimTime::from_ns(self.bucket_min(b as usize))),
        }
    }

    /// Remove every pending event, sorted by `(time, tag)`.
    pub(crate) fn drain(&mut self) -> Vec<EventRecord<M>> {
        let mut events = Vec::with_capacity(self.len);
        let buckets = std::mem::replace(&mut self.buckets, std::array::from_fn(|_| Vec::new()));
        for key in buckets.into_iter().flatten() {
            events.push(self.take(key));
        }
        self.nonempty = 0;
        events.sort_unstable();
        events
    }

    fn bucket_min(&self, b: usize) -> u64 {
        self.buckets[b]
            .iter()
            .map(|k| k.time)
            .min()
            .expect("marked buckets are non-empty")
    }

    /// Make `min`, the smallest time of bucket `b` (the lowest non-empty
    /// one, bucket 0 being empty), the floor. Every key of `b` agrees
    /// with `min` above bit `b - 1`, so each moves to a lower bucket and
    /// no key of a higher bucket changes bucket.
    fn advance(&mut self, b: usize, min: u64) {
        self.last = min;
        self.nonempty &= !(1 << b);
        let mut keys = std::mem::take(&mut self.buckets[b]);
        for key in keys.drain(..) {
            let to = bucket(key.time, min);
            self.buckets[to].push(key);
            self.nonempty |= 1 << to;
        }
        if self.buckets[0].len() > 1 {
            let tags = &self.tags;
            self.buckets[0].sort_unstable_by_key(|k| Reverse(tags[k.slot as usize]));
        }
        // A high bucket fills once per 2^(b-1) ns and is drained whole:
        // keeping its allocation would hold a multiple of the live keys,
        // while freeing every drained bucket reallocates the small, busy
        // ones on every refill.
        if keys.capacity() <= self.len / 4 {
            self.buckets[b] = keys;
        }
    }

    /// Release `key`'s slot and return its event.
    fn take(&mut self, key: Key) -> EventRecord<M> {
        let i = key.slot as usize;
        self.free.push(key.slot);
        self.len -= 1;
        EventRecord {
            time: SimTime::from_ns(key.time),
            target: self.targets[i],
            tag: self.tags[i],
            payload: self.payloads[i]
                .take()
                .expect("a keyed slot holds a payload"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BinaryHeap;

    fn rec(time: u64, tag: u64) -> EventRecord<u64> {
        EventRecord {
            time: SimTime::from_ns(time),
            target: LpId(tag as u32),
            tag,
            payload: tag ^ time,
        }
    }

    /// Sum of the index's bucket capacities, in keys.
    fn key_capacity<M>(q: &EventQueue<M>) -> usize {
        q.buckets.iter().map(Vec::capacity).sum()
    }

    fn pops(q: &mut EventQueue<u64>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| q.pop_before(SimTime::MAX))
            .map(|ev| (ev.time.as_ns(), ev.tag))
            .collect()
    }

    #[test]
    fn queued_events_order_by_time_then_tag() {
        let mut q = EventQueue::new();
        for (t, tag) in [(1, 9), (2, 0), (1, 1)] {
            q.push(rec(t, tag));
        }
        assert_eq!(q.min_time(), Some(SimTime::from_ns(1)));
        assert_eq!(pops(&mut q), vec![(1, 1), (1, 9), (2, 0)]);
    }

    #[test]
    fn slots_recycle_lifo_without_growth() {
        let mut q = EventQueue::new();
        for i in 0..4 {
            q.push(rec(i, i));
        }
        assert_eq!(pops(&mut q).len(), 4);
        // Steady-state churn reuses the four slots, most-recently-freed
        // first, and never grows the slot arrays.
        for round in 4..7 {
            let reused = *q.free.last().expect("four freed slots");
            q.push(rec(round, round));
            assert_eq!(q.payloads.len(), 4);
            assert_eq!(q.free.len(), 3);
            assert!(q.free.iter().all(|&s| s != reused), "took the top slot");
            let ev = q.pop_before(SimTime::MAX).expect("one pending");
            assert_eq!(ev.payload, round ^ round);
        }
    }

    #[test]
    fn cascade_keeps_key_capacity_bounded() {
        let mut q = EventQueue::new();
        let n = 10_000u64;
        let boundary = 1u64 << 32;
        let mut high_water = 0;
        // Times in [2^32 - n/2, 2^32 + n/2), pushed out of order.
        for i in 0..n {
            let t = boundary - n / 2 + (i * 7_919) % n;
            q.push(rec(t, i));
            high_water = high_water.max(key_capacity(&q));
        }
        let mut prev = 0;
        while let Some(ev) = q.pop_before(SimTime::MAX) {
            assert!(ev.time.as_ns() > prev || prev == 0);
            prev = ev.time.as_ns();
            high_water = high_water.max(key_capacity(&q));
        }
        assert_eq!(prev, boundary + n / 2 - 1);
        let n = n as usize;
        assert!(high_water <= 3 * n, "key capacity peaked at {high_water}");
        // Drained, the index returns what it held for the live set.
        assert!(
            key_capacity(&q) <= n / 8,
            "{} keys still allocated",
            key_capacity(&q)
        );
    }

    /// One operation of the random sequences below.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Push at the floor plus a delay of this shape.
        Push(u64, u64),
        /// Pop below a limit placed relative to the current minimum.
        Pop(u64, u64),
        MinTime,
        Drain,
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..16, any::<u64>(), any::<u64>()).prop_map(|(kind, a, b)| match kind {
            0..=8 => Op::Push(a, b),
            9..=13 => Op::Pop(a, b),
            14 => Op::MinTime,
            _ => Op::Drain,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The queue against the binary heap it replaced, over random
        /// push / pop_before / min_time / drain sequences under the
        /// monotone contract (pushes at ≥ the last popped time): equal
        /// times with shuffled tags, zero-delay pushes after a pop at the
        /// same time, limits below, at and above the minimum, and times
        /// straddling 2^32 ns.
        #[test]
        fn radix_queue_matches_binary_heap_oracle(
            start in 0u64..4,
            ops in proptest::collection::vec(op(), 1..400),
        ) {
            let mut q = EventQueue::new();
            let mut oracle: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            // Near 0, just below 2^32, just below 2^33 and near the top
            // (400 pushes of < 2^34 ns each cannot overflow from there).
            let mut floor = [0, (1 << 32) - 300, (1 << 33) - 40, u64::MAX - (1 << 44)]
                [start as usize];
            let mut pushed = 0u64;
            for op in ops {
                match op {
                    Op::Push(shape, r) => {
                        let delay = match shape % 5 {
                            0 | 1 => 0,
                            2 => r % 8,
                            3 => r % 600,
                            _ => r % (1 << 34),
                        };
                        // Unique tags in shuffled order, as the engine's
                        // (source, counter) tags are.
                        let tag = pushed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        pushed += 1;
                        q.push(rec(floor + delay, tag));
                        oracle.push(Reverse((floor + delay, tag)));
                    }
                    Op::Pop(shape, r) => {
                        let head = oracle.peek().map(|&Reverse(k)| k);
                        let min = head.map_or(floor, |(t, _)| t);
                        let limit = match shape % 4 {
                            0 => min.saturating_sub(r % 4),
                            1 => min,
                            2 => min.saturating_add(1 + r % 1_000),
                            _ => u64::MAX,
                        };
                        let got = q.pop_before(SimTime::from_ns(limit));
                        let want = head.filter(|&(t, _)| t < limit);
                        prop_assert_eq!(got.as_ref().map(|e| (e.time.as_ns(), e.tag)), want);
                        if let Some(ev) = got {
                            prop_assert_eq!(ev.payload, ev.tag ^ ev.time.as_ns());
                            prop_assert_eq!(ev.target, LpId(ev.tag as u32));
                            oracle.pop();
                            floor = ev.time.as_ns();
                        }
                    }
                    Op::MinTime => {
                        let want = oracle.peek().map(|&Reverse((t, _))| SimTime::from_ns(t));
                        prop_assert_eq!(q.min_time(), want);
                    }
                    Op::Drain => {
                        let got: Vec<(u64, u64)> =
                            q.drain().iter().map(|e| (e.time.as_ns(), e.tag)).collect();
                        let want: Vec<(u64, u64)> =
                            std::iter::from_fn(|| oracle.pop().map(|Reverse(k)| k)).collect();
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(q.len, oracle.len());
            }
            let rest: Vec<(u64, u64)> = pops(&mut q);
            let want: Vec<(u64, u64)> =
                std::iter::from_fn(|| oracle.pop().map(|Reverse(k)| k)).collect();
            prop_assert_eq!(rest, want);
        }
    }
}
