//! The window barrier of the parallel executor: sense-reversing,
//! spin-then-park, breakable.
//!
//! [`crate::par`] crosses a barrier twice per executed window, tens of
//! thousands of times per second of host time, and a window's work is
//! often shorter than a futex sleep plus a cross-core wake. So a waiter
//! first *spins* on the generation word — the release then costs one
//! cache-line transfer — yielding now and then in case a peer shares
//! its CPU, and only parks on a mutex + condvar when the spin budget
//! runs out. The releaser pays the wake syscall only when the sleeper
//! count says somebody actually parked.
//!
//! The budget is a fixed number of loop *iterations*, never a duration:
//! the engine does not read host clocks (`disallowed_types`), and nothing here
//! can steer simulated state anyway — the barrier decides only *when* a
//! thread proceeds, never *what* it computes.
//!
//! Spinning is only a win while every participant owns a core. With
//! more participants than [`std::thread::available_parallelism`] a
//! spinner burns the core a peer needs to reach the barrier, so
//! [`WindowBarrier::new`] sets the budget to zero there and every wait
//! parks at once. That is a property of the host, read once per
//! barrier, not an option.
//!
//! # Memory ordering
//!
//! Every arrival is an `AcqRel` `fetch_add` on `arrived`; the RMW chain
//! is one release sequence, so the last arriver's `fetch_add`
//! synchronizes-with every earlier arrival. It then resets `arrived`
//! and stores the next generation; waiters load it (both `SeqCst`,
//! which includes Release and Acquire). Transitively, everything any
//! participant wrote before `wait` happens-before everything any
//! participant does after it — which is why the executor's
//! per-partition publications can stay `Relaxed`. The reset
//! of `arrived` is sequenced before the generation store, so no thread
//! can arrive for round *k+1* before the counter is zero again.
//!
//! Park/wake is the usual two-flag handshake, and the reason the
//! generation accesses are `SeqCst` and not just Release/Acquire: the
//! parker increments `sleepers` and *then* re-reads the generation;
//! the releaser stores the generation and *then* reads `sleepers`. In the
//! single total order at least one of them sees the other, so either
//! the parker skips the sleep or the releaser notifies — and because
//! the parker holds the mutex from its re-check until `Condvar::wait`
//! releases it, a notification cannot fall into that gap.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Spin iterations before a waiter parks: ≈ 40 µs on the 2.1 GHz Xeon
/// this was sized on, about two futex sleep + wake round trips (≈ 18 µs
/// each), which bounds what a waiter that gives up has lost. On the
/// `multias_packet` benchmark workload 1024 gave back a quarter of the
/// gain and 16384 added nothing.
const SPIN_BUDGET: u32 = 4096;

/// Every this many spin iterations the waiter yields instead of
/// pausing. Linux tends to place a woken thread on its waker's CPU, and
/// two participants stacked on one CPU cannot see each other arrive
/// while one of them spins: each round would cost the whole budget plus
/// a park (≈ 58 µs measured) until the load balancer separates them,
/// hundreds of milliseconds later. The yield hands the CPU to such a
/// peer after ≈ 2.5 µs (stacked rounds then cost ≈ 4 µs, and both
/// threads stay runnable, so they are separated within milliseconds);
/// with a core each it returns at once.
const YIELD_EVERY: u32 = 256;

/// A peer unwound while the others were (or were about to be) waiting:
/// the round can never complete. Returned by [`WindowBarrier::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierBroken;

/// Reusable barrier for a fixed set of `n` threads. See the module docs.
#[derive(Debug)]
pub struct WindowBarrier {
    n: usize,
    spin_budget: u32,
    /// Arrivals in the current round; reset by the last arriver.
    arrived: AtomicUsize,
    /// Completed rounds. Waiters watch it change.
    generation: AtomicU64,
    broken: AtomicBool,
    /// Threads inside [`Self::park`]; lets the releaser skip the wake.
    sleepers: AtomicUsize,
    park_lock: Mutex<()>,
    wake: Condvar,
}

impl WindowBarrier {
    /// A barrier for `n` threads that spins before parking only if the
    /// host has a core for each of them.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        Self::with_spin_budget(n, if n <= cores { SPIN_BUDGET } else { 0 })
    }

    fn with_spin_budget(n: usize, spin_budget: u32) -> Self {
        assert!(n >= 1, "a barrier needs at least one participant");
        WindowBarrier {
            n,
            spin_budget,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            broken: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            park_lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Block until all `n` threads have called `wait` for this round.
    /// With `n == 1` this returns at once.
    ///
    /// # Errors
    /// [`BarrierBroken`] if a participant unwound (see
    /// [`Self::break_on_unwind`]); the caller must stop using the
    /// barrier and return.
    pub fn wait(&self) -> Result<(), BarrierBroken> {
        if self.n == 1 {
            return Ok(());
        }
        // Stable until this thread arrives: the round cannot complete
        // without it.
        let gen = self.generation.load(Ordering::Relaxed);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(gen.wrapping_add(1), Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                self.wake_sleepers();
            }
            return Ok(());
        }
        for i in 0..self.spin_budget {
            if let Some(outcome) = self.poll(gen) {
                return outcome;
            }
            if i % YIELD_EVERY == YIELD_EVERY - 1 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        self.park(gen)
    }

    /// `Some` once round `gen` is over, one way or the other. `broken` is
    /// read first: a participant that breaks the barrier after crossing
    /// round `gen` saw the new generation before it stored the flag, so
    /// a waiter that sees the flag and *then* the old generation knows
    /// the round can never complete — it never reports a completed round
    /// as broken.
    fn poll(&self, gen: u64) -> Option<Result<(), BarrierBroken>> {
        let broken = self.broken.load(Ordering::SeqCst);
        if self.generation.load(Ordering::SeqCst) != gen {
            Some(Ok(()))
        } else if broken {
            Some(Err(BarrierBroken))
        } else {
            None
        }
    }

    fn park(&self, gen: u64) -> Result<(), BarrierBroken> {
        let mut guard = self.lock_park();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let outcome = loop {
            if let Some(outcome) = self.poll(gen) {
                break outcome;
            }
            guard = self
                .wake
                .wait(guard)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        };
        self.sleepers.fetch_sub(1, Ordering::Relaxed);
        outcome
    }

    fn wake_sleepers(&self) {
        // Taking the lock orders this notification after any parker's
        // re-check-then-wait, which runs with the lock held.
        let _guard = self.lock_park();
        self.wake.notify_all();
    }

    /// The mutex guards no data (`()`), so a poisoned lock is as good
    /// as a clean one — and this runs on the unwind path, where a
    /// second panic would abort the process.
    fn lock_park(&self) -> MutexGuard<'_, ()> {
        self.park_lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A guard for a participant thread to hold while it uses the
    /// barrier: if the thread unwinds, the guard marks the barrier
    /// broken and wakes every waiter, so peers return
    /// [`BarrierBroken`] instead of waiting for an arrival that will
    /// never come.
    pub fn break_on_unwind(&self) -> BreakOnUnwind<'_> {
        BreakOnUnwind(self)
    }
}

/// See [`WindowBarrier::break_on_unwind`].
#[derive(Debug)]
pub struct BreakOnUnwind<'a>(&'a WindowBarrier);

impl Drop for BreakOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.broken.store(true, Ordering::SeqCst);
            self.0.wake_sleepers();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every thread stamps its slot with the round number (Relaxed — the
    /// barrier must supply the ordering, as it does for the executor's
    /// publications), crosses the barrier, and reads all slots. A slot
    /// still at `k - 1` means the barrier released before everyone
    /// arrived; a slot at `k + 2` means a peer crossed round `k + 1`
    /// without this thread, i.e. a stale generation let it through.
    fn phases_never_overlap(barrier: WindowBarrier, rounds: u64) {
        let n = barrier.n;
        let slots: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|scope| {
            for me in 0..n {
                let (barrier, slots) = (&barrier, &slots);
                scope.spawn(move || {
                    for k in 1..=rounds {
                        slots[me].store(k, Ordering::Relaxed);
                        barrier.wait().expect("nobody unwinds");
                        for (q, slot) in slots.iter().enumerate() {
                            let seen = slot.load(Ordering::Relaxed);
                            assert!(
                                seen == k || seen == k + 1,
                                "thread {me} after round {k}: thread {q} is at {seen}"
                            );
                        }
                    }
                });
            }
        });
        assert_eq!(barrier.generation.load(Ordering::Relaxed), rounds);
        assert_eq!(barrier.arrived.load(Ordering::Relaxed), 0);
        assert_eq!(barrier.sleepers.load(Ordering::Relaxed), 0);
    }

    const ROUNDS: u64 = 10_000;

    #[test]
    fn host_sized_construction_holds_the_phase_invariant() {
        for n in [2, 3, 8] {
            phases_never_overlap(WindowBarrier::new(n), ROUNDS);
        }
    }

    /// Budget 0: every non-final arrival parks, so the wake path and the
    /// lost-wakeup window run on every round, on any host.
    #[test]
    fn park_only_holds_the_phase_invariant() {
        for n in [2, 3, 8] {
            phases_never_overlap(WindowBarrier::with_spin_budget(n, 0), ROUNDS);
        }
    }

    /// A budget of a few iterations makes waiters give up spinning right
    /// around the moment of release, so spinners, parkers and the
    /// releaser's sleeper check race each other; 8 threads oversubscribe
    /// any host with fewer cores.
    #[test]
    fn mixed_spin_and_park_holds_the_phase_invariant() {
        for n in [2, 3, 8] {
            phases_never_overlap(WindowBarrier::with_spin_budget(n, 16), ROUNDS);
        }
    }

    /// Full budget with more spinners than cores (on hosts below 8).
    #[test]
    fn oversubscribed_spinning_holds_the_phase_invariant() {
        phases_never_overlap(WindowBarrier::with_spin_budget(8, SPIN_BUDGET), 1_000);
    }

    #[test]
    fn spins_only_when_every_participant_has_a_core() {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(WindowBarrier::new(cores).spin_budget, SPIN_BUDGET);
        assert_eq!(WindowBarrier::new(cores + 1).spin_budget, 0);
    }

    #[test]
    fn single_participant_never_blocks() {
        let barrier = WindowBarrier::new(1);
        for _ in 0..1_000 {
            assert_eq!(barrier.wait(), Ok(()));
        }
        assert_eq!(barrier.arrived.load(Ordering::Relaxed), 0);
    }

    /// One participant unwinds instead of arriving: spinning and parked
    /// peers both come back with `BarrierBroken`, and the panic reaches
    /// the joiner.
    #[test]
    fn unwinding_participant_releases_spinners_and_parkers() {
        for budget in [0, u32::MAX] {
            let barrier = WindowBarrier::with_spin_budget(3, budget);
            let outcomes: Vec<_> = std::thread::scope(|scope| {
                let waiters: Vec<_> = (0..2)
                    .map(|_| {
                        scope.spawn(|| {
                            let _guard = barrier.break_on_unwind();
                            barrier.wait().expect("first round completes");
                            barrier.wait()
                        })
                    })
                    .collect();
                let quitter = scope.spawn(|| {
                    let _guard = barrier.break_on_unwind();
                    barrier.wait().expect("first round completes");
                    panic!("quitter unwinds before the second round");
                });
                assert!(quitter.join().is_err());
                waiters
                    .into_iter()
                    .map(|h| h.join().expect("waiters return normally"))
                    .collect()
            });
            assert_eq!(outcomes, vec![Err(BarrierBroken); 2], "budget {budget}");
        }
    }
}
