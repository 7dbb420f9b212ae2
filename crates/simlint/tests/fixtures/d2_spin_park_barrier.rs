//! The window barrier's wait pattern (crates/engine/src/barrier.rs):
//! arrivals count on an atomic, the last one bumps a generation word,
//! waiters spin on it with `spin_loop` (and an occasional `yield_now`)
//! for a fixed *iteration* budget and then park on a mutex + condvar,
//! woken only when the sleeper count is non-zero. No clock bounds the spin, nothing measured flows
//! anywhere, and no container is iterated. clippy must report nothing
//! here, for any crate — see `d2_spin_clock_bound.rs` for the twin that
//! bounds the spin with `Instant::now()` and must be flagged.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

const SPIN_BUDGET: u32 = 4096;
const YIELD_EVERY: u32 = 256;

pub struct SpinParkBarrier {
    n: usize,
    arrived: AtomicUsize,
    generation: AtomicU64,
    sleepers: AtomicUsize,
    park_lock: Mutex<()>,
    wake: Condvar,
}

impl SpinParkBarrier {
    pub fn wait(&self) {
        let gen = self.generation.load(Ordering::Relaxed);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(gen + 1, Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                let _guard = self.park_lock.lock();
                self.wake.notify_all();
            }
            return;
        }
        for i in 0..SPIN_BUDGET {
            if self.generation.load(Ordering::Acquire) != gen {
                return;
            }
            if i % YIELD_EVERY == YIELD_EVERY - 1 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        let Ok(mut guard) = self.park_lock.lock() else {
            return;
        };
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while self.generation.load(Ordering::SeqCst) == gen {
            guard = match self.wake.wait(guard) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        self.sleepers.fetch_sub(1, Ordering::Relaxed);
    }
}
