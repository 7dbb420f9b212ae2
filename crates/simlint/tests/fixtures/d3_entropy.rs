// Fixture: OS-entropy hashing clippy denies outside bench. The rand shim
// has no entropy source, so std's per-process `RandomState` is the one.
use std::collections::hash_map;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};

fn nondeterministic() -> u64 {
    let seeded_by_os = std::hash::RandomState::new(); // violation
    let other = hash_map::RandomState::new(); // violation: the same type
    seeded_by_os.hash_one(1u32) ^ other.hash_one(2u32)
}

fn deterministic(seed: u64) -> u64 {
    let fixed = BuildHasherDefault::<DefaultHasher>::default(); // no violation
    fixed.hash_one(seed)
}
