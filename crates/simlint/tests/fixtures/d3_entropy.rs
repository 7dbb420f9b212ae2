// Fixture: D3 entropy-seeded RNG. Scanned by tests/fixtures.rs, never
// compiled (the fixtures directory is excluded from workspace scans).
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn nondeterministic() -> u64 {
    let mut rng = ChaCha8Rng::from_entropy(); // violation
    let mut other = rand::thread_rng(); // violation
    rng.gen::<u64>() ^ other.gen::<u64>()
}

fn deterministic(seed: u64) -> u64 {
    let mut rng = ChaCha8Rng::seed_from_u64(seed); // no violation
    rng.gen::<u64>()
}
