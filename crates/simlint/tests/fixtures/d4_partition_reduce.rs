//! D4 clean fixture: the deterministic way to combine per-partition
//! float results — collect into a slab indexed by partition id, then
//! reduce in fixed index order. Must pass every rule in the strictest
//! crate scopes.

pub fn combine(per_partition: &mut Vec<(usize, f64)>) -> f64 {
    // Fix the order first: partition id is a pure function of the
    // scenario, so the reduction order is schedule-independent.
    per_partition.sort_by_key(|(pid, _)| *pid);
    let mut total = 0.0f64;
    for (_, load) in per_partition.drain(..) {
        total += load;
    }
    total
}

pub fn integer_counters_are_always_safe(per_worker: &[u64]) -> u64 {
    per_worker.iter().sum::<u64>()
}

pub fn peak_is_order_independent(per_shard: &[f64]) -> f64 {
    per_shard.iter().fold(f64::NEG_INFINITY, f64::max)
}
