//! D4 fixture: float accumulation over partition-ordered data, checked
//! as the `engine` crate. The turbofish sum is flagged by lint_config.rs's
//! text check (clippy cannot see a float `sum`), the fold's `+` and the
//! loop's `+=` by `clippy::float_arithmetic`, the adder passed by path by
//! `disallowed-methods`. Each flagged line says so.

pub fn sum_turbofish(per_partition: &[f64]) -> f64 {
    per_partition.iter().sum::<f64>() // flagged: .sum::<f64>
}

pub fn fold_add(shard_totals: &[f64]) -> f64 {
    shard_totals.iter().fold(0.0f64, |a, b| a + b) // flagged: float fold
}

pub fn loop_accumulate(outboxes: &[Outbox]) -> f64 {
    let mut total: f64 = 0.0;
    for ob in outboxes.iter() {
        total += ob.bytes as f64; // flagged: += in a loop
    }
    total
}

pub fn fold_by_path(shard_totals: &[f64]) -> f64 {
    shard_totals.iter().copied().fold(0.0, std::ops::Add::add) // flagged: `+` by path
}

pub struct Outbox {
    pub bytes: u64,
}

// Order-safe shapes that must NOT fire:

pub fn max_fold_is_order_safe(worker_peaks: &[f64]) -> f64 {
    worker_peaks.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

pub fn integer_accumulation_is_fine(per_partition: &[u64]) -> u64 {
    let mut total = 0u64;
    for x in per_partition.iter() {
        total += x;
    }
    total
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let per_partition = [1.0f64, 2.0];
        assert!(per_partition.iter().sum::<f64>() > 0.0);
    }
}
