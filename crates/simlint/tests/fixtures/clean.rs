// Fixture: deterministic, panic-free code no lint should flag. Checked
// with clippy by tests/fixtures.rs; the fixtures directory is never
// built.
use std::collections::{BTreeMap, HashMap};

fn ordered_world(m: &BTreeMap<u32, u64>, h: &HashMap<u32, u64>) -> u64 {
    // BTreeMap iteration is ordered; HashMap point lookups are fine.
    let total: u64 = m.values().sum();
    total + h.get(&7).copied().unwrap_or(0)
}

fn honest_errors(o: Option<u32>) -> Result<u32, String> {
    o.ok_or_else(|| "missing".to_string())
}

fn widening(a: u16) -> u64 {
    a as u64
}
