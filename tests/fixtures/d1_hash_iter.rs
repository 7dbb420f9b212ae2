// Fixture: every hash-iteration shape clippy denies. Checked with clippy
// by tests/fixtures.rs; the fixtures directory is never built. The hash
// containers are banned types too, so each line naming one also fires.
use std::collections::{BTreeMap, HashMap, HashSet};

struct Tables {
    by_id: HashMap<u32, u64>,
    seen: HashSet<u32>,
    per_node: Vec<HashMap<usize, Vec<u16>>>,
}

fn iterates(t: &Tables) -> usize {
    let mut n = 0;
    for k in t.by_id.keys() {
        // violation: keys()
        n += *k as usize;
    }
    for v in &t.seen {
        // violation: for-loop over a HashSet
        n += *v as usize;
    }
    n += t.per_node[0].iter().filter(|(k, v)| **k < v.len()).count(); // violation: indexed receiver
    n
}

fn lookups_are_fine(t: &Tables) -> bool {
    // No iteration: point lookups don't depend on iteration order.
    t.by_id.contains_key(&7) && t.seen.contains(&7) && t.per_node[0].contains_key(&7)
}

fn ordered_is_fine(m: &BTreeMap<u32, u64>) -> u64 {
    m.values().sum() // no violation: BTreeMap iteration is ordered
}
