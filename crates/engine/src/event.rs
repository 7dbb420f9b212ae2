//! Events and their deterministic total order.

use crate::time::SimTime;
use std::cmp::Ordering;

/// Identifier of a logical process (LP). In the network simulation every
/// router and host is one LP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LpId(pub u32);

impl LpId {
    /// Index into per-LP arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Source LP id used for events injected from outside the simulation
/// (initial events); participates in tag construction only. Public so
/// resume/branch layers can keep tagging externally injected suffix
/// events in the same tag space.
pub const EXTERNAL_SOURCE: u32 = u32::MAX;

/// Build the deterministic tie-break tag from `(source LP, counter)`.
#[inline]
pub(crate) fn make_tag(source: u32, counter: u32) -> u64 {
    ((source as u64) << 32) | counter as u64
}

/// The tie-break tag of the `position`-th externally injected event
/// (what [`crate::model::seed_events`] assigns in injection order).
#[inline]
pub fn external_tag(position: u32) -> u64 {
    make_tag(EXTERNAL_SOURCE, position)
}

/// The `(source LP, per-source counter)` halves of a tag.
#[inline]
pub(crate) fn split_tag(tag: u64) -> (u32, u32) {
    ((tag >> 32) as u32, (tag & 0xFFFF_FFFF) as u32)
}

/// A scheduled event.
///
/// `tag` is unique per run and identical between sequential and parallel
/// execution, so `(time, tag)` is a deterministic total order on events.
#[derive(Debug, Clone)]
pub struct EventRecord<M> {
    pub time: SimTime,
    pub target: LpId,
    pub tag: u64,
    pub payload: M,
}

impl<M> PartialEq for EventRecord<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.tag == other.tag
    }
}
impl<M> Eq for EventRecord<M> {}

impl<M> PartialOrd for EventRecord<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for EventRecord<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .cmp(&other.time)
            .then_with(|| self.tag.cmp(&other.tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, tag: u64) -> EventRecord<()> {
        EventRecord {
            time: SimTime::from_ns(t),
            target: LpId(0),
            tag,
            payload: (),
        }
    }

    #[test]
    fn order_is_time_then_tag() {
        assert!(ev(1, 9) < ev(2, 0));
        assert!(ev(1, 1) < ev(1, 2));
        assert_eq!(ev(1, 1), ev(1, 1));
    }

    #[test]
    fn heap_pops_in_order() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut heap = BinaryHeap::new();
        for (t, g) in [(5u64, 0u64), (1, 2), (1, 1), (3, 0)] {
            heap.push(Reverse(ev(t, g)));
        }
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| heap.pop())
            .map(|Reverse(e)| (e.time.as_ns(), e.tag))
            .collect();
        assert_eq!(order, vec![(1, 1), (1, 2), (3, 0), (5, 0)]);
    }

    #[test]
    fn tags_pack_source_and_counter() {
        let t = make_tag(7, 3);
        assert_eq!(t >> 32, 7);
        assert_eq!(t & 0xFFFF_FFFF, 3);
        assert!(make_tag(1, u32::MAX) < make_tag(2, 0));
    }
}
