//! Resumable execution: the pending-event frontier captured at a
//! virtual-time boundary, re-feedable into either executor.
//!
//! A [`ResumeState`] is everything the *engine* needs to continue a run
//! as if it had never stopped: the pending events (each still carrying
//! its original `(time, tag)` ordering key) and the per-LP emission
//! counters that keep future tags unique. Because tags are assigned
//! from per-LP counters and queues pop in `(time, tag)` order, feeding a
//! drained frontier back in reproduces the exact event order of a
//! straight-through run — at any thread count. Model state travels
//! separately (the snapshot layer serializes it); the engine only owns
//! the queue.
//!
//! States may cross process boundaries (that is the point), so
//! [`ResumeState::validate`] treats its input as hostile: resumable
//! executors reject malformed frontiers with structured errors instead
//! of panicking or silently diverging.

use crate::event::{split_tag, EventRecord, EXTERNAL_SOURCE};
use crate::time::SimTime;
use massf_topology::MassfError;

/// The engine-side continuation point of a paused run.
#[derive(Debug, Clone)]
pub struct ResumeState<M> {
    /// Pending events, strictly sorted by `(time, tag)`.
    pub events: Vec<EventRecord<M>>,
    /// Per-LP emission counters at the boundary (next tag counter each
    /// LP will assign).
    pub counters: Vec<u32>,
}

impl<M> ResumeState<M> {
    /// The state of a run that has not started: no pending events, all
    /// counters zero.
    pub fn fresh(lp_count: usize) -> Self {
        ResumeState {
            events: Vec::new(),
            counters: vec![0; lp_count],
        }
    }

    /// Earliest pending event time, if any. Because `events` is sorted
    /// by `(time, tag)`, this is `O(1)`; drivers use it to skip engine
    /// invocations entirely across empty stretches of virtual time
    /// (e.g. rebalance epochs in which nothing is scheduled).
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.events.first().map(|ev| ev.time)
    }

    /// Structural validation against `lp_count`. Rejects anything a
    /// corrupted or handcrafted snapshot could smuggle past the type
    /// system: counter-vector length mismatch, events targeting unknown
    /// LPs, an unsorted or duplicated `(time, tag)` order (queue
    /// tie-breaking on duplicate keys is unspecified, so duplicates
    /// would break bit-identity), and tags claiming a source counter
    /// the source LP has not issued yet (which could collide with a
    /// future emission).
    pub fn validate(&self, lp_count: usize) -> Result<(), MassfError> {
        if self.counters.len() != lp_count {
            return Err(MassfError::InvalidConfig(format!(
                "resume state carries {} LP counters for {} LPs",
                self.counters.len(),
                lp_count
            )));
        }
        let mut prev: Option<(SimTime, u64)> = None;
        for ev in &self.events {
            if ev.target.index() >= lp_count {
                return Err(MassfError::InvalidConfig(format!(
                    "resume event targets unknown LP {}",
                    ev.target.0
                )));
            }
            let key = (ev.time, ev.tag);
            if prev.is_some_and(|p| key <= p) {
                return Err(MassfError::InvalidConfig(format!(
                    "resume events not strictly sorted by (time, tag) at tag {:#x}",
                    ev.tag
                )));
            }
            prev = Some(key);
            let (source, counter) = split_tag(ev.tag);
            if source != EXTERNAL_SOURCE {
                let issued = self.counters.get(source as usize).copied().ok_or_else(|| {
                    MassfError::InvalidConfig(format!(
                        "resume event tag names unknown source LP {source}"
                    ))
                })?;
                if counter >= issued {
                    return Err(MassfError::InvalidConfig(format!(
                        "resume event counter {counter} not below source LP {source}'s \
                         issued counter {issued}"
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{external_tag, LpId};

    fn rec(t: u64, tag: u64, target: u32) -> EventRecord<u8> {
        EventRecord {
            time: SimTime::from_ns(t),
            target: LpId(target),
            tag,
            payload: 0,
        }
    }

    #[test]
    fn fresh_state_is_valid() {
        assert_eq!(ResumeState::<u8>::fresh(3).validate(3), Ok(()));
    }

    #[test]
    fn next_event_time_reads_the_sorted_head() {
        let mut s = ResumeState::<u8>::fresh(2);
        assert_eq!(s.next_event_time(), None);
        s.events = vec![rec(5, external_tag(0), 0), rec(9, external_tag(1), 1)];
        assert_eq!(s.next_event_time(), Some(SimTime::from_ns(5)));
    }

    #[test]
    fn counter_length_mismatch_rejected() {
        let s = ResumeState::<u8>::fresh(3);
        assert!(matches!(s.validate(4), Err(MassfError::InvalidConfig(_))));
    }

    #[test]
    fn unknown_target_rejected() {
        let mut s = ResumeState::fresh(2);
        s.events.push(rec(1, external_tag(0), 7));
        assert!(s.validate(2).is_err());
    }

    #[test]
    fn unsorted_and_duplicate_keys_rejected() {
        let mut s = ResumeState::fresh(2);
        s.events = vec![rec(5, external_tag(1), 0), rec(1, external_tag(0), 1)];
        assert!(s.validate(2).is_err());
        s.events = vec![rec(5, external_tag(1), 0), rec(5, external_tag(1), 1)];
        assert!(s.validate(2).is_err());
    }

    #[test]
    fn tag_counter_must_be_issued() {
        let mut s = ResumeState::fresh(2);
        // Source LP 1 claims counter 3 but has only issued 2 tags.
        s.counters = vec![0, 2];
        s.events = vec![rec(9, (1u64 << 32) | 3, 0)];
        assert!(s.validate(2).is_err());
        s.counters = vec![0, 4];
        assert_eq!(s.validate(2), Ok(()));
        // External tags are exempt from counter accounting.
        s.events = vec![rec(9, external_tag(1_000_000), 0)];
        assert_eq!(s.validate(2), Ok(()));
    }
}
