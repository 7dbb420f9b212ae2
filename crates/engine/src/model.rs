//! The simulation-model trait and the event emitter handed to handlers.

use crate::event::{make_tag, EventRecord, LpId};
use crate::time::SimTime;

/// A discrete-event simulation model.
///
/// The engine calls [`Model::handle`] for each event in deterministic
/// `(time, tag)` order per LP. **Handlers must only read and write state
/// belonging to the target LP** (plus shared immutable data); this is the
/// contract that makes parallel window execution equivalent to sequential
/// execution. Cross-LP effects must travel as events.
pub trait Model: Send {
    /// The event payload type.
    type Event: Send + 'static;

    /// Handle `event` arriving at `target` at virtual time `now`,
    /// scheduling follow-up events through `out`.
    fn handle(
        &mut self,
        target: LpId,
        now: SimTime,
        event: Self::Event,
        out: &mut Emitter<'_, Self::Event>,
    );
}

/// Collects events emitted by a handler, assigning deterministic tags.
pub struct Emitter<'a, M> {
    now: SimTime,
    source: u32,
    counter: &'a mut u32,
    buffer: &'a mut Vec<EventRecord<M>>,
}

impl<'a, M> Emitter<'a, M> {
    pub(crate) fn new(
        now: SimTime,
        source: u32,
        counter: &'a mut u32,
        buffer: &'a mut Vec<EventRecord<M>>,
    ) -> Self {
        Emitter {
            now,
            source,
            counter,
            buffer,
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `payload` for `target` after `delay` (may be zero for
    /// same-LP immediate self-scheduling; cross-partition events need
    /// `delay ≥` the synchronization window, which the executors check).
    #[expect(
        clippy::expect_used,
        reason = "2^64 events from one LP, or a time past u64 nanoseconds, is beyond any run this engine can finish"
    )]
    pub fn emit(&mut self, delay: SimTime, target: LpId, payload: M) {
        let tag = make_tag(self.source, *self.counter);
        *self.counter = self
            .counter
            .checked_add(1)
            .expect("per-LP emission counter overflow");
        self.buffer.push(EventRecord {
            time: self
                .now
                .checked_add(delay)
                .expect("event time overflows SimTime"),
            target,
            tag,
            payload,
        });
    }
}

/// Tag and collect a batch of externally injected initial events.
/// They share the reserved external source id and are ordered by their
/// position in `events`.
pub fn seed_events<M>(events: Vec<(SimTime, LpId, M)>) -> Vec<EventRecord<M>> {
    events
        .into_iter()
        .enumerate()
        .map(|(i, (time, target, payload))| EventRecord {
            time,
            target,
            #[expect(
                clippy::cast_possible_truncation,
                reason = "sequence index; 2^32 initial events is far past any supported scale"
            )]
            tag: make_tag(crate::event::EXTERNAL_SOURCE, i as u32),
            payload,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitter_assigns_monotone_tags_and_times() {
        let mut counter = 5u32;
        let mut buf = Vec::new();
        {
            let mut em = Emitter::new(SimTime::from_ms(2), 9, &mut counter, &mut buf);
            em.emit(SimTime::from_ms(1), LpId(3), "a");
            em.emit(SimTime::ZERO, LpId(4), "b");
        }
        assert_eq!(counter, 7);
        assert_eq!(buf[0].time, SimTime::from_ms(3));
        assert_eq!(buf[1].time, SimTime::from_ms(2));
        assert!(buf[0].tag < buf[1].tag);
        assert_eq!(buf[0].tag >> 32, 9);
    }

    /// A release build has no overflow checks: `now + delay` used to wrap
    /// and schedule the event in the past.
    #[test]
    #[should_panic(expected = "event time overflows SimTime")]
    fn emit_past_the_end_of_time_panics_instead_of_wrapping() {
        let mut counter = 0u32;
        let mut buf = Vec::new();
        let mut em = Emitter::new(SimTime::from_secs(1), 0, &mut counter, &mut buf);
        em.emit(SimTime::MAX, LpId(0), ());
    }

    #[test]
    fn seed_events_ordered_by_injection() {
        let seeded = seed_events(vec![
            (SimTime::from_ms(1), LpId(0), 1u8),
            (SimTime::from_ms(1), LpId(1), 2u8),
        ]);
        assert!(seeded[0].tag < seeded[1].tag);
        assert_eq!(seeded[0].tag >> 32, u32::MAX as u64);
    }
}
