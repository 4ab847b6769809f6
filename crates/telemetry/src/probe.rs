//! The observer trait and its zero-cost default.
//!
//! Engines take a probe *generically* and call [`Probe::enabled`] before any
//! event construction. [`NoProbe`] — the default — inlines `enabled()` to
//! `false`, so the unprobed engine monomorphizes to exactly the
//! pre-telemetry machine code: no event is built, no branch survives, and
//! the run stays bit-identical to a build without this crate (pinned by
//! `tests/telemetry_parity.rs`).

use crate::event::Event;

/// An observer of deterministic simulation events.
///
/// Implementations must be cheap: probes sit on engine hot paths and receive
/// one [`Event::TickCommitted`] per tick. They must also never feed
/// wall-clock data back into the simulation — a probe is a pure consumer.
pub trait Probe {
    /// Receives one event.
    fn on_event(&mut self, event: Event);

    /// Whether this probe actually consumes events.
    ///
    /// Engines skip event construction entirely when this returns `false`.
    /// The default is `true`; only no-op probes should override it.
    fn enabled(&self) -> bool {
        true
    }
}

/// Forwarding impl so `&mut dyn Probe` (and `&mut ConcreteProbe`) can be
/// passed wherever a sized `impl Probe` is expected.
impl<P: Probe + ?Sized> Probe for &mut P {
    fn on_event(&mut self, event: Event) {
        (**self).on_event(event);
    }

    fn enabled(&self) -> bool {
        (**self).enabled()
    }
}

/// An optional probe: `None` is disabled and observes nothing, so code that
/// carries `Option<&mut dyn Probe>` can hand it to code generic over
/// [`Probe`] as is.
impl<P: Probe> Probe for Option<P> {
    fn on_event(&mut self, event: Event) {
        if let Some(probe) = self {
            probe.on_event(event);
        }
    }

    fn enabled(&self) -> bool {
        self.as_ref().is_some_and(Probe::enabled)
    }
}

/// The zero-sized "no telemetry" probe.
///
/// `enabled()` is a compile-time `false`, so engines monomorphized over
/// `NoProbe` contain no telemetry code at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn on_event(&mut self, _event: Event) {}

    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
}

/// An in-memory event recorder.
///
/// Rayon-parallel trials each record into their own buffer; the runner then
/// replays the buffers into the single output sink in trial-index order, so
/// the merged stream is byte-identical no matter how many threads ran the
/// trials.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventBuffer {
    events: Vec<Event>,
}

impl EventBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        EventBuffer::default()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Replays every recorded event into `probe`, in order.
    pub fn replay(&self, probe: &mut dyn Probe) {
        for event in &self.events {
            probe.on_event(event.clone());
        }
    }

    /// Consumes the buffer, returning the recorded events.
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }
}

impl Probe for EventBuffer {
    fn on_event(&mut self, event: Event) {
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_probe_is_disabled_and_zero_sized() {
        assert!(!NoProbe.enabled());
        assert_eq!(std::mem::size_of::<NoProbe>(), 0);
    }

    #[test]
    fn buffer_records_and_replays_in_order() {
        let mut buffer = EventBuffer::new();
        buffer.on_event(Event::TickCommitted {
            tick: 1,
            node: 0,
            transmissions: 2,
        });
        buffer.on_event(Event::ActivationDead { tick: 2, node: 3 });
        assert!(buffer.enabled());
        assert_eq!(buffer.len(), 2);

        let mut copy = EventBuffer::new();
        buffer.replay(&mut copy);
        assert_eq!(buffer, copy);
    }

    #[test]
    fn mut_references_forward() {
        let mut buffer = EventBuffer::new();
        {
            let mut as_dyn: &mut dyn Probe = &mut buffer;
            let reborrow = &mut as_dyn;
            assert!(reborrow.enabled());
            reborrow.on_event(Event::ActivationDead { tick: 1, node: 0 });
        }
        assert_eq!(buffer.len(), 1);
    }
}
