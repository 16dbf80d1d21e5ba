//! The flight recorder: a fixed-capacity ring buffer of structured events
//! (frame sends/receives, injected faults, checkpoint boundaries, deadline
//! reaps) that `max-serve` attaches to every session.
//!
//! When a session ends in an error the service dumps the last N events as
//! JSON tagged with the session's trace id, so a chaos failure reads as a
//! narrative ("three frames, then `fault.cut`, then `session.error`")
//! instead of a fault seed to replay.
//!
//! The buffer is bounded and overwrite-oldest: logging is a short
//! mutex-guarded push/pop (the mutex is poison-recovering like
//! [`Recorder`](crate::Recorder)'s), so a wedged or panicking session can
//! neither grow memory without bound nor corrupt the recorder.

use crate::report::JsonValue;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// One structured event in a [`FlightRecorder`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Nanoseconds since the recorder was created.
    pub at_ns: u64,
    /// Event kind, a stable dotted name: `frame.send`, `frame.recv`,
    /// `fault.cut`, `checkpoint.saved`, `deadline.reap`, `session.error`,
    /// …
    pub kind: &'static str,
    /// Freeform detail (frame kind, fault direction, error text). Rendered
    /// through the escaping JSON writer, so hostile bytes are safe here.
    pub detail: String,
    /// Numeric payload (frame size in bytes, elements done, delay ms, …).
    pub value: u64,
}

struct Ring {
    events: VecDeque<FlightEvent>,
    dropped: u64,
}

/// Fixed-capacity ring buffer of [`FlightEvent`]s.
pub struct FlightRecorder {
    epoch: Instant,
    capacity: usize,
    ring: Mutex<Ring>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl FlightRecorder {
    /// Creates a recorder keeping the most recent `capacity` events
    /// (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            epoch: Instant::now(),
            capacity,
            ring: Mutex::new(Ring {
                events: VecDeque::with_capacity(capacity),
                dropped: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Nanoseconds since this recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Appends one event, evicting the oldest when full.
    pub fn log(&self, kind: &'static str, detail: impl Into<String>, value: u64) {
        let event = FlightEvent {
            at_ns: self.now_ns(),
            kind,
            detail: detail.into(),
            value,
        };
        let mut ring = self.lock();
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.lock().events.iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// True when nothing has been logged (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.lock().events.is_empty()
    }

    /// Events evicted so far to make room.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Maximum events retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Renders the retained events as a JSON object tagged with
    /// `trace_id` (32 hex digits), suitable for an error-session dump.
    pub fn dump_json(&self, trace_id: u128) -> JsonValue {
        let ring = self.lock();
        let mut events = JsonValue::Array(Vec::new());
        if let JsonValue::Array(items) = &mut events {
            for e in &ring.events {
                let mut obj = JsonValue::object();
                obj.push("at_ns", JsonValue::UInt(e.at_ns))
                    .push("kind", JsonValue::Str(e.kind.to_string()))
                    .push("detail", JsonValue::Str(e.detail.clone()))
                    .push("value", JsonValue::UInt(e.value));
                items.push(obj);
            }
        }
        let mut dump = JsonValue::object();
        dump.push("schema", JsonValue::Str("maxelerator-flight-v1".into()))
            .push("trace_id", JsonValue::Str(format!("{trace_id:032x}")))
            .push("capacity", JsonValue::UInt(self.capacity as u64))
            .push("dropped", JsonValue::UInt(ring.dropped))
            .push("events", events);
        dump
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_only_the_most_recent() {
        let fr = FlightRecorder::new(3);
        for i in 0..5u64 {
            fr.log("frame.send", format!("raw#{i}"), i);
        }
        let events = fr.events();
        assert_eq!(events.len(), 3);
        assert_eq!(fr.dropped(), 2);
        assert_eq!(events[0].value, 2);
        assert_eq!(events[2].value, 4);
        assert!(events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let fr = FlightRecorder::new(0);
        fr.log("a", "", 1);
        fr.log("b", "", 2);
        assert_eq!(fr.capacity(), 1);
        assert_eq!(fr.len(), 1);
        assert_eq!(fr.events()[0].kind, "b");
    }

    #[test]
    fn dump_names_the_trace_and_final_events() {
        let fr = FlightRecorder::new(8);
        fr.log("frame.recv", "blocks", 96);
        fr.log("fault.cut", "send", 7);
        fr.log("session.error", "disconnected", 0);
        let json = fr.dump_json(0xDEAD_BEEF).render();
        assert!(json.contains("\"maxelerator-flight-v1\""));
        assert!(json.contains("\"000000000000000000000000deadbeef\""));
        assert!(json.contains("\"fault.cut\""));
        assert!(json.contains("\"session.error\""));
        assert!(json.contains("\"dropped\":0"));
    }

    #[test]
    fn hostile_detail_strings_render_as_valid_json() {
        let fr = FlightRecorder::new(4);
        fr.log("session.error", "quote\" slash\\ ctrl\u{1}\n", 0);
        let json = fr.dump_json(1).render();
        assert!(json.contains("quote\\\" slash\\\\ ctrl\\u0001\\n"));
    }

    #[test]
    fn is_empty_reflects_logging() {
        let fr = FlightRecorder::new(2);
        assert!(fr.is_empty());
        fr.log("x", "", 0);
        assert!(!fr.is_empty());
    }
}
