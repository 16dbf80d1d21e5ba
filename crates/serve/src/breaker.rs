//! Load-shedding circuit breaker.
//!
//! The breaker sits in front of session admission and job admission. It
//! trips on sustained queue-full pressure (a configurable run of
//! consecutive [`QueueFull`](crate::QueueFull) rejections) or explicitly,
//! through [`GcService::trip_breaker`](crate::GcService::trip_breaker).
//! While open, new sessions get `REJECT(overload)` and job requests get
//! `BUSY` — typed, retryable rejections instead of queue pileup — until
//! the open window elapses.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Breaker tuning.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Trip after this many *consecutive* queue-full rejections
    /// (0 disables pressure-based tripping; explicit trips still work).
    pub queue_full_trip: u32,
    /// How long the breaker stays open per trip.
    pub open_for: Duration,
    /// Retry hint attached to shed responses, in milliseconds.
    pub retry_after_ms: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            queue_full_trip: 0,
            open_for: Duration::from_millis(100),
            retry_after_ms: 50,
        }
    }
}

struct BreakerState {
    consecutive_fulls: u32,
    open_until: Option<Instant>,
}

/// The breaker itself; cheap to share behind the service's `Arc`.
pub struct Breaker {
    config: BreakerConfig,
    state: Mutex<BreakerState>,
    trips: AtomicU64,
    sheds: AtomicU64,
}

impl std::fmt::Debug for Breaker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Breaker")
            .field("open", &self.is_open())
            .field("trips", &self.trips.load(Ordering::Relaxed))
            .field("sheds", &self.sheds.load(Ordering::Relaxed))
            .finish()
    }
}

impl Breaker {
    /// Builds a closed breaker.
    pub fn new(config: BreakerConfig) -> Breaker {
        Breaker {
            config,
            state: Mutex::new(BreakerState {
                consecutive_fulls: 0,
                open_until: None,
            }),
            trips: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
        }
    }

    /// The tuning this breaker runs with.
    pub fn config(&self) -> &BreakerConfig {
        &self.config
    }

    /// Whether the breaker is currently open (load is being shed).
    pub fn is_open(&self) -> bool {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.open_until.is_some_and(|until| Instant::now() < until)
    }

    /// Records one shed decision and reports whether to shed: true while
    /// open.
    pub fn should_shed(&self) -> bool {
        let open = self.is_open();
        if open {
            self.sheds.fetch_add(1, Ordering::Relaxed);
        }
        open
    }

    /// Notes a queue-full rejection; trips once the consecutive run reaches
    /// the configured threshold. Returns whether this call tripped it.
    pub fn note_queue_full(&self) -> bool {
        if self.config.queue_full_trip == 0 {
            return false;
        }
        let tripped = {
            let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.consecutive_fulls += 1;
            state.consecutive_fulls >= self.config.queue_full_trip
        };
        if tripped {
            self.trip();
        }
        tripped
    }

    /// Notes a successful admission, resetting the pressure run.
    pub fn note_ok(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .consecutive_fulls = 0;
    }

    /// Opens the breaker for the configured window (manual operation or
    /// sustained pressure).
    pub fn trip(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.open_until = Some(Instant::now() + self.config.open_for);
        state.consecutive_fulls = 0;
        drop(state);
        self.trips.fetch_add(1, Ordering::Relaxed);
    }

    /// Force-closes the breaker (operator override).
    pub fn reset(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.open_until = None;
        state.consecutive_fulls = 0;
    }

    /// Times the breaker has tripped.
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Requests shed while open.
    pub fn sheds(&self) -> u64 {
        self.sheds.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pressure_trips_after_consecutive_fulls_only() {
        let breaker = Breaker::new(BreakerConfig {
            queue_full_trip: 3,
            open_for: Duration::from_secs(60),
            retry_after_ms: 10,
        });
        assert!(!breaker.note_queue_full());
        assert!(!breaker.note_queue_full());
        breaker.note_ok(); // run broken
        assert!(!breaker.note_queue_full());
        assert!(!breaker.note_queue_full());
        assert!(!breaker.is_open());
        assert!(breaker.note_queue_full());
        assert!(breaker.is_open());
        assert!(breaker.should_shed());
        assert_eq!(breaker.trips(), 1);
        assert_eq!(breaker.sheds(), 1);
        breaker.reset();
        assert!(!breaker.is_open());
    }

    #[test]
    fn explicit_trip_expires_after_the_window() {
        let breaker = Breaker::new(BreakerConfig {
            queue_full_trip: 0,
            open_for: Duration::from_millis(20),
            retry_after_ms: 10,
        });
        assert!(!breaker.note_queue_full(), "pressure tripping disabled");
        breaker.trip();
        assert!(breaker.is_open());
        std::thread::sleep(Duration::from_millis(40));
        assert!(!breaker.is_open());
        assert!(!breaker.should_shed());
    }
}
