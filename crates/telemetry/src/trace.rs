//! Distributed-trace identity: a [`TraceContext`] is minted by the client
//! from OS entropy (the same provenance as `max-serve` resume tokens),
//! carried over the wire in the protocol-v4 HELLO/RESUME frames, and echoed
//! back in STATS — so client-side spans (dial, backoff, RESUME) and
//! server-side spans (queue wait, garble, checkpoint deposits) recorded
//! into two *different* [`Recorder`](crate::Recorder)s can be stitched into
//! one per-job timeline by matching `trace_id`.
//!
//! The ids are correlation handles, not secrets: they are sent in the
//! clear, and nothing in the protocol derives key material from them. They
//! must however be unguessable enough not to collide across concurrent
//! clients, hence entropy rather than a counter, and never the invertible
//! `derive_seed` chain.

use std::io::Read;

/// Identity of one distributed trace: a 128-bit trace id shared by every
/// span in the trace, plus a 64-bit id for the minting span.
///
/// `TraceContext::none()` (all zeros) means "untraced": deterministic
/// transcript-parity tests use it so HELLO frames stay bit-comparable
/// across runs. [`TraceContext::mint`] draws both ids from OS entropy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// 128-bit trace id; 0 means untraced.
    pub trace_id: u128,
    /// Span id of the minting (client root) span.
    pub span_id: u64,
}

impl TraceContext {
    /// The untraced context (all zeros); what deterministic tests put on
    /// the wire.
    pub const fn none() -> Self {
        TraceContext {
            trace_id: 0,
            span_id: 0,
        }
    }

    /// Builds a context from explicit ids (tests, wire decoding).
    pub const fn from_ids(trace_id: u128, span_id: u64) -> Self {
        TraceContext { trace_id, span_id }
    }

    /// Mints a fresh context from [`os_entropy`]. The trace id is never
    /// zero.
    pub fn mint() -> Self {
        let mut buf = [0u8; 24];
        os_entropy(&mut buf);
        let mut trace = [0u8; 16];
        trace.copy_from_slice(&buf[..16]);
        let mut span = [0u8; 8];
        span.copy_from_slice(&buf[16..]);
        TraceContext {
            trace_id: u128::from_le_bytes(trace).max(1),
            span_id: u64::from_le_bytes(span),
        }
    }

    /// True when this context carries a real trace id.
    pub const fn is_traced(&self) -> bool {
        self.trace_id != 0
    }

    /// The trace id as the canonical 32-hex-digit string used in reports
    /// and flight-recorder dumps.
    pub fn trace_hex(&self) -> String {
        format!("{:032x}", self.trace_id)
    }
}

/// Fills `buf` from OS entropy — the workspace's one reader of
/// `/dev/urandom`, behind trace ids here and `max-serve`'s resume tokens.
/// Where the device is unavailable it falls back to `RandomState`, whose
/// SipHash keys are themselves seeded from OS entropy and whose raw output
/// never appears on a wire.
pub fn os_entropy(buf: &mut [u8]) {
    let filled = std::fs::File::open("/dev/urandom")
        .and_then(|mut f| f.read_exact(buf))
        .is_ok();
    if !filled {
        for (i, chunk) in buf.chunks_mut(8).enumerate() {
            chunk.copy_from_slice(&hash_entropy(i as u64).to_le_bytes()[..chunk.len()]);
        }
    }
}

/// Hashes `tweak` through `RandomState`'s per-process random SipHash keys;
/// the entropy fallback when `/dev/urandom` is unavailable.
fn hash_entropy(tweak: u64) -> u64 {
    use std::hash::{BuildHasher, Hasher};
    let mut hasher = std::collections::hash_map::RandomState::new().build_hasher();
    hasher.write_u64(0x7ace_c0de ^ tweak);
    hasher.finish()
}

/// One completed span of a distributed trace, as stored in a
/// [`Snapshot`](crate::Snapshot).
///
/// Timestamps are nanoseconds in the *recording* `Recorder`'s timebase;
/// client and server recorders have different epochs, so stitching aligns
/// on shared wire events (HELLO send vs HELLO receive) rather than
/// comparing raw clocks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Trace this event belongs to.
    pub trace_id: u128,
    /// Span id of the trace root (propagated, not per-event).
    pub span_id: u64,
    /// Event name, conventionally `side/what`, e.g. `client/redial` or
    /// `server/queue_wait`.
    pub name: String,
    /// Start, ns since the recording recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recording recorder's epoch (>= start).
    pub end_ns: u64,
}

impl TraceEvent {
    /// Duration of this span in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_untraced_and_mint_is_traced() {
        assert!(!TraceContext::none().is_traced());
        let minted = TraceContext::mint();
        assert!(minted.is_traced());
        assert_ne!(minted.trace_id, 0);
    }

    #[test]
    fn minted_contexts_are_distinct() {
        let a = TraceContext::mint();
        let b = TraceContext::mint();
        // 128 bits of entropy: a collision here means the source is broken.
        assert_ne!(a.trace_id, b.trace_id);
    }

    #[test]
    fn trace_hex_is_fixed_width() {
        let ctx = TraceContext::from_ids(0xABC, 7);
        assert_eq!(ctx.trace_hex().len(), 32);
        assert!(ctx.trace_hex().ends_with("abc"));
    }

    #[test]
    fn fallback_entropy_is_nonconstant() {
        // Different tweaks through the SipHash fallback must not collapse
        // to one value (RandomState keys are per-process random).
        assert_ne!(hash_entropy(1), hash_entropy(2));
    }

    #[test]
    fn duration_saturates() {
        let e = TraceEvent {
            trace_id: 1,
            span_id: 1,
            name: "x".into(),
            start_ns: 10,
            end_ns: 4,
        };
        assert_eq!(e.duration_ns(), 0);
    }
}
