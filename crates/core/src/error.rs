//! Typed protocol errors.
//!
//! Everything a peer can influence — round messages, label vectors,
//! requested round ids, streamed frames — reports malformed input through
//! [`AcceleratorError`] instead of panicking, so a hostile or buggy client
//! cannot abort the server process.

/// Protocol-path failure of the accelerator server or scheduled evaluator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AcceleratorError {
    /// OT pairs were requested for a round the current element never
    /// garbled.
    UnknownRound {
        /// The requested round.
        round: u32,
    },
    /// A round message carried neither fresh initial-accumulator labels
    /// nor followed a round that left carried labels.
    MissingAccumulator {
        /// The offending round.
        round: u32,
    },
    /// Garbler-input label count does not match the netlist.
    ALabelCount {
        /// Labels required (`b` + constants).
        expected: usize,
        /// Labels supplied.
        got: usize,
    },
    /// Evaluator-input label count does not match the bit-width.
    XLabelCount {
        /// Labels required (`b`).
        expected: usize,
        /// Labels supplied.
        got: usize,
    },
    /// Initial-accumulator label count does not match the accumulator
    /// width.
    AccLabelCount {
        /// Labels required (accumulator width).
        expected: usize,
        /// Labels supplied.
        got: usize,
    },
    /// Garbled-table count does not match the netlist's AND gates.
    TableCount {
        /// Tables required (one per AND gate).
        expected: usize,
        /// Tables supplied.
        got: usize,
    },
    /// Decode-bit count does not match the output width.
    DecodeCount {
        /// Bits required (one per output wire).
        expected: usize,
        /// Bits supplied.
        got: usize,
    },
    /// The streaming peer disconnected mid-protocol.
    Disconnected,
    /// The transport layer failed (oversized frame, timeout, socket error),
    /// or a frame's counted vectors did not fit its bytes.
    Transport(max_gc::channel::TransportError),
    /// The peer sent a frame that does not fit the protocol state machine.
    Protocol {
        /// What was wrong or expected.
        what: &'static str,
    },
    /// The server's job queue is full; retry after the hinted backoff.
    Busy {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u32,
    },
    /// The server refused the session during the handshake.
    Rejected {
        /// Why (version mismatch, unsupported width, draining, ...).
        reason: &'static str,
    },
    /// The rolling transcript digests of the two sides diverged — some
    /// GC-critical byte was corrupted after framing (bit rot, a buggy
    /// middlebox, a stale cache entry). The job must be restarted; the
    /// session's OT state can no longer be trusted past the last verified
    /// boundary.
    Integrity {
        /// Which digest comparison failed.
        what: &'static str,
    },
    /// A resilient client exhausted its retry budget; `last` is the error
    /// that ended the final attempt.
    RetriesExhausted {
        /// Attempts made (initial try plus retries).
        attempts: u32,
        /// The terminal failure.
        last: Box<AcceleratorError>,
    },
}

impl std::fmt::Display for AcceleratorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AcceleratorError::UnknownRound { round } => {
                write!(f, "no OT pairs buffered for round {round}")
            }
            AcceleratorError::MissingAccumulator { round } => {
                write!(f, "round {round} lacks accumulator labels")
            }
            AcceleratorError::ALabelCount { expected, got } => {
                write!(f, "a-label count mismatch: expected {expected}, got {got}")
            }
            AcceleratorError::XLabelCount { expected, got } => {
                write!(f, "x-label count mismatch: expected {expected}, got {got}")
            }
            AcceleratorError::AccLabelCount { expected, got } => {
                write!(
                    f,
                    "accumulator label count mismatch: expected {expected}, got {got}"
                )
            }
            AcceleratorError::TableCount { expected, got } => {
                write!(f, "table count mismatch: expected {expected}, got {got}")
            }
            AcceleratorError::DecodeCount { expected, got } => {
                write!(
                    f,
                    "decode bit count mismatch: expected {expected}, got {got}"
                )
            }
            AcceleratorError::Disconnected => f.write_str("streaming peer disconnected"),
            AcceleratorError::Transport(err) => write!(f, "transport failure: {err}"),
            AcceleratorError::Protocol { what } => write!(f, "protocol violation: {what}"),
            AcceleratorError::Busy { retry_after_ms } => {
                write!(f, "server busy, retry after {retry_after_ms} ms")
            }
            AcceleratorError::Rejected { reason } => {
                write!(f, "session rejected: {reason}")
            }
            AcceleratorError::Integrity { what } => {
                write!(f, "transcript integrity violation: {what}")
            }
            AcceleratorError::RetriesExhausted { attempts, last } => {
                write!(
                    f,
                    "retry budget exhausted after {attempts} attempts: {last}"
                )
            }
        }
    }
}

impl std::error::Error for AcceleratorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AcceleratorError::Transport(err) => Some(err),
            AcceleratorError::RetriesExhausted { last, .. } => Some(last),
            _ => None,
        }
    }
}

impl From<max_gc::channel::ReadError> for AcceleratorError {
    fn from(err: max_gc::channel::ReadError) -> Self {
        AcceleratorError::Protocol { what: err.what() }
    }
}

impl From<max_gc::channel::TransportError> for AcceleratorError {
    fn from(err: max_gc::channel::TransportError) -> Self {
        match err {
            // Disconnection already has a first-class protocol meaning here;
            // keep it as one variant regardless of which transport saw it.
            max_gc::channel::TransportError::Disconnected => AcceleratorError::Disconnected,
            other => AcceleratorError::Transport(other),
        }
    }
}
