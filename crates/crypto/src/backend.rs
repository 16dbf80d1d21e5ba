//! Runtime AES backend selection.
//!
//! [`Aes128`](crate::Aes128) has two interchangeable block-encryption
//! backends:
//!
//! * **AES-NI** — `std::arch::x86_64` intrinsics (`AESENC`/`AESENCLAST`),
//!   used when the CPU advertises the `aes` feature at runtime.
//! * **Software** — the portable const-derived S-box core, pipelining eight
//!   blocks in lockstep through each round so the compiler can interleave
//!   the per-block work.
//!
//! Both produce bit-identical ciphertexts (FIPS-197), so the choice is pure
//! throughput; the parity proptests in `aes.rs` pin this.
//!
//! Selection order:
//!
//! 1. The `MAX_AES_BACKEND` environment variable (`software` or `aesni`,
//!    read once per process) overrides detection; requesting `aesni` on a
//!    CPU without the extension falls back to software. CI runs every
//!    suite under `MAX_AES_BACKEND=software` to exercise the fallback on
//!    AES-NI hosts.
//! 2. Otherwise `is_x86_feature_detected!("aes")` decides.

use std::sync::OnceLock;

/// Which block-encryption implementation [`crate::Aes128`] dispatches to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AesBackend {
    /// Hardware AES round instructions via `std::arch`.
    AesNi,
    /// Portable const-derived S-box core (8-block software pipeline).
    Software,
}

impl AesBackend {
    /// The backend active for this process (cached after the first call).
    pub fn active() -> AesBackend {
        static ACTIVE: OnceLock<AesBackend> = OnceLock::new();
        *ACTIVE.get_or_init(detect)
    }

    /// Stable lowercase name for reports and logs.
    pub fn label(self) -> &'static str {
        match self {
            AesBackend::AesNi => "aesni",
            AesBackend::Software => "software",
        }
    }

    /// Whether this process can run the AES-NI path at all (regardless of
    /// overrides). Drives the SIMD/software parity tests.
    pub fn aesni_available() -> bool {
        aesni_supported()
    }
}

#[cfg(target_arch = "x86_64")]
fn aesni_supported() -> bool {
    std::arch::is_x86_feature_detected!("aes")
}

#[cfg(not(target_arch = "x86_64"))]
fn aesni_supported() -> bool {
    false
}

fn detect() -> AesBackend {
    match std::env::var("MAX_AES_BACKEND").as_deref() {
        Ok("software") => return AesBackend::Software,
        Ok("aesni") => {
            return if aesni_supported() {
                AesBackend::AesNi
            } else {
                AesBackend::Software
            };
        }
        _ => {}
    }
    if aesni_supported() {
        AesBackend::AesNi
    } else {
        AesBackend::Software
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_is_stable() {
        assert_eq!(AesBackend::active(), AesBackend::active());
    }

    #[test]
    fn labels_are_distinct() {
        assert_ne!(AesBackend::AesNi.label(), AesBackend::Software.label());
    }

    #[test]
    fn active_never_claims_missing_hardware() {
        if !AesBackend::aesni_available() {
            assert_eq!(AesBackend::active(), AesBackend::Software);
        }
    }
}
