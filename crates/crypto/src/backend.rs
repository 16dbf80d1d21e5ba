//! Runtime AES backend selection.
//!
//! [`Aes128`](crate::Aes128) has three interchangeable block-encryption
//! arms:
//!
//! * **VAES** — AVX-512 vector AES (`VAESENC` on 512-bit registers), four
//!   blocks per instruction and 32 in flight, used when the CPU advertises
//!   `vaes`, `avx512f` and `avx512bw` at runtime.
//! * **AES-NI** — the 128-bit `AESENC`/`AESENCLAST` instructions, eight
//!   blocks in flight, used when the CPU has `aes` and `ssse3` but no VAES.
//!   It also runs every single-block call and the multi-key PRG sweep on a
//!   VAES host.
//! * **Software** — the portable const-derived S-box core, pipelining eight
//!   blocks in lockstep through each round so the compiler can interleave
//!   the per-block work. It is the fallback and the test oracle.
//!
//! All three produce bit-identical ciphertexts (FIPS-197), so the choice is
//! pure throughput; the parity tests in `aes.rs` call each arm the CPU has
//! directly and pin it against the software core.
//!
//! The same choice picks the arm of the half-gates level kernels
//! ([`GatePlan::garble`](crate::GatePlan::garble) and
//! [`GatePlan::evaluate`](crate::GatePlan::evaluate)): on **VAES** and
//! **AES-NI** one gate per SSE register, and on **software** the scalar
//! masking pass, AES sweep and combine that the vector arm is pinned
//! against.
//!
//! Selection order:
//!
//! 1. The `MAX_AES_BACKEND` environment variable (read once per process)
//!    overrides detection: `software` forces the portable core and `aesni`
//!    forces the 128-bit arm even on a VAES host (it falls back to software
//!    on a CPU without AES-NI). CI runs the crypto, gc, ot and accelerator
//!    suites under both values to keep the arms that detection would skip
//!    covered.
//! 2. Otherwise runtime detection picks the widest arm the CPU has.

use std::sync::OnceLock;

/// Which block-encryption implementation [`crate::Aes128`] dispatches to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AesBackend {
    /// AVX-512 vector AES: four blocks per instruction, 32 in flight.
    Vaes,
    /// The 128-bit AES round instructions via `std::arch`.
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
            AesBackend::Vaes => "vaes",
            AesBackend::AesNi => "aesni",
            AesBackend::Software => "software",
        }
    }

    /// Whether this process can run the AES-NI arm at all (regardless of
    /// overrides). Drives the SIMD/software parity tests.
    pub fn aesni_available() -> bool {
        aesni_supported()
    }

    /// Whether this process can run the VAES arm at all (regardless of
    /// overrides). Drives the SIMD/software parity tests.
    pub fn vaes_available() -> bool {
        vaes_supported()
    }
}

#[cfg(target_arch = "x86_64")]
fn aesni_supported() -> bool {
    std::arch::is_x86_feature_detected!("aes") && std::arch::is_x86_feature_detected!("ssse3")
}

#[cfg(not(target_arch = "x86_64"))]
fn aesni_supported() -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
fn vaes_supported() -> bool {
    aesni_supported()
        && std::arch::is_x86_feature_detected!("vaes")
        && std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512bw")
}

#[cfg(not(target_arch = "x86_64"))]
fn vaes_supported() -> bool {
    false
}

fn detect() -> AesBackend {
    let forced = std::env::var("MAX_AES_BACKEND");
    match forced.as_deref() {
        Ok("software") => AesBackend::Software,
        Ok("aesni") if aesni_supported() => AesBackend::AesNi,
        Ok("aesni") => AesBackend::Software,
        _ if vaes_supported() => AesBackend::Vaes,
        _ if aesni_supported() => AesBackend::AesNi,
        _ => AesBackend::Software,
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
        assert_ne!(AesBackend::Vaes.label(), AesBackend::AesNi.label());
        assert_ne!(AesBackend::Vaes.label(), AesBackend::Software.label());
    }

    #[test]
    fn active_never_claims_missing_hardware() {
        if !AesBackend::aesni_available() {
            assert_eq!(AesBackend::active(), AesBackend::Software);
        }
        if !AesBackend::vaes_available() {
            assert_ne!(AesBackend::active(), AesBackend::Vaes);
        }
    }
}
