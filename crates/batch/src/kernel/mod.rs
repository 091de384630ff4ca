//! The decode-kernel family and its runtime dispatch.
//!
//! One compiled [`ColumnMatchProgram`](crate::BatchCodec) can be executed by
//! several interchangeable kernels, all proven bit-identical by the
//! workspace's forced-dispatch equivalence suite:
//!
//! * **walk-u64 / walk-u128 / walk-w256** — the prefix-bucket AND-tree walk,
//!   generic over the [`gf2::Limb`] width. Wider limbs process 2–4 `u64`
//!   words of the batch per reduction step; the 256-bit limb ([`wide::W256`])
//!   is a safe software-SIMD type the backend lowers to AVX2 vector
//!   instructions when available.
//! * **direct4 / direct8** — direct-dispatch kernels for codes with
//!   redundancy `r ≤ 8`, where the whole syndrome→action map fits a
//!   256-entry table. `direct4` (`r ≤ 4`) partitions the lanes into all
//!   `2^r` syndrome-equality masks by successive halving and applies each
//!   table action to its whole mask at once. `direct8` (`5 ≤ r ≤ 8`)
//!   bit-transposes the syndrome slices into per-lane syndrome *bytes*
//!   ([`gf2::syndrome_bytes`]) and walks the dirty lanes branch-free — no
//!   per-entry matching at all, which is what removes the bucket-walk
//!   overhead that made small codes slower than the old action table.
//!
//! Dispatch is automatic: direct kernels whenever the program carries a
//! direct table (see [`SyndromeClass::direct_dispatch_eligible`]
//! (ecc::SyndromeClass::direct_dispatch_eligible)), otherwise the widest
//! walk limb the batch length and the CPU justify. The `SFQ_BATCH_KERNEL`
//! environment variable (or [`BatchCodec::with_kernel`]
//! (crate::BatchCodec::with_kernel)) pins a kernel for testing; every
//! kernel runs on every machine — feature detection only affects which one
//! *auto* picks.

pub(crate) mod bitflip;
pub(crate) mod direct;
pub(crate) mod sliced;
pub(crate) mod wide;

/// A decode-kernel override: which kernel executes the column-matching
/// program. `Auto` (the default) lets dispatch choose.
///
/// Settable per codec with
/// [`BatchCodec::with_kernel`](crate::BatchCodec::with_kernel) or process-wide with the
/// `SFQ_BATCH_KERNEL` environment variable (values: `auto`, `scalar-u64`,
/// `u128`, `wide256`, `direct`), read once at codec construction. Forcing
/// `direct` on a code whose redundancy exceeds 8 falls back to the scalar
/// `u64` walk; every other choice is honored on every machine. Algebraic
/// (BCH) codecs use the sliced-syndrome engine regardless of the override —
/// the override selects among column-matching kernels only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Dispatch decides (the default).
    Auto,
    /// Force the one-word (`u64`) bucket walk — the reference kernel.
    ScalarU64,
    /// Force the two-word (`u128`) bucket walk.
    U128,
    /// Force the four-word software-SIMD bucket walk (256-bit limb).
    Wide256,
    /// Force direct dispatch (`direct4`/`direct8`) where eligible.
    Direct,
}

/// An unrecognized kernel-override value (from `SFQ_BATCH_KERNEL` or
/// [`KernelKind::parse`]). Carries the offending string; the
/// [`Display`](std::fmt::Display) message lists the accepted values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelEnvError {
    value: String,
}

impl KernelEnvError {
    /// The rejected override string, verbatim.
    #[must_use]
    pub fn value(&self) -> &str {
        &self.value
    }
}

impl std::fmt::Display for KernelEnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SFQ_BATCH_KERNEL={:?} is not one of \
             auto | scalar-u64 | u128 | wide256 | direct",
            self.value
        )
    }
}

impl std::error::Error for KernelEnvError {}

impl KernelKind {
    /// Parses a kernel-override string (the `SFQ_BATCH_KERNEL` value
    /// grammar). The empty string means `auto`.
    ///
    /// # Errors
    /// Returns [`KernelEnvError`] on an unrecognized value.
    pub fn parse(value: &str) -> Result<Self, KernelEnvError> {
        match value {
            "" | "auto" => Ok(KernelKind::Auto),
            "scalar-u64" => Ok(KernelKind::ScalarU64),
            "u128" => Ok(KernelKind::U128),
            "wide256" => Ok(KernelKind::Wide256),
            "direct" => Ok(KernelKind::Direct),
            other => Err(KernelEnvError {
                value: other.to_owned(),
            }),
        }
    }

    /// Reads and validates the `SFQ_BATCH_KERNEL` environment variable.
    /// Unset parses as `Auto`.
    ///
    /// Long-running services should call this once at startup and surface
    /// the error to the operator; codec construction itself never aborts on
    /// a bad value — it warns once and falls back to `Auto`.
    ///
    /// # Errors
    /// Returns [`KernelEnvError`] when the variable is set to an
    /// unrecognized value.
    pub fn from_env() -> Result<Self, KernelEnvError> {
        match std::env::var("SFQ_BATCH_KERNEL") {
            Err(_) => Ok(KernelKind::Auto),
            Ok(value) => Self::parse(&value),
        }
    }

    /// The environment read used at codec construction: an unrecognized
    /// value falls back to `Auto` instead of aborting the process — bad env
    /// config must not take down a long-running scrubbing service. The
    /// rejection is still loud: a warning is printed once per process and
    /// every affected construction bumps the `batch.kernel.env_error`
    /// counter. CI matrix typos are caught by the dispatch workflow's
    /// `kernel_env_parses` test, which asserts [`KernelKind::from_env`]
    /// succeeds under each pinned value.
    pub(crate) fn from_env_or_auto() -> Self {
        Self::from_env().unwrap_or_else(|error| {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!("warning: {error}; falling back to auto dispatch");
            });
            sfq_telemetry::global()
                .counter("batch.kernel.env_error")
                .inc();
            KernelKind::Auto
        })
    }
}

/// The concrete kernel dispatch resolves to for one decode call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KernelChoice {
    Direct4,
    Direct8,
    Walk64,
    Walk128,
    Walk256,
}

impl KernelChoice {
    /// Every kernel, in [`KernelChoice::index`] order (sizing the per-codec
    /// telemetry counter tables).
    pub(crate) const ALL: [KernelChoice; 5] = [
        KernelChoice::Direct4,
        KernelChoice::Direct8,
        KernelChoice::Walk64,
        KernelChoice::Walk128,
        KernelChoice::Walk256,
    ];

    /// Dense index into [`KernelChoice::ALL`].
    pub(crate) fn index(self) -> usize {
        match self {
            KernelChoice::Direct4 => 0,
            KernelChoice::Direct8 => 1,
            KernelChoice::Walk64 => 2,
            KernelChoice::Walk128 => 3,
            KernelChoice::Walk256 => 4,
        }
    }

    /// Stable kernel name, used by telemetry and bench reports.
    pub(crate) fn name(self) -> &'static str {
        match self {
            KernelChoice::Direct4 => "direct4",
            KernelChoice::Direct8 => "direct8",
            KernelChoice::Walk64 => "walk-u64",
            KernelChoice::Walk128 => "walk-u128",
            KernelChoice::Walk256 => "walk-w256",
        }
    }
}

/// Whether the running CPU advertises AVX2 (used only to decide whether the
/// `wide256` walk is worth *auto*-selecting; the kernel itself is portable
/// safe code and runs anywhere).
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Non-x86 targets: the four-word limb is never auto-preferred (it can
/// still be forced and stays correct — just not profitably vectorized).
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn avx2_available() -> bool {
    false
}

/// Resolves the kernel for one decode call.
///
/// * An override pins the family: forced `direct` degrades to the scalar
///   walk when the program compiled no direct table (`r > 8`).
/// * `Auto` prefers direct dispatch wherever a table exists; otherwise the
///   widest walk limb justified by the batch length (no point loading
///   four-word limbs for a one-word batch) and, for `wide256`, by AVX2.
pub(crate) fn select(
    override_kind: KernelKind,
    has_direct: bool,
    redundancy: usize,
    words: usize,
) -> KernelChoice {
    let direct_choice = if redundancy <= 4 {
        KernelChoice::Direct4
    } else {
        KernelChoice::Direct8
    };
    match override_kind {
        KernelKind::ScalarU64 => KernelChoice::Walk64,
        KernelKind::U128 => KernelChoice::Walk128,
        KernelKind::Wide256 => KernelChoice::Walk256,
        KernelKind::Direct => {
            if has_direct {
                direct_choice
            } else {
                KernelChoice::Walk64
            }
        }
        KernelKind::Auto => {
            if has_direct {
                direct_choice
            } else if words >= 4 && avx2_available() {
                KernelChoice::Walk256
            } else if words >= 2 {
                KernelChoice::Walk128
            } else {
                KernelChoice::Walk64
            }
        }
    }
}

/// Per-call kernel statistics, accumulated in plain locals by every kernel
/// and flushed to the telemetry registry once per decode call. The direct
/// kernels have no buckets or entries to count — those stay zero.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct KernelStats {
    pub clean_limbs: u64,
    pub buckets_visited: u64,
    pub buckets_skipped: u64,
    pub entries_tested: u64,
    pub lanes_matched: u64,
    pub lanes_flagged: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_prefers_direct_then_width() {
        assert_eq!(select(KernelKind::Auto, true, 3, 64), KernelChoice::Direct4);
        assert_eq!(select(KernelKind::Auto, true, 8, 1), KernelChoice::Direct8);
        // Without a direct table the width depends on batch length.
        assert_eq!(select(KernelKind::Auto, false, 21, 1), KernelChoice::Walk64);
        let wide = select(KernelKind::Auto, false, 21, 64);
        if avx2_available() {
            assert_eq!(wide, KernelChoice::Walk256);
        } else {
            assert_eq!(wide, KernelChoice::Walk128);
        }
        assert_eq!(
            select(KernelKind::Auto, false, 21, 2),
            KernelChoice::Walk128
        );
    }

    #[test]
    fn overrides_pin_the_kernel() {
        assert_eq!(
            select(KernelKind::ScalarU64, true, 3, 64),
            KernelChoice::Walk64
        );
        assert_eq!(select(KernelKind::U128, true, 3, 1), KernelChoice::Walk128);
        assert_eq!(
            select(KernelKind::Wide256, false, 21, 1),
            KernelChoice::Walk256
        );
        assert_eq!(
            select(KernelKind::Direct, true, 5, 7),
            KernelChoice::Direct8
        );
        // Forced direct without a table degrades to the reference walk.
        assert_eq!(
            select(KernelKind::Direct, false, 21, 64),
            KernelChoice::Walk64
        );
    }

    #[test]
    fn kernel_override_grammar_parses() {
        for (value, kind) in [
            ("", KernelKind::Auto),
            ("auto", KernelKind::Auto),
            ("scalar-u64", KernelKind::ScalarU64),
            ("u128", KernelKind::U128),
            ("wide256", KernelKind::Wide256),
            ("direct", KernelKind::Direct),
        ] {
            assert_eq!(KernelKind::parse(value), Ok(kind), "{value:?}");
        }
        let error = KernelKind::parse("wide-256").unwrap_err();
        assert_eq!(error.value(), "wide-256");
        let message = error.to_string();
        assert!(message.contains("wide-256"), "{message}");
        assert!(message.contains("scalar-u64"), "{message}");
    }

    /// Guards the CI dispatch matrix: each leg pins `SFQ_BATCH_KERNEL`, and
    /// this test failing under a pinned value means the matrix entry is a
    /// typo (construction itself no longer panics — it falls back to auto —
    /// so this is where a bad matrix value fails loudly).
    #[test]
    fn kernel_env_parses() {
        if let Err(error) = KernelKind::from_env() {
            panic!("invalid SFQ_BATCH_KERNEL in the environment: {error}");
        }
    }

    #[test]
    fn kernel_names_are_stable() {
        for (choice, name) in [
            (KernelChoice::Direct4, "direct4"),
            (KernelChoice::Direct8, "direct8"),
            (KernelChoice::Walk64, "walk-u64"),
            (KernelChoice::Walk128, "walk-u128"),
            (KernelChoice::Walk256, "walk-w256"),
        ] {
            assert_eq!(choice.name(), name);
        }
    }
}
