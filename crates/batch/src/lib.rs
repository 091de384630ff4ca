//! # sfq-batch — bit-sliced batch codec engine
//!
//! Scalar encode/decode of the paper's short block codes spends its time in
//! per-message loops over 4–8 bits: one `BitVec` allocation and one
//! matrix-vector product per message. For the workloads this workspace cares
//! about — exhaustive Table I sweeps and Fig. 5 Monte-Carlo runs over
//! thousands of chips × hundreds of messages — the same operations can be
//! performed on 64 messages at once by storing the batch *transposed*
//! ([`gf2::BitSlice64`]): one `u64`-limb lane per bit position, message `i`
//! at bit `i % 64` of limb `i / 64`. Encoding a lane is then a handful of
//! XORs; the whole batch path touches no per-message state at all. The same
//! word-level parallelism powers the massively parallel syndrome processing
//! units of superconducting QEC decoders (QECOOL, NEO-QEC), applied here to
//! classical link codes.
//!
//! ## How decoding becomes branch-free: column matching
//!
//! [`BatchCodec`] is built from any scalar [`BlockCode`] + [`HardDecoder`]
//! whose hard decisions are **coset-invariant**: the correction applied to a
//! received word depends only on its syndrome. Construction compiles the
//! decoder into a *column-match program*: a list of `(syndrome pattern,
//! flip mask)` entries covering exactly the *correctable* syndromes. Batch
//! decoding computes the `r = n − k` syndrome bit-slices, and per 64-message
//! limb:
//!
//! * a limb whose syndromes are all zero (the dominant case in Monte-Carlo
//!   traffic) skips matching entirely;
//! * the `2^min(4,r)` syndrome-*prefix* masks are built once per limb (one
//!   shared AND-tree by successive halving, partitioning the lanes), and
//!   the all-zero prefix mask yields the clean-word mask;
//! * each entry starts from its prefix bucket's mask and matches only its
//!   remaining high bits — an XNOR-AND-tree over the suffix slices
//!   ([`gf2::and_xnor_reduce`]) — then XORs its flip mask into the matching
//!   positions; matched lanes retire, and buckets with no lanes in play
//!   skip all of their entries;
//! * everything that is neither clean nor matched raises the error flag —
//!   detected-uncorrectable syndromes are handled *by complement* and cost
//!   nothing.
//!
//! How the program is built depends on the scalar decoder's declared
//! [`SyndromeClass`]:
//!
//! * [`SyndromeClass::ColumnFlip`] decoders (every Hamming/SEC-DED-style
//!   decoder in `ecc`, and the tie-detecting RM(1,3) decoder) are compiled
//!   **directly from the columns of `H`** — one entry per codeword position,
//!   verified with one scalar probe per position. Construction is `O(n · r)`
//!   and per-limb decode is `O(n · r)` bit-ops, independent of `2^r`, which
//!   is what lets the engine serve codes with redundancy far beyond the old
//!   20-bit action-table limit (e.g. the catalog's Shortened Hamming(85,64)
//!   with `r = 21`).
//! * [`SyndromeClass::General`] decoders (e.g. majority-vote repetition) are
//!   interrogated once per syndrome value, exactly like the old
//!   syndrome-action table — still exact, but only tractable for small `r`.
//! * [`SyndromeClass::Algebraic`] decoders (multi-error BCH) have far too
//!   many correctable syndromes to tabulate (`Σ C(n,i)` for `i ≤ t`).
//!   [`BatchCodec::with_sliced_algebraic`] keeps the bit-sliced syndrome
//!   screen and the clean-limb short-circuit, **accumulates the odd power
//!   syndromes bit-sliced across each dirty limb** (even powers follow from
//!   the Frobenius square), and runs only the scalar algebra — Berlekamp–
//!   Massey plus a closed-form locator root solve — per dirty lane, with its
//!   syndromes supplied for free. Its oracle is the scalar decoder itself:
//!   the workspace's equivalence tests compare it word by word against
//!   `Bch::decode`. Work is metered by the `batch.bch.*` counters.
//!
//! ## Decode kernels and runtime dispatch
//!
//! One compiled program can be executed by several interchangeable kernels
//! (see the crate's `kernel` module): the prefix-bucket walk at `u64`,
//! `u128`, or 256-bit software-SIMD width, and — for codes whose whole
//! syndrome fits one byte (`r ≤ 8`, i.e. every [`SyndromeClass::ColumnFlip`]
//! / [`SyndromeClass::General`] code up to SEC-DED(72,64)) — *direct
//! dispatch*: a flat 256-entry syndrome→action table indexed per lane, with
//! dense limbs bit-transposed into per-lane syndrome bytes
//! ([`gf2::syndrome_bytes`]). Dispatch picks the widest profitable kernel at
//! run time ([`KernelKind::Auto`]); the `SFQ_BATCH_KERNEL` environment
//! variable or [`BatchCodec::with_kernel`] pins one, and the workspace's
//! forced-dispatch equivalence suite proves every kernel bit-identical to
//! the scalar walk. Selection and per-kernel volume are observable via the
//! `batch.kernel.*` counters.
//!
//! Bit-exactness with the scalar path is enforced by the workspace's
//! exhaustive equivalence tests, and the RM(1,3) tie-break policy note
//! applies unchanged: the batch engine tabulates the tie-*detecting*
//! decoder (`decode`), not `decode_best_effort`.
//!
//! ## Allocation-free hot path
//!
//! Every batch operation has a buffer-reusing twin ([`BatchEncode::
//! encode_batch_into`], [`BatchDecode::decode_batch_with`]) threaded through
//! an [`ecc::BatchScratch`]; the Monte-Carlo drivers in `cryolink` keep one
//! scratch per worker thread so the steady-state inner loop never touches
//! the allocator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ecc::{
    generator_right_inverse, AlgebraicAction, AlgebraicDecode, BatchDecode, BatchDecoded,
    BatchEncode, BatchScratch, Bch, BchSpec, BitFlipPlan, BlockCode, ColumnCode, DecodeOutcome,
    HardDecoder, IterativeDecode, Ldpc, Repetition, Rm13, SlicedSyndromePlan, SyndromeClass,
    Uncoded,
};
use gf2::{or_reduce, BitMat, BitSlice64, BitVec};
use std::sync::Arc;

mod kernel;

pub use kernel::{KernelEnvError, KernelKind};

use kernel::bitflip::{run_bit_flip, BitFlipStats};
use kernel::direct::DirectTable;
use kernel::sliced::{run_sliced, SlicedStats};
use kernel::wide::{run_walk_chunked, W256};
use kernel::{KernelChoice, KernelStats};

/// Largest supported codeword length: syndrome patterns, column supports,
/// and flip masks are single `u128`s. This is the batch engine's only size
/// limit — the redundancy `n - k` is unconstrained.
pub const MAX_BLOCK_LENGTH: usize = 128;

/// One compiled decode rule: when a word's syndrome equals `pattern`, XOR
/// `flip` into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MatchEntry {
    /// Syndrome value (bit `t` = syndrome lane `t`). Never zero — the zero
    /// syndrome always means "accept" and is handled separately.
    pattern: u128,
    /// Error pattern to XOR into the received word (bit `p` = codeword
    /// position `p`). Never zero — a nonzero syndrome's correction flips at
    /// least one bit.
    flip: u128,
}

/// The compiled decoder: match entries for every *correctable* syndrome.
/// The zero syndrome accepts, and any other unmatched syndrome is
/// detected-uncorrectable by complement.
///
/// Entries are bucketed by the low [`ColumnMatchProgram::prefix_bits`] bits
/// of their pattern. The decode kernel builds all `2^prefix_bits`
/// prefix-match masks of a limb once (a shared AND-tree instead of
/// per-entry re-computation), then each entry only matches its bucket's
/// remaining high bits — and whole buckets with no matching lanes are
/// skipped without touching their entries, which is the common case for
/// sparse-error Monte-Carlo traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ColumnMatchProgram {
    /// Number of low syndrome bits used as the bucket index
    /// (`min(4, n - k)`, so the kernel's mask table fits a fixed array).
    prefix_bits: usize,
    /// Entries sorted by the low `prefix_bits` of their pattern.
    entries: Vec<MatchEntry>,
    /// `(prefix value, start, end)` ranges into `entries` — **non-empty
    /// buckets only**, so the kernel never branches over prefix values no
    /// entry uses.
    buckets: Vec<(u8, u32, u32)>,
    /// The flat syndrome→action table, compiled whenever the decoder's
    /// class is direct-dispatch eligible (`r ≤ 8`); its presence is what
    /// makes auto-dispatch pick the `direct4`/`direct8` kernels.
    direct: Option<DirectTable>,
}

/// Upper bound of the per-limb prefix-mask table (`2^4`).
const PREFIX_SLOTS: usize = 16;

/// The type-erased per-lane algebra of a [`SlicedAlgebraic`] engine:
/// `(power syndromes, full syndrome) → action`.
type AlgebraicActionFn = Arc<dyn Fn(&[u16], u128) -> AlgebraicAction + Send + Sync>;

/// The sliced-syndrome decode engine for [`SyndromeClass::Algebraic`]
/// decoders: odd power syndromes are accumulated bit-sliced across each
/// dirty limb, and the per-lane algebra runs from those syndromes alone —
/// no `BitVec` is ever materialized.
#[derive(Clone)]
struct SlicedAlgebraic {
    /// The code's constant accumulation plan (supports, squaring table).
    plan: SlicedSyndromePlan,
    /// The weight-1 column prefilter: `col_syndromes[j]` is the full
    /// syndrome of a single-bit error at position `j`. Dirty lanes matching
    /// a column are flipped and retired whole-limb before any per-lane
    /// algebra runs; each column is probed against the scalar decoder at
    /// construction, so the shortcut is provably bit-identical.
    col_syndromes: Vec<u128>,
    /// The per-lane algebra.
    action: AlgebraicActionFn,
    /// `batch.bch.*` telemetry handles.
    metrics: AlgebraicMetrics,
}

impl std::fmt::Debug for SlicedAlgebraic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlicedAlgebraic")
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

/// The whole-limb bit-flipping engine for [`SyndromeClass::Iterative`]
/// decoders: each synchronous round is one XOR reduction per low-density
/// check plus one 3-input majority per variable, shared by 64 lanes — no
/// per-lane work at all, even on all-dirty limbs.
#[derive(Debug, Clone)]
struct BitFlipEngine {
    /// The code's constant synchronous schedule.
    plan: BitFlipPlan,
    /// `batch.ldpc.*` telemetry handles.
    metrics: BitFlipMetrics,
}

/// How a [`BatchCodec`] turns syndromes into corrections.
#[derive(Debug, Clone)]
enum DecodeEngine {
    /// The compiled column-matching program (`ColumnFlip` / `General`).
    ColumnMatch(ColumnMatchProgram),
    /// Bit-sliced power-syndrome accumulation + per-lane algebra
    /// (`Algebraic`, the default engine for BCH).
    SlicedAlgebraic(SlicedAlgebraic),
    /// Whole-limb synchronous bit flipping (`Iterative`, the engine for
    /// LDPC).
    BitFlip(BitFlipEngine),
}

/// Telemetry handles of the sliced algebraic engine, registered under the
/// `batch.bch.*` names (see `docs/OBSERVABILITY.md`). Like
/// [`DecodeMetrics`], the kernel accumulates into locals and flushes once
/// per decode call.
#[derive(Debug, Clone)]
struct AlgebraicMetrics {
    /// Lanes whose syndrome was nonzero (each runs the weight-1 prefilter,
    /// then the per-lane algebra if no column matched).
    dirty_lanes: sfq_telemetry::Counter,
    /// Dirty lanes the decoder corrected.
    fallback_corrected: sfq_telemetry::Counter,
    /// Dirty lanes the decoder flagged detected-uncorrectable.
    fallback_flagged: sfq_telemetry::Counter,
    /// Error-locator evaluations performed (applied flip bits of the
    /// closed-form root solve).
    locator_evals: sfq_telemetry::Counter,
    /// Limbs that ran the bit-sliced power-syndrome accumulation.
    sliced_syndrome_limbs: sfq_telemetry::Counter,
    /// `batch.kernel.selected.<engine>` — decode calls served.
    kernel_selected: sfq_telemetry::Counter,
    /// `batch.kernel.<engine>.limbs` — limbs processed.
    kernel_limbs: sfq_telemetry::Counter,
}

impl AlgebraicMetrics {
    fn new(engine: &str) -> Self {
        let registry = sfq_telemetry::global();
        AlgebraicMetrics {
            dirty_lanes: registry.counter("batch.bch.dirty_lanes"),
            fallback_corrected: registry.counter("batch.bch.fallback_corrected"),
            fallback_flagged: registry.counter("batch.bch.fallback_flagged"),
            locator_evals: registry.counter("batch.bch.locator_evals"),
            sliced_syndrome_limbs: registry.counter("batch.bch.sliced_syndrome_limbs"),
            kernel_selected: registry.counter(&format!("batch.kernel.selected.{engine}")),
            kernel_limbs: registry.counter(&format!("batch.kernel.{engine}.limbs")),
        }
    }
}

/// Telemetry handles of the bit-flipping engine, registered under the
/// `batch.ldpc.*` names (see `docs/OBSERVABILITY.md`). Accumulated in
/// locals and flushed once per decode call, like every other engine.
#[derive(Debug, Clone)]
struct BitFlipMetrics {
    /// Lanes whose syndrome was nonzero.
    dirty_lanes: sfq_telemetry::Counter,
    /// Dirty lanes whose checks all cleared (corrected).
    corrected: sfq_telemetry::Counter,
    /// Dirty lanes still unsatisfied at the iteration cap (flagged).
    flagged: sfq_telemetry::Counter,
    /// Synchronous flip rounds executed (whole-limb each).
    rounds: sfq_telemetry::Counter,
    /// Variable flips applied (lane-bits across all rounds).
    flips: sfq_telemetry::Counter,
    /// Limbs that ran at least one flip round (clean limbs short-circuit).
    flip_limbs: sfq_telemetry::Counter,
    /// `batch.kernel.selected.bit-flip` — decode calls served.
    kernel_selected: sfq_telemetry::Counter,
    /// `batch.kernel.bit-flip.limbs` — limbs processed.
    kernel_limbs: sfq_telemetry::Counter,
}

impl BitFlipMetrics {
    fn new() -> Self {
        let registry = sfq_telemetry::global();
        BitFlipMetrics {
            dirty_lanes: registry.counter("batch.ldpc.dirty_lanes"),
            corrected: registry.counter("batch.ldpc.corrected"),
            flagged: registry.counter("batch.ldpc.flagged"),
            rounds: registry.counter("batch.ldpc.rounds"),
            flips: registry.counter("batch.ldpc.flips"),
            flip_limbs: registry.counter("batch.ldpc.flip_limbs"),
            kernel_selected: registry.counter("batch.kernel.selected.bit-flip"),
            kernel_limbs: registry.counter("batch.kernel.bit-flip.limbs"),
        }
    }
}

/// Decode-kernel telemetry handles, registered once per codec under the
/// `batch.decode.*` names (each codec is a shard of the global registry;
/// see `docs/OBSERVABILITY.md`). The kernel accumulates into plain locals
/// and flushes once per [`BatchCodec::decode_batch_with`] call, so the
/// per-limb loop sees no atomics. With the `telemetry` feature off these
/// handles are zero-sized no-ops.
#[derive(Debug, Clone)]
struct DecodeMetrics {
    /// Decode calls (one per batch).
    calls: sfq_telemetry::Counter,
    /// 64-lane limbs processed.
    limbs: sfq_telemetry::Counter,
    /// Limbs whose syndromes were all zero (short-circuited past matching).
    clean_limbs: sfq_telemetry::Counter,
    /// Prefix buckets entered with at least one lane in play.
    buckets_visited: sfq_telemetry::Counter,
    /// Prefix buckets skipped because no lane carried their prefix.
    buckets_skipped: sfq_telemetry::Counter,
    /// Match entries tested against a limb.
    entries_tested: sfq_telemetry::Counter,
    /// Lanes corrected (retired by a match).
    lanes_matched: sfq_telemetry::Counter,
    /// Lanes flagged detected-uncorrectable.
    lanes_flagged: sfq_telemetry::Counter,
    /// `batch.kernel.selected.<name>`, indexed by [`KernelChoice::index`] —
    /// decode calls each kernel served.
    kernel_selected: Vec<sfq_telemetry::Counter>,
    /// `batch.kernel.<name>.limbs`, indexed by [`KernelChoice::index`] —
    /// limbs each kernel processed.
    kernel_limbs: Vec<sfq_telemetry::Counter>,
    /// Detection-only calls (one per [`BatchCodec::detect_batch_with`]).
    detect_calls: sfq_telemetry::Counter,
    /// Limbs screened by detection-only calls.
    detect_limbs: sfq_telemetry::Counter,
    /// Dirty (nonzero-syndrome) lanes found by detection-only calls.
    detect_dirty_lanes: sfq_telemetry::Counter,
}

impl DecodeMetrics {
    fn new() -> Self {
        let registry = sfq_telemetry::global();
        DecodeMetrics {
            calls: registry.counter("batch.decode.calls"),
            limbs: registry.counter("batch.decode.limbs"),
            clean_limbs: registry.counter("batch.decode.clean_limbs"),
            buckets_visited: registry.counter("batch.decode.buckets_visited"),
            buckets_skipped: registry.counter("batch.decode.buckets_skipped"),
            entries_tested: registry.counter("batch.decode.entries_tested"),
            lanes_matched: registry.counter("batch.decode.lanes_matched"),
            lanes_flagged: registry.counter("batch.decode.lanes_flagged"),
            kernel_selected: KernelChoice::ALL
                .iter()
                .map(|c| registry.counter(&format!("batch.kernel.selected.{}", c.name())))
                .collect(),
            kernel_limbs: KernelChoice::ALL
                .iter()
                .map(|c| registry.counter(&format!("batch.kernel.{}.limbs", c.name())))
                .collect(),
            detect_calls: registry.counter("batch.detect.calls"),
            detect_limbs: registry.counter("batch.detect.limbs"),
            detect_dirty_lanes: registry.counter("batch.detect.dirty_lanes"),
        }
    }
}

impl ColumnMatchProgram {
    /// Buckets a finished entry list by syndrome prefix, and compiles the
    /// flat direct-dispatch table when `direct_eligible`.
    fn new(mut entries: Vec<MatchEntry>, redundancy: usize, direct_eligible: bool) -> Self {
        let prefix_bits = redundancy.min(4);
        debug_assert!(1 << prefix_bits <= PREFIX_SLOTS);
        let prefix_mask = (1u128 << prefix_bits) - 1;
        entries.sort_by_key(|e| e.pattern & prefix_mask);
        let mut buckets = Vec::new();
        let mut start = 0usize;
        while start < entries.len() {
            let prefix = entries[start].pattern & prefix_mask;
            let end = start
                + entries[start..]
                    .iter()
                    .take_while(|e| e.pattern & prefix_mask == prefix)
                    .count();
            buckets.push((prefix as u8, start as u32, end as u32));
            start = end;
        }
        let direct =
            (direct_eligible && redundancy > 0).then(|| DirectTable::compile(&entries, redundancy));
        ColumnMatchProgram {
            prefix_bits,
            entries,
            buckets,
            direct,
        }
    }
}

/// Outcome counts of one detection-only screen
/// ([`BatchCodec::detect_batch_with`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectSummary {
    /// Messages whose syndrome was zero (delivered unchanged).
    pub clean: u64,
    /// Messages whose syndrome was nonzero (flagged for rescrub).
    pub dirty: u64,
}

/// A bit-sliced batch encoder/decoder for one short block code.
///
/// Precomputes, from the scalar code:
///
/// * the generator's column supports (for lane encoding),
/// * the parity-check rows (for lane syndromes),
/// * the per-code decode engine (for lane decoding),
/// * the pivot/transform pair of [`generator_right_inverse`] (for lane
///   message extraction).
///
/// All masks are single `u128`s, so the code must satisfy `n ≤`
/// [`MAX_BLOCK_LENGTH`]; there is no constraint on the redundancy.
#[derive(Debug, Clone)]
pub struct BatchCodec {
    name: String,
    n: usize,
    k: usize,
    /// `encode_masks[j]`: support of generator column `j` over message bits.
    encode_masks: Vec<u128>,
    /// `syndrome_masks[t]`: support of parity-check row `t` over codeword bits.
    syndrome_masks: Vec<u128>,
    /// The decode engine: a compiled column-matching program, the sliced
    /// algebraic engine, or the bit-flip engine.
    engine: DecodeEngine,
    /// `extract_masks[j]`: support over codeword bits whose parity is message
    /// bit `j` (from the generator's right inverse).
    extract_masks: Vec<u128>,
    /// Kernel override for column-matching decodes, seeded from the
    /// `SFQ_BATCH_KERNEL` environment variable at construction (see
    /// [`BatchCodec::with_kernel`]).
    kernel: KernelKind,
    /// Decode-kernel telemetry (write-only; never affects results).
    metrics: DecodeMetrics,
}

impl BatchCodec {
    /// Builds the batch engine for a scalar code + hard decoder.
    ///
    /// The decoder's [`HardDecoder::syndrome_class`] selects the program
    /// builder: `ColumnFlip` decoders compile straight from the columns of
    /// `H` (no syndrome-space enumeration, so the redundancy is unlimited);
    /// `General` decoders are interrogated once per syndrome value.
    ///
    /// # Panics
    /// Panics if the code exceeds `n ≤ 128` (masks are single `u128`s), if
    /// the parity-check matrix does not have full row rank, if a
    /// `ColumnFlip` decoder fails its per-column scalar probe, or if the
    /// decoder declares [`SyndromeClass::Algebraic`] (build those with
    /// [`BatchCodec::with_sliced_algebraic`]) or
    /// [`SyndromeClass::Iterative`] (build those with
    /// [`BatchCodec::with_bit_flip`]).
    #[must_use]
    pub fn new<C: BlockCode + HardDecoder>(code: &C) -> Self {
        let engine = |code: &C, redundancy: usize| {
            let (entries, direct_eligible) = if redundancy == 0 {
                // No parity: every word is a codeword, nothing to correct or
                // detect.
                (Vec::new(), false)
            } else {
                let class = code.syndrome_class();
                let entries = match class {
                    SyndromeClass::ColumnFlip => column_flip_entries(code),
                    SyndromeClass::General => interrogated_entries(code),
                    SyndromeClass::Algebraic => panic!(
                        "{}: algebraic decoders have too many correctable syndromes to \
                         tabulate; build with BatchCodec::with_sliced_algebraic (the \
                         registry members are one BatchCodec::bch_spec call away)",
                        code.name()
                    ),
                    SyndromeClass::Iterative => panic!(
                        "{}: iterative decoders correct by synchronous flip rounds, not \
                         per-syndrome lookup; build with BatchCodec::with_bit_flip",
                        code.name()
                    ),
                };
                (entries, class.direct_dispatch_eligible(redundancy))
            };
            DecodeEngine::ColumnMatch(ColumnMatchProgram::new(
                entries,
                redundancy,
                direct_eligible,
            ))
        };
        Self::build(code, engine)
    }

    /// Builds the batch engine for a [`SyndromeClass::Algebraic`] decoder
    /// that implements [`AlgebraicDecode`]: odd power syndromes are
    /// accumulated **bit-sliced across each dirty limb** (shared by up to 64
    /// lanes; even powers follow from the Frobenius square), and only the
    /// per-lane algebra — Berlekamp–Massey plus the closed-form locator root
    /// solve — runs per dirty lane, with its syndromes supplied for free.
    /// This is the engine behind [`BatchCodec::bch`] and
    /// [`BatchCodec::bch_spec`].
    ///
    /// # Panics
    /// Panics under the same size/rank conditions as [`BatchCodec::new`].
    #[must_use]
    pub fn with_sliced_algebraic<C>(code: &C) -> Self
    where
        C: BlockCode + AlgebraicDecode + Clone + Send + Sync + 'static,
    {
        let engine = |code: &C, _redundancy: usize| {
            let plan = code.sliced_syndrome_plan();
            // Weight-1 prefilter: column `j`'s syndrome pattern, probed
            // against the scalar decoder exactly like the ColumnFlip
            // builder's probe — a code whose decoder would not answer
            // syndrome H[:,j] with "flip j" fails loudly here instead of
            // silently diverging from the scalar path.
            let h = code.parity_check();
            let n = code.n();
            let col_syndromes: Vec<u128> = (0..n)
                .map(|j| {
                    let pattern = h.col(j).to_u128();
                    let mut e_j = BitVec::zeros(n);
                    e_j.set(j, true);
                    let decoded = code.decode(&e_j);
                    let corrected_to_zero = decoded
                        .codeword
                        .as_ref()
                        .is_some_and(|cw| cw.is_zero() && decoded.outcome.corrected());
                    assert!(
                        corrected_to_zero,
                        "{}: scalar decoder does not flip position {j} on syndrome \
                         H[:,{j}] — the weight-1 prefilter would diverge",
                        code.name()
                    );
                    pattern
                })
                .collect();
            let owned = code.clone();
            DecodeEngine::SlicedAlgebraic(SlicedAlgebraic {
                plan,
                col_syndromes,
                action: Arc::new(move |synd: &[u16], full: u128| owned.decode_action(synd, full)),
                metrics: AlgebraicMetrics::new("sliced"),
            })
        };
        Self::build(code, engine)
    }

    /// Builds the batch engine for a [`SyndromeClass::Iterative`] decoder
    /// that implements [`IterativeDecode`]: the code's synchronous bit-flip
    /// schedule runs **whole-limb bit-sliced** — each round is one XOR
    /// reduction per low-density check plus one 3-input majority per
    /// variable, shared by up to 64 lanes. Unlike the algebraic engines
    /// there is no per-lane region at all: even an all-dirty limb never
    /// unpacks a lane. This is the engine behind [`BatchCodec::ldpc`].
    ///
    /// # Panics
    /// Panics under the same size/rank conditions as [`BatchCodec::new`],
    /// or if the plan fails [`BitFlipPlan::validate`].
    #[must_use]
    pub fn with_bit_flip<C>(code: &C) -> Self
    where
        C: BlockCode + IterativeDecode,
    {
        let engine = |code: &C, _redundancy: usize| {
            let plan = code.bit_flip_plan();
            plan.validate();
            assert!(
                plan.check_supports.len() <= 64,
                "{}: bit-flip parity slices are a fixed 64-entry array",
                code.name()
            );
            DecodeEngine::BitFlip(BitFlipEngine {
                plan,
                metrics: BitFlipMetrics::new(),
            })
        };
        Self::build(code, engine)
    }

    /// Shared constructor body: masks, extraction lanes, and the engine.
    fn build<C: BlockCode + HardDecoder>(
        code: &C,
        engine: impl FnOnce(&C, usize) -> DecodeEngine,
    ) -> Self {
        let (n, k) = (code.n(), code.k());
        assert!(
            n <= MAX_BLOCK_LENGTH,
            "batch codec masks are u128: n <= {MAX_BLOCK_LENGTH} (got {n})"
        );
        assert!(k <= n, "k must not exceed n");
        let redundancy = n - k;

        let g = code.generator();
        let encode_masks: Vec<u128> = (0..n).map(|j| column_mask(g, j)).collect();

        let h = code.parity_check();
        let syndrome_masks: Vec<u128> = (0..redundancy).map(|t| row_mask(h, t)).collect();

        let engine = engine(code, redundancy);

        let (pivots, transform) = generator_right_inverse(g);
        let extract_masks: Vec<u128> = (0..k)
            .map(|j| {
                pivots
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| transform.get(i, j))
                    .fold(0u128, |mask, (_, &p)| mask | (1u128 << p))
            })
            .collect();

        BatchCodec {
            name: format!("batch[{}]", code.name()),
            n,
            k,
            encode_masks,
            syndrome_masks,
            engine,
            extract_masks,
            kernel: KernelKind::from_env_or_auto(),
            metrics: DecodeMetrics::new(),
        }
    }

    /// Pins the decode kernel for this codec, overriding both auto-dispatch
    /// and the `SFQ_BATCH_KERNEL` environment variable. Every kernel is
    /// bit-identical; this only affects speed (and telemetry attribution).
    /// Algebraic codecs ignore the override — it selects among
    /// column-matching kernels only.
    #[must_use]
    pub fn with_kernel(mut self, kernel: KernelKind) -> Self {
        self.kernel = kernel;
        self
    }

    /// The kernel dispatch would run for a batch of `batch` messages:
    /// `direct4`, `direct8`, `walk-u64`, `walk-u128`, `walk-w256`,
    /// `sliced`, or `bit-flip` (the engine-named
    /// algebraic/iterative paths are fixed per constructor). Used by benches
    /// and reports; decode results never depend on it.
    #[must_use]
    pub fn selected_kernel_name(&self, batch: usize) -> &'static str {
        match &self.engine {
            DecodeEngine::ColumnMatch(program) => kernel::select(
                self.kernel,
                program.direct.is_some(),
                self.syndrome_masks.len(),
                batch.div_ceil(64),
            )
            .name(),
            DecodeEngine::SlicedAlgebraic(_) => "sliced",
            DecodeEngine::BitFlip(_) => "bit-flip",
        }
    }

    /// Batch engine for the Hamming(7,4) code.
    #[must_use]
    pub fn hamming74() -> Self {
        Self::new(&ColumnCode::hamming74())
    }

    /// Batch engine for the extended Hamming(8,4) code.
    #[must_use]
    pub fn hamming84() -> Self {
        Self::new(&ColumnCode::hamming84())
    }

    /// Batch engine for the RM(1,3) code (tie-detecting decoder).
    #[must_use]
    pub fn rm13() -> Self {
        Self::new(&Rm13::new())
    }

    /// Batch engine for a repetition code.
    #[must_use]
    pub fn repetition(k: usize, factor: usize) -> Self {
        Self::new(&Repetition::new(k, factor))
    }

    /// Batch engine for uncoded transmission.
    #[must_use]
    pub fn uncoded(k: usize) -> Self {
        Self::new(&Uncoded::new(k))
    }

    /// Batch engine for the SEC-DED family member with `2^m` data bits
    /// (`m = 6` is the wide (72,64) code).
    #[must_use]
    pub fn sec_ded(m: usize) -> Self {
        Self::new(&ColumnCode::sec_ded(m))
    }

    /// Batch engine for the wide Shortened Hamming(85,64) demonstration code
    /// — 21 syndrome lanes, beyond any tabulable syndrome space.
    #[must_use]
    pub fn wide_hamming_85_64() -> Self {
        Self::new(&ColumnCode::wide_85_64())
    }

    /// Batch engine for the multi-error BCH(31,16) code (`t = 2`,
    /// `d_min = 7`): bit-sliced power-syndrome accumulation, per-lane
    /// Berlekamp–Massey + closed-form locator solve on residual dirty lanes
    /// only.
    #[must_use]
    pub fn bch() -> Self {
        Self::bch_spec(BchSpec::BCH_31_16)
    }

    /// Batch engine for any registry BCH member (see [`BchSpec::REGISTRY`]):
    /// the sliced-syndrome engine parameterized by `(m, t, decode_radius)`.
    #[must_use]
    pub fn bch_spec(spec: BchSpec) -> Self {
        Self::with_sliced_algebraic(&Bch::from_spec(spec))
    }

    /// Batch engine for the BCH(63,51) registry member (`t = 2`).
    #[must_use]
    pub fn bch_63_51() -> Self {
        Self::bch_spec(BchSpec::BCH_63_51)
    }

    /// Batch engine for the BCH(63,45) registry member (`t = 3`) — the
    /// strongest algebraic code in the catalog.
    #[must_use]
    pub fn bch_63_45() -> Self {
        Self::bch_spec(BchSpec::BCH_63_45)
    }

    /// Batch engine for the regular Gallager LDPC(60,32) code: whole-limb
    /// synchronous bit flipping, the first decode engine with no per-lane
    /// region even on all-dirty limbs.
    #[must_use]
    pub fn ldpc() -> Self {
        Self::with_bit_flip(&Ldpc::gallager_60_32())
    }

    /// Human-readable name, derived from the scalar code's.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of compiled match entries (one per correctable syndrome).
    /// The sliced algebraic and bit-flip engines compile no entries and
    /// report zero.
    #[must_use]
    pub fn program_len(&self) -> usize {
        match &self.engine {
            DecodeEngine::ColumnMatch(program) => program.entries.len(),
            DecodeEngine::SlicedAlgebraic(_) | DecodeEngine::BitFlip(_) => 0,
        }
    }

    /// The column-matching decode entry point: resolves the kernel
    /// (direct-dispatch table or bucket walk at the chosen limb width) and
    /// runs it over the limbs. All kernels are bit-identical; dispatch only
    /// affects speed and telemetry attribution.
    fn run_program(
        &self,
        program: &ColumnMatchProgram,
        received: &BitSlice64,
        scratch: &mut BatchScratch,
        out: &mut BatchDecoded,
    ) {
        let redundancy = self.syndrome_masks.len();
        let words = received.words();

        self.syndrome_batch_into(received, &mut scratch.syndromes);

        out.codewords.copy_from(received);
        out.flagged.clear();
        out.flagged.resize(words, 0);
        out.corrected.clear();
        out.corrected.resize(words, 0);

        // Telemetry accumulates in a local struct and flushes once per
        // call, so the limb loops perform no atomic operations.
        let mut stats = KernelStats::default();
        let choice = kernel::select(self.kernel, program.direct.is_some(), redundancy, words);
        match choice {
            KernelChoice::Direct4 => {
                let table = program.direct.as_ref().expect("direct4 needs a table");
                kernel::direct::run_direct4(table, &scratch.syndromes, out, &mut stats);
            }
            KernelChoice::Direct8 => {
                let table = program.direct.as_ref().expect("direct8 needs a table");
                kernel::direct::run_direct8(table, &scratch.syndromes, out, &mut stats);
            }
            KernelChoice::Walk64 => {
                run_walk_chunked::<u64>(program, &scratch.syndromes, out, &mut stats);
            }
            KernelChoice::Walk128 => {
                run_walk_chunked::<u128>(program, &scratch.syndromes, out, &mut stats);
            }
            KernelChoice::Walk256 => {
                run_walk_chunked::<W256>(program, &scratch.syndromes, out, &mut stats);
            }
        }

        self.metrics.calls.inc();
        self.metrics.limbs.add(words as u64);
        self.metrics.clean_limbs.add(stats.clean_limbs);
        self.metrics.buckets_visited.add(stats.buckets_visited);
        self.metrics.buckets_skipped.add(stats.buckets_skipped);
        self.metrics.entries_tested.add(stats.entries_tested);
        self.metrics.lanes_matched.add(stats.lanes_matched);
        self.metrics.lanes_flagged.add(stats.lanes_flagged);
        self.metrics.kernel_selected[choice.index()].inc();
        self.metrics.kernel_limbs[choice.index()].add(words as u64);

        self.extract_message_lanes(received.batch(), out);
    }

    /// The sliced-syndrome decode entry point for algebraic codes: odd
    /// power syndromes are accumulated bit-sliced per dirty limb, and the
    /// per-lane algebra runs with its syndromes supplied for free.
    fn run_sliced_engine(
        &self,
        engine: &SlicedAlgebraic,
        received: &BitSlice64,
        scratch: &mut BatchScratch,
        out: &mut BatchDecoded,
    ) {
        let redundancy = self.syndrome_masks.len();
        let words = received.words();

        self.syndrome_batch_into(received, &mut scratch.syndromes);
        if scratch.gather.len() < redundancy {
            scratch.gather.resize(redundancy, 0);
        }

        out.codewords.copy_from(received);
        out.flagged.clear();
        out.flagged.resize(words, 0);
        out.corrected.clear();
        out.corrected.resize(words, 0);

        let mut stats = SlicedStats::default();
        run_sliced(
            &engine.plan,
            &engine.col_syndromes,
            engine.action.as_ref(),
            &scratch.syndromes,
            &mut scratch.gather[..redundancy],
            out,
            &mut stats,
        );

        self.metrics.calls.inc();
        self.metrics.limbs.add(words as u64);
        self.metrics.clean_limbs.add(stats.clean_limbs);
        self.metrics.lanes_matched.add(stats.corrected);
        self.metrics.lanes_flagged.add(stats.flagged);
        engine.metrics.dirty_lanes.add(stats.dirty_lanes);
        engine.metrics.fallback_corrected.add(stats.corrected);
        engine.metrics.fallback_flagged.add(stats.flagged);
        engine.metrics.locator_evals.add(stats.locator_evals);
        engine.metrics.sliced_syndrome_limbs.add(stats.sliced_limbs);
        engine.metrics.kernel_selected.inc();
        engine.metrics.kernel_limbs.add(words as u64);

        self.extract_message_lanes(received.batch(), out);
    }

    /// The bit-flipping decode entry point for iterative codes: the whole
    /// decoder — check parities and majority flips alike — runs bit-sliced,
    /// with the usual clean-limb short-circuit and no per-lane region.
    fn run_bit_flip_engine(
        &self,
        engine: &BitFlipEngine,
        received: &BitSlice64,
        scratch: &mut BatchScratch,
        out: &mut BatchDecoded,
    ) {
        let redundancy = self.syndrome_masks.len();
        let words = received.words();

        self.syndrome_batch_into(received, &mut scratch.syndromes);
        if scratch.gather.len() < redundancy {
            scratch.gather.resize(redundancy, 0);
        }

        out.codewords.copy_from(received);
        out.flagged.clear();
        out.flagged.resize(words, 0);
        out.corrected.clear();
        out.corrected.resize(words, 0);

        let mut stats = BitFlipStats::default();
        run_bit_flip(
            &engine.plan,
            received,
            &scratch.syndromes,
            &mut scratch.gather[..redundancy],
            out,
            &mut stats,
        );

        self.metrics.calls.inc();
        self.metrics.limbs.add(words as u64);
        self.metrics.clean_limbs.add(stats.clean_limbs);
        self.metrics.lanes_matched.add(stats.corrected);
        self.metrics.lanes_flagged.add(stats.flagged);
        engine.metrics.dirty_lanes.add(stats.dirty_lanes);
        engine.metrics.corrected.add(stats.corrected);
        engine.metrics.flagged.add(stats.flagged);
        engine.metrics.rounds.add(stats.rounds);
        engine.metrics.flips.add(stats.flips);
        engine.metrics.flip_limbs.add(stats.flip_limbs);
        engine.metrics.kernel_selected.inc();
        engine.metrics.kernel_limbs.add(words as u64);

        self.extract_message_lanes(received.batch(), out);
    }

    /// Detection-only decode: computes the syndrome batch and classifies
    /// each message as clean (zero syndrome) or dirty (nonzero), **without
    /// running any correction kernel** — no column matching, no per-lane
    /// algebra, no message extraction. This is the degraded decode mode of
    /// the streaming scrub service (`sfq-stream`): under overload a
    /// SEC-DED-class code stops correcting and merely *detects*, delivering
    /// clean words unchanged and flagging dirty ones for rescrub at a
    /// fraction of the full-decode cost.
    ///
    /// `dirty` receives one limb per 64 messages (bit `i % 64` of limb
    /// `i / 64` set when message `i` has a nonzero syndrome), re-shaped in
    /// place like every other `_with` buffer. Note the semantics are weaker
    /// than a full decode on purpose: a dirty lane may carry a *correctable*
    /// error — detection-only mode trades that correction away for latency.
    ///
    /// # Panics
    /// Panics if `received.bits() != self.n()`.
    pub fn detect_batch_with(
        &self,
        received: &BitSlice64,
        scratch: &mut BatchScratch,
        dirty: &mut Vec<u64>,
    ) -> DetectSummary {
        assert_eq!(received.bits(), self.n, "received lanes must equal n");
        let redundancy = self.syndrome_masks.len();
        let words = received.words();
        let tail = received.tail_mask();

        self.syndrome_batch_into(received, &mut scratch.syndromes);
        if scratch.gather.len() < redundancy {
            scratch.gather.resize(redundancy, 0);
        }
        dirty.clear();
        dirty.resize(words, 0);

        let mut dirty_lanes = 0u64;
        for (w, slot) in dirty.iter_mut().enumerate() {
            let valid = if w + 1 == words { tail } else { u64::MAX };
            let gather = &mut scratch.gather[..redundancy];
            scratch.syndromes.gather_word(w, gather);
            let mask = or_reduce(gather) & valid;
            *slot = mask;
            dirty_lanes += u64::from(mask.count_ones());
        }

        self.metrics.detect_calls.inc();
        self.metrics.detect_limbs.add(words as u64);
        self.metrics.detect_dirty_lanes.add(dirty_lanes);

        DetectSummary {
            clean: received.batch() as u64 - dirty_lanes,
            dirty: dirty_lanes,
        }
    }

    /// Allocating convenience form of [`BatchCodec::detect_batch_with`].
    ///
    /// # Panics
    /// Panics if `received.bits() != self.n()`.
    #[must_use]
    pub fn detect_batch(&self, received: &BitSlice64) -> (Vec<u64>, DetectSummary) {
        let mut scratch = BatchScratch::new();
        let mut dirty = Vec::new();
        let summary = self.detect_batch_with(received, &mut scratch, &mut dirty);
        (dirty, summary)
    }

    /// Message lanes: parity of the extraction support over the corrected
    /// codeword lanes, masked out at flagged positions.
    fn extract_message_lanes(&self, batch: usize, out: &mut BatchDecoded) {
        out.messages.reset(self.k, batch);
        for (j, &mask) in self.extract_masks.iter().enumerate() {
            let mut m = mask;
            while m != 0 {
                let p = m.trailing_zeros() as usize;
                out.messages.xor_lane_from(j, &out.codewords, p);
                m &= m - 1;
            }
            let lane = out.messages.lane_mut(j);
            for (l, &f) in lane.iter_mut().zip(out.flagged.iter()) {
                *l &= !f;
            }
        }
    }
}

impl BatchEncode for BatchCodec {
    fn n(&self) -> usize {
        self.n
    }

    fn k(&self) -> usize {
        self.k
    }

    fn encode_batch(&self, messages: &BitSlice64) -> BitSlice64 {
        let mut out = BitSlice64::default();
        self.encode_batch_into(messages, &mut out);
        out
    }

    fn encode_batch_into(&self, messages: &BitSlice64, codewords: &mut BitSlice64) {
        assert_eq!(messages.bits(), self.k, "message lanes must equal k");
        codewords.reset(self.n, messages.batch());
        for (j, &mask) in self.encode_masks.iter().enumerate() {
            let mut m = mask;
            while m != 0 {
                let i = m.trailing_zeros() as usize;
                codewords.xor_lane_from(j, messages, i);
                m &= m - 1;
            }
        }
    }
}

impl BatchDecode for BatchCodec {
    fn syndrome_batch(&self, received: &BitSlice64) -> BitSlice64 {
        let mut out = BitSlice64::default();
        self.syndrome_batch_into(received, &mut out);
        out
    }

    fn syndrome_batch_into(&self, received: &BitSlice64, syndromes: &mut BitSlice64) {
        assert_eq!(received.bits(), self.n, "received lanes must equal n");
        syndromes.reset(self.syndrome_masks.len(), received.batch());
        for (t, &mask) in self.syndrome_masks.iter().enumerate() {
            let mut m = mask;
            while m != 0 {
                let p = m.trailing_zeros() as usize;
                syndromes.xor_lane_from(t, received, p);
                m &= m - 1;
            }
        }
    }

    fn decode_batch(&self, received: &BitSlice64) -> BatchDecoded {
        let mut scratch = BatchScratch::new();
        let mut out = BatchDecoded::empty();
        self.decode_batch_with(received, &mut scratch, &mut out);
        out
    }

    fn decode_batch_with(
        &self,
        received: &BitSlice64,
        scratch: &mut BatchScratch,
        out: &mut BatchDecoded,
    ) {
        assert_eq!(received.bits(), self.n, "received lanes must equal n");
        match &self.engine {
            DecodeEngine::ColumnMatch(program) => {
                self.run_program(program, received, scratch, out);
            }
            DecodeEngine::SlicedAlgebraic(engine) => {
                self.run_sliced_engine(engine, received, scratch, out);
            }
            DecodeEngine::BitFlip(engine) => {
                self.run_bit_flip_engine(engine, received, scratch, out);
            }
        }
    }
}

/// Support of generator column `j` as a mask over message-bit indices.
fn column_mask(g: &BitMat, j: usize) -> u128 {
    (0..g.rows()).fold(0u128, |mask, i| {
        if g.get(i, j) {
            mask | (1u128 << i)
        } else {
            mask
        }
    })
}

/// Support of parity-check row `t` as a mask over codeword positions.
fn row_mask(h: &BitMat, t: usize) -> u128 {
    (0..h.cols()).fold(0u128, |mask, p| {
        if h.get(t, p) {
            mask | (1u128 << p)
        } else {
            mask
        }
    })
}

/// Compiles a [`SyndromeClass::ColumnFlip`] decoder straight from the
/// parity-check matrix: one entry per codeword position, matching the
/// position's column and flipping that single bit. Detected syndromes are
/// the complement and need no entries.
///
/// Construction cost is `O(n · r)` plus one scalar probe per position — the
/// probe re-verifies the declared class against the actual decoder, so a
/// code that wrongly claims `ColumnFlip` fails loudly here rather than
/// producing a silently divergent batch engine.
///
/// # Panics
/// Panics if `H` has a zero or duplicated column (the class needs
/// `d_min ≥ 3`), or if the scalar decoder's response to a single-bit error
/// is not "flip exactly that bit".
fn column_flip_entries<C: BlockCode + HardDecoder>(code: &C) -> Vec<MatchEntry> {
    let n = code.n();
    let h = code.parity_check();
    let mut entries: Vec<MatchEntry> = Vec::with_capacity(n);
    for j in 0..n {
        let pattern = h.col(j).to_u128();
        assert_ne!(pattern, 0, "H column {j} is zero: not a ColumnFlip code");
        assert!(
            entries.iter().all(|e| e.pattern != pattern),
            "H column {j} duplicates another column: not a ColumnFlip code"
        );
        // Probe: the scalar decoder must answer a single-bit error at `j`
        // by flipping exactly `j` (i.e. decode e_j back to the zero word).
        let mut e_j = BitVec::zeros(n);
        e_j.set(j, true);
        let decoded = code.decode(&e_j);
        let corrected_to_zero = decoded
            .codeword
            .as_ref()
            .is_some_and(|cw| cw.is_zero() && decoded.outcome.corrected());
        assert!(
            corrected_to_zero,
            "{}: scalar decoder does not flip position {j} on syndrome H[:,{j}] — \
             the decoder is not SyndromeClass::ColumnFlip",
            code.name()
        );
        entries.push(MatchEntry {
            pattern,
            flip: 1u128 << j,
        });
    }
    entries
}

/// Compiles a [`SyndromeClass::General`] decoder by interrogating it once
/// per syndrome value and recording an entry for every syndrome it corrects
/// (detected syndromes are the complement and need no entries).
///
/// For each syndrome `s`, a representative received word with that syndrome
/// is constructed from the row-reduced parity-check matrix: row-reducing
/// `[H | I_{n-k}]` gives `[R | T]` with `R = T·H` and pivot columns `p_i`;
/// the word `r = Σ_i (T·s)_i · e_{p_i}` satisfies `H·r = s`. The decoder's
/// response to `r` — flip pattern or error flag — is the action for every
/// word in that coset.
///
/// # Panics
/// Panics if `H` does not have full row rank, or if the redundancy exceeds
/// 28 — this builder enumerates all `2^(n-k)` syndromes, which is a property
/// of general coset decoders, not of the batch engine; wide-redundancy codes
/// must provide a [`SyndromeClass::ColumnFlip`] decoder instead.
fn interrogated_entries<C: BlockCode + HardDecoder>(code: &C) -> Vec<MatchEntry> {
    let n = code.n();
    let redundancy = n - code.k();
    assert!(
        redundancy <= 28,
        "{}: general-class decoders are compiled by enumerating all 2^(n-k) syndromes, \
         which is impractical at n-k = {redundancy}; implement SyndromeClass::ColumnFlip \
         (or another structural class) for this decoder",
        code.name()
    );
    let table_len = 1u64 << redundancy;

    let h = code.parity_check();
    let augmented = h.hconcat(&BitMat::identity(redundancy));
    let (reduced, pivots) = augmented.rref();
    assert_eq!(pivots.len(), redundancy, "H must have full row rank");
    assert!(
        pivots.iter().all(|&p| p < n),
        "H pivots must be data columns"
    );
    // Row `i` of the transform `T`, as a BitVec for the dot products below.
    let t_rows: Vec<BitVec> = (0..redundancy)
        .map(|i| (0..redundancy).map(|t| reduced.get(i, n + t)).collect())
        .collect();

    let mut entries = Vec::new();
    for s in 1..table_len {
        let syndrome = BitVec::from_u64(redundancy, s);
        // a = T · s, then r = Σ a_i e_{p_i}.
        let mut representative = BitVec::zeros(n);
        for (i, &p) in pivots.iter().enumerate() {
            if t_rows[i].dot(&syndrome) {
                representative.set(p, true);
            }
        }
        debug_assert_eq!(code.syndrome(&representative), syndrome);

        let decoded = code.decode(&representative);
        match decoded.outcome {
            DecodeOutcome::DetectedUncorrectable => {} // handled by complement
            _ => {
                let codeword = decoded
                    .codeword
                    .expect("non-detected decode must produce a codeword");
                let flip = (&representative ^ &codeword).to_u128();
                debug_assert_ne!(flip, 0, "nonzero syndrome must flip something");
                entries.push(MatchEntry {
                    pattern: u128::from(s),
                    flip,
                });
            }
        }
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_messages(k: usize, batch: usize, seed: u64) -> Vec<BitVec> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..batch)
            .map(|_| BitVec::from_u64(k, rng.random_range(0..(1u64 << k))))
            .collect()
    }

    #[test]
    fn encode_batch_matches_scalar_for_all_paper_codes() {
        type ScalarEncode = Box<dyn Fn(&BitVec) -> BitVec>;
        let cases: Vec<(BatchCodec, ScalarEncode)> = vec![
            (BatchCodec::hamming74(), {
                let c = ColumnCode::hamming74();
                Box::new(move |m| c.encode(m))
            }),
            (BatchCodec::hamming84(), {
                let c = ColumnCode::hamming84();
                Box::new(move |m| c.encode(m))
            }),
            (BatchCodec::rm13(), {
                let c = Rm13::new();
                Box::new(move |m| c.encode(m))
            }),
            (BatchCodec::repetition(4, 2), {
                let c = Repetition::new(4, 2);
                Box::new(move |m| c.encode(m))
            }),
            (BatchCodec::uncoded(4), {
                let c = Uncoded::new(4);
                Box::new(move |m| c.encode(m))
            }),
        ];
        for (codec, scalar) in cases {
            let messages = random_messages(codec.k(), 130, 7);
            let batch = BitSlice64::pack(&messages);
            let encoded = codec.encode_batch(&batch).unpack();
            for (m, cw) in messages.iter().zip(&encoded) {
                assert_eq!(cw, &scalar(m), "{}", codec.name());
            }
        }
    }

    #[test]
    fn syndrome_batch_matches_scalar() {
        let code = ColumnCode::hamming84();
        let codec = BatchCodec::hamming84();
        let mut rng = StdRng::seed_from_u64(11);
        let words: Vec<BitVec> = (0..100)
            .map(|_| BitVec::from_u64(8, rng.random_range(0..256)))
            .collect();
        let batch = BitSlice64::pack(&words);
        let syndromes = codec.syndrome_batch(&batch);
        for (i, w) in words.iter().enumerate() {
            assert_eq!(syndromes.extract(i), code.syndrome(w), "word {i}");
        }
    }

    #[test]
    fn decode_batch_roundtrips_clean_codewords() {
        let codec = BatchCodec::hamming84();
        let messages = random_messages(4, 96, 3);
        let batch = BitSlice64::pack(&messages);
        let decoded = codec.decode_batch(&codec.encode_batch(&batch));
        assert_eq!(decoded.flagged_count(), 0);
        assert_eq!(decoded.corrected_count(), 0);
        assert_eq!(decoded.messages.unpack(), messages);
    }

    #[test]
    fn decode_batch_corrects_single_errors_and_flags_doubles() {
        let codec = BatchCodec::hamming84();
        let messages = random_messages(4, 64, 9);
        let clean = codec.encode_batch(&BitSlice64::pack(&messages));
        // Message i gets a 1-bit error at position i % 8; messages 5 and 6
        // additionally get a second error (-> double, must be flagged).
        let mut received = clean.clone();
        for i in 0..64 {
            received.set(i, i % 8, !received.get(i, i % 8));
        }
        for &i in &[5usize, 6] {
            let pos = (i + 1) % 8;
            received.set(i, pos, !received.get(i, pos));
        }
        let decoded = codec.decode_batch(&received);
        for (i, message) in messages.iter().enumerate() {
            if i == 5 || i == 6 {
                assert!(decoded.is_flagged(i), "message {i} must be flagged");
            } else {
                assert!(!decoded.is_flagged(i));
                assert!(decoded.is_corrected(i));
                assert_eq!(decoded.messages.extract(i), *message, "message {i}");
            }
        }
        assert_eq!(decoded.flagged_count(), 2);
    }

    /// Detection-only screening agrees with the full decode on every code
    /// family: a lane is dirty exactly when the full decoder either corrects
    /// or flags it (zero syndrome ⇔ untouched codeword), for ragged batches
    /// and across all three engines (column match, sliced algebraic).
    #[test]
    fn detect_batch_matches_full_decode_classification() {
        for codec in [
            BatchCodec::sec_ded(3),
            BatchCodec::hamming84(),
            BatchCodec::bch(),
            BatchCodec::bch_63_45(),
            BatchCodec::ldpc(),
        ] {
            let batch = 190usize;
            let msgs = random_messages(codec.k(), batch, 21);
            let mut received = codec.encode_batch(&BitSlice64::pack(&msgs));
            // Sprinkle deterministic errors: single flips, double flips, and
            // untouched lanes.
            let mut rng = StdRng::seed_from_u64(33);
            for i in (0..batch).step_by(3) {
                let p = rng.random_range(0..codec.n());
                received.set(i, p, !received.get(i, p));
                if i % 6 == 0 {
                    let q = (p + 1) % codec.n();
                    received.set(i, q, !received.get(i, q));
                }
            }

            let (dirty, summary) = codec.detect_batch(&received);
            let decoded = codec.decode_batch(&received);
            for (w, mask) in dirty.iter().enumerate() {
                assert_eq!(
                    *mask,
                    decoded.corrected[w] | decoded.flagged[w],
                    "{}: limb {w} dirty mask must equal corrected|flagged",
                    codec.name()
                );
            }
            let expect_dirty = (decoded.corrected_count() + decoded.flagged_count()) as u64;
            assert_eq!(summary.dirty, expect_dirty, "{}", codec.name());
            assert_eq!(summary.clean + summary.dirty, batch as u64);
        }
    }

    #[test]
    fn detect_batch_reuses_scratch_without_allocating_results() {
        let codec = BatchCodec::sec_ded(6);
        let messages = random_messages(63, 200, 5);
        let padded: Vec<BitVec> = messages
            .iter()
            .map(|m| {
                let mut v = BitVec::zeros(64);
                for b in 0..63 {
                    v.set(b, m.get(b));
                }
                v
            })
            .collect();
        let clean = codec.encode_batch(&BitSlice64::pack(&padded));
        let mut scratch = BatchScratch::new();
        let mut dirty = Vec::new();
        let summary = codec.detect_batch_with(&clean, &mut scratch, &mut dirty);
        assert_eq!(
            summary,
            DetectSummary {
                clean: 200,
                dirty: 0
            }
        );
        assert!(dirty.iter().all(|&m| m == 0));
        // A second call with one corrupted lane re-shapes the same buffers.
        let mut received = clean.clone();
        received.set(130, 7, !received.get(130, 7));
        let summary = codec.detect_batch_with(&received, &mut scratch, &mut dirty);
        assert_eq!(
            summary,
            DetectSummary {
                clean: 199,
                dirty: 1
            }
        );
        assert_eq!(dirty[130 / 64], 1u64 << (130 % 64));
    }

    #[test]
    fn uncoded_codec_passes_everything_through() {
        let codec = BatchCodec::uncoded(4);
        let messages = random_messages(4, 70, 21);
        let batch = BitSlice64::pack(&messages);
        let encoded = codec.encode_batch(&batch);
        assert_eq!(encoded.unpack(), messages);
        let decoded = codec.decode_batch(&encoded);
        assert_eq!(decoded.flagged_count(), 0);
        assert_eq!(decoded.messages.unpack(), messages);
    }

    #[test]
    fn repetition_decode_matches_majority_vote() {
        let scalar = Repetition::new(2, 3);
        let codec = BatchCodec::repetition(2, 3);
        // All 64 possible received words of the (6,2) code.
        let words: Vec<BitVec> = (0u64..64).map(|w| BitVec::from_u64(6, w)).collect();
        let decoded = codec.decode_batch(&BitSlice64::pack(&words));
        for (i, w) in words.iter().enumerate() {
            let reference = scalar.decode(w);
            match reference.outcome {
                DecodeOutcome::DetectedUncorrectable => assert!(decoded.is_flagged(i)),
                _ => {
                    assert!(!decoded.is_flagged(i));
                    assert_eq!(Some(decoded.messages.extract(i)), reference.message);
                }
            }
        }
    }

    #[test]
    fn partial_last_limb_batches_are_handled() {
        let codec = BatchCodec::hamming74();
        for batch_size in [1usize, 63, 65, 127] {
            let messages = random_messages(4, batch_size, batch_size as u64);
            let clean = codec.encode_batch(&BitSlice64::pack(&messages));
            let mut received = clean.clone();
            if batch_size > 2 {
                received.set(batch_size - 1, 3, !received.get(batch_size - 1, 3));
            }
            let decoded = codec.decode_batch(&received);
            assert_eq!(decoded.messages.unpack().len(), batch_size);
            for (i, m) in messages.iter().enumerate() {
                assert_eq!(
                    decoded.messages.extract(i),
                    *m,
                    "batch {batch_size} msg {i}"
                );
            }
        }
    }

    #[test]
    fn codec_reports_code_parameters() {
        let codec = BatchCodec::hamming84();
        assert_eq!((codec.n(), codec.k()), (8, 4));
        assert!(codec.name().contains("Hamming(8,4)"));
    }

    #[test]
    fn column_flip_codes_compile_to_n_entries() {
        // ColumnFlip programs have exactly one entry per codeword position,
        // independent of the syndrome-space size.
        assert_eq!(BatchCodec::hamming74().program_len(), 7);
        assert_eq!(BatchCodec::hamming84().program_len(), 8);
        assert_eq!(BatchCodec::rm13().program_len(), 8);
        assert_eq!(BatchCodec::sec_ded(6).program_len(), 72);
        assert_eq!(BatchCodec::wide_hamming_85_64().program_len(), 85);
        // The r = 0 degenerate case has nothing to match; the algebraic and
        // iterative engines compile no entries at all.
        assert_eq!(BatchCodec::uncoded(4).program_len(), 0);
        assert_eq!(BatchCodec::bch().program_len(), 0);
        assert_eq!(BatchCodec::bch_63_45().program_len(), 0);
        assert_eq!(BatchCodec::ldpc().program_len(), 0);
        // General-class codes keep interrogated entries (correctable
        // syndromes only): the (8,4) factor-2 repetition code corrects
        // nothing (every disagreement is a tie), the (6,2) factor-3 code
        // corrects every nonzero syndrome.
        assert_eq!(BatchCodec::repetition(4, 2).program_len(), 0);
        assert_eq!(BatchCodec::repetition(2, 3).program_len(), 15);
    }

    #[test]
    fn scratch_reuse_across_codes_and_batch_sizes_is_bit_exact() {
        // One scratch + output pair threaded through decodes of different
        // codes and batch shapes must reproduce the allocating path exactly.
        let mut scratch = BatchScratch::new();
        let mut out = BatchDecoded::empty();
        let mut rng = StdRng::seed_from_u64(0x5C8A7C4);
        for codec in [
            BatchCodec::sec_ded(6),
            BatchCodec::hamming84(),
            BatchCodec::wide_hamming_85_64(),
            BatchCodec::hamming74(),
        ] {
            for batch_size in [5usize, 64, 131] {
                let words: Vec<BitVec> = (0..batch_size)
                    .map(|_| {
                        (0..codec.n())
                            .map(|_| rng.random::<u64>() & 1 == 1)
                            .collect::<BitVec>()
                    })
                    .collect();
                let batch = BitSlice64::pack(&words);
                let reference = codec.decode_batch(&batch);
                codec.decode_batch_with(&batch, &mut scratch, &mut out);
                assert_eq!(out.messages, reference.messages, "{}", codec.name());
                assert_eq!(out.codewords, reference.codewords, "{}", codec.name());
                assert_eq!(out.flagged, reference.flagged, "{}", codec.name());
                assert_eq!(out.corrected, reference.corrected, "{}", codec.name());
            }
        }
    }

    #[test]
    fn encode_into_reuses_buffers_bit_exactly() {
        let codec = BatchCodec::sec_ded(4);
        let mut buffer = BitSlice64::default();
        for (batch_size, seed) in [(130usize, 1u64), (7, 2), (64, 3)] {
            let messages: Vec<BitVec> = random_messages(16, batch_size, seed);
            let batch = BitSlice64::pack(&messages);
            codec.encode_batch_into(&batch, &mut buffer);
            assert_eq!(buffer, codec.encode_batch(&batch));
        }
    }

    #[test]
    fn secded_72_64_batch_corrects_singles_and_flags_doubles() {
        // The widest SEC-DED member: 72 lanes (beyond one u64 mask), 8
        // syndrome lanes. Messages are 64-bit, drawn from a seeded RNG.
        let codec = BatchCodec::sec_ded(6);
        assert_eq!((codec.n(), codec.k()), (72, 64));
        let mut rng = StdRng::seed_from_u64(0x7264);
        let messages: Vec<BitVec> = (0..130)
            .map(|_| BitVec::from_u64(64, rng.random::<u64>()))
            .collect();
        let clean = codec.encode_batch(&BitSlice64::pack(&messages));

        // Clean round trip.
        let decoded = codec.decode_batch(&clean);
        assert_eq!(decoded.flagged_count(), 0);
        assert_eq!(decoded.messages.unpack(), messages);

        // One error per word: corrected. Words 10 and 100 get a second
        // error: flagged.
        let mut received = clean.clone();
        for i in 0..130 {
            let pos = rng.random_range(0..72usize);
            received.set(i, pos, !received.get(i, pos));
            if i == 10 || i == 100 {
                let second = (pos + 1 + rng.random_range(0..70usize)) % 72;
                received.set(i, second, !received.get(i, second));
            }
        }
        let decoded = codec.decode_batch(&received);
        for (i, message) in messages.iter().enumerate() {
            if i == 10 || i == 100 {
                assert!(decoded.is_flagged(i), "word {i} must be flagged");
            } else {
                assert!(decoded.is_corrected(i), "word {i}");
                assert_eq!(decoded.messages.extract(i), *message, "word {i}");
            }
        }
        assert_eq!(decoded.flagged_count(), 2);
    }

    #[test]
    fn secded_batch_matches_scalar_for_whole_family() {
        for m in 3..=6 {
            let scalar = ColumnCode::sec_ded(m);
            let codec = BatchCodec::sec_ded(m);
            let mut rng = StdRng::seed_from_u64(m as u64);
            let k = scalar.k();
            let messages: Vec<BitVec> = (0..64)
                .map(|_| {
                    (0..k)
                        .map(|_| rng.random::<u64>() & 1 == 1)
                        .collect::<BitVec>()
                })
                .collect();
            let encoded = codec.encode_batch(&BitSlice64::pack(&messages));
            for (i, msg) in messages.iter().enumerate() {
                assert_eq!(encoded.extract(i), scalar.encode(msg), "m={m} word {i}");
            }
        }
    }

    #[test]
    fn shortened_hamming_3832_works_in_batch_form() {
        // Exercises 6 syndrome lanes and 38-bit words through the ColumnFlip
        // builder.
        let scalar = ecc::ColumnCode::shortened_38_32();
        let codec = BatchCodec::new(&scalar);
        let mut rng = StdRng::seed_from_u64(5);
        let messages: Vec<BitVec> = (0..64)
            .map(|_| BitVec::from_u64(32, rng.random::<u64>() & 0xFFFF_FFFF))
            .collect();
        let clean = codec.encode_batch(&BitSlice64::pack(&messages));
        let mut received = clean.clone();
        for i in 0..64 {
            let pos = rng.random_range(0..38usize);
            received.set(i, pos, !received.get(i, pos));
        }
        let decoded = codec.decode_batch(&received);
        for (i, m) in messages.iter().enumerate() {
            assert!(!decoded.is_flagged(i));
            assert_eq!(decoded.messages.extract(i), *m, "msg {i}");
        }
    }

    #[test]
    fn bch_codec_roundtrips_and_corrects_up_to_two_errors() {
        let scalar = Bch::bch_31_16();
        let codec = BatchCodec::bch();
        assert_eq!((codec.n(), codec.k()), (31, 16));
        assert!(codec.name().contains("BCH(31,16)"));
        let mut rng = StdRng::seed_from_u64(0x3116);
        let messages: Vec<BitVec> = (0..130)
            .map(|_| BitVec::from_u64(16, rng.random_range(0..1 << 16)))
            .collect();
        let clean = codec.encode_batch(&BitSlice64::pack(&messages));
        for (i, msg) in messages.iter().enumerate() {
            assert_eq!(clean.extract(i), scalar.encode(msg), "word {i}");
        }

        // Clean round trip: every limb short-circuits.
        let decoded = codec.decode_batch(&clean);
        assert_eq!(decoded.flagged_count(), 0);
        assert_eq!(decoded.corrected_count(), 0);
        assert_eq!(decoded.messages.unpack(), messages);

        // Word i gets (i % 3) errors: 0 clean, 1 single, 2 double — all
        // recovered; words 7 and 80 get a triple — flagged.
        let mut received = clean.clone();
        for i in 0..130 {
            let errors = if i == 7 || i == 80 { 3 } else { i % 3 };
            let mut hit = Vec::new();
            while hit.len() < errors {
                let pos = rng.random_range(0..31usize);
                if !hit.contains(&pos) {
                    hit.push(pos);
                    received.set(i, pos, !received.get(i, pos));
                }
            }
        }
        let decoded = codec.decode_batch(&received);
        for (i, message) in messages.iter().enumerate() {
            if i == 7 || i == 80 {
                assert!(decoded.is_flagged(i), "word {i} must be flagged");
            } else {
                assert!(!decoded.is_flagged(i), "word {i}");
                assert_eq!(decoded.is_corrected(i), i % 3 != 0, "word {i}");
                assert_eq!(decoded.messages.extract(i), *message, "word {i}");
            }
        }
        assert_eq!(decoded.flagged_count(), 2);
    }

    #[test]
    fn bch_scratch_reuse_is_bit_exact() {
        let codec = BatchCodec::bch();
        let mut scratch = BatchScratch::new();
        let mut out = BatchDecoded::empty();
        let mut rng = StdRng::seed_from_u64(0xFA11_BACC);
        for batch_size in [3usize, 64, 131] {
            let words: Vec<BitVec> = (0..batch_size)
                .map(|_| {
                    (0..31)
                        .map(|_| rng.random::<u64>() & 1 == 1)
                        .collect::<BitVec>()
                })
                .collect();
            let batch = BitSlice64::pack(&words);
            let reference = codec.decode_batch(&batch);
            codec.decode_batch_with(&batch, &mut scratch, &mut out);
            assert_eq!(out.messages, reference.messages);
            assert_eq!(out.codewords, reference.codewords);
            assert_eq!(out.flagged, reference.flagged);
            assert_eq!(out.corrected, reference.corrected);
        }
    }

    #[test]
    #[should_panic(expected = "with_sliced_algebraic")]
    fn algebraic_decoders_reject_the_plain_constructor() {
        let _ = BatchCodec::new(&Bch::bch_31_16());
    }

    #[test]
    #[should_panic(expected = "with_bit_flip")]
    fn iterative_decoders_reject_the_plain_constructor() {
        let _ = BatchCodec::new(&Ldpc::gallager_60_32());
    }

    #[test]
    fn sliced_bch_engine_matches_the_scalar_decoder() {
        // The sliced-syndrome engine (with the weight-1 column prefilter)
        // must agree with the scalar `Bch::decode` on every output word,
        // including all-dirty batches and beyond-capacity error weights —
        // for every registry member.
        let mut rng = StdRng::seed_from_u64(0x51_1CED);
        for spec in BchSpec::REGISTRY {
            let code = Bch::from_spec(spec);
            let sliced = BatchCodec::bch_spec(spec);
            let (n, k) = (code.n(), code.k());
            for batch_size in [1usize, 63, 64, 65, 130, 257] {
                let words: Vec<BitVec> = (0..batch_size)
                    .map(|i| {
                        let msg: BitVec = (0..k).map(|_| rng.random::<u64>() & 1 == 1).collect();
                        let mut w = code.encode(&msg);
                        for _ in 0..(i % 5) {
                            let pos = rng.random_range(0..n);
                            w.set(pos, !w.get(pos));
                        }
                        w
                    })
                    .collect();
                let decoded = sliced.decode_batch(&BitSlice64::pack(&words));
                for (i, word) in words.iter().enumerate() {
                    let label = format!("{spec:?} batch {batch_size} word {i}");
                    let scalar = code.decode(word);
                    assert_eq!(
                        decoded.is_flagged(i),
                        scalar.outcome.error_flag(),
                        "{label}"
                    );
                    assert_eq!(
                        decoded.is_corrected(i),
                        scalar.outcome.corrected(),
                        "{label}"
                    );
                    if let (Some(codeword), Some(message)) = (scalar.codeword, scalar.message) {
                        assert_eq!(decoded.codewords.extract(i), codeword, "{label}");
                        assert_eq!(decoded.messages.extract(i), message, "{label}");
                    } else {
                        // Flagged lanes keep the received word and a zero message.
                        assert_eq!(decoded.codewords.extract(i), *word, "{label}");
                        assert!(decoded.messages.extract(i).is_zero(), "{label}");
                    }
                }
            }
        }
    }

    #[test]
    fn bch_registry_codecs_correct_up_to_their_radius() {
        // BCH(63,51) recovers every ≤2-error word; BCH(63,45) every
        // ≤3-error word. Error positions are spread deterministically.
        for (codec, scalar, radius) in [
            (BatchCodec::bch_63_51(), Bch::bch_63_51(), 2usize),
            (BatchCodec::bch_63_45(), Bch::bch_63_45(), 3usize),
        ] {
            assert_eq!((codec.n(), codec.k()), (scalar.n(), scalar.k()));
            assert!(codec.name().contains(scalar.name()));
            let mut rng = StdRng::seed_from_u64(0x63_0000 + radius as u64);
            let messages: Vec<BitVec> = (0..130)
                .map(|_| {
                    (0..scalar.k())
                        .map(|_| rng.random::<u64>() & 1 == 1)
                        .collect()
                })
                .collect();
            let clean = codec.encode_batch(&BitSlice64::pack(&messages));
            for (i, msg) in messages.iter().enumerate() {
                assert_eq!(clean.extract(i), scalar.encode(msg), "word {i}");
            }
            let mut received = clean.clone();
            for i in 0..130 {
                let errors = i % (radius + 1);
                let mut hit = Vec::new();
                while hit.len() < errors {
                    let pos = rng.random_range(0..63usize);
                    if !hit.contains(&pos) {
                        hit.push(pos);
                        received.set(i, pos, !received.get(i, pos));
                    }
                }
            }
            let decoded = codec.decode_batch(&received);
            for (i, message) in messages.iter().enumerate() {
                assert!(!decoded.is_flagged(i), "{} word {i}", codec.name());
                assert_eq!(
                    decoded.is_corrected(i),
                    i % (radius + 1) != 0,
                    "{} word {i}",
                    codec.name()
                );
                assert_eq!(
                    decoded.messages.extract(i),
                    *message,
                    "{} word {i}",
                    codec.name()
                );
            }
        }
    }

    #[test]
    fn ldpc_codec_matches_the_scalar_decoder_bit_for_bit() {
        // The whole-limb bit-flip engine against the scalar synchronous
        // decoder: same messages, same flags, same corrected codewords —
        // over clean, single-error, double-error, and random-noise lanes,
        // at ragged batch sizes.
        let scalar = Ldpc::gallager_60_32();
        let codec = BatchCodec::ldpc();
        assert_eq!((codec.n(), codec.k()), (60, 32));
        let mut rng = StdRng::seed_from_u64(0x1D9C);
        for batch_size in [1usize, 63, 64, 65, 130, 257] {
            let words: Vec<BitVec> = (0..batch_size)
                .map(|i| {
                    let msg: BitVec = (0..32).map(|_| rng.random::<u64>() & 1 == 1).collect();
                    let mut w = scalar.encode(&msg);
                    if i % 7 == 6 {
                        // Dense noise lane: exercises non-convergence.
                        for p in 0..60 {
                            if rng.random::<u64>() & 1 == 1 {
                                w.set(p, !w.get(p));
                            }
                        }
                    } else {
                        for _ in 0..(i % 3) {
                            let pos = rng.random_range(0..60usize);
                            w.set(pos, !w.get(pos));
                        }
                    }
                    w
                })
                .collect();
            let batch = BitSlice64::pack(&words);
            let decoded = codec.decode_batch(&batch);
            for (i, w) in words.iter().enumerate() {
                let reference = scalar.decode(w);
                let label = format!("batch {batch_size} word {i}");
                match reference.outcome {
                    DecodeOutcome::DetectedUncorrectable => {
                        assert!(decoded.is_flagged(i), "{label}");
                        // Flagged lanes deliver the received word unchanged.
                        assert_eq!(decoded.codewords.extract(i), *w, "{label}");
                    }
                    DecodeOutcome::NoErrorDetected => {
                        assert!(!decoded.is_flagged(i), "{label}");
                        assert!(!decoded.is_corrected(i), "{label}");
                        assert_eq!(
                            Some(decoded.messages.extract(i)),
                            reference.message,
                            "{label}"
                        );
                    }
                    DecodeOutcome::Corrected { .. } => {
                        assert!(decoded.is_corrected(i), "{label}");
                        assert_eq!(
                            Some(decoded.codewords.extract(i)),
                            reference.codeword,
                            "{label}"
                        );
                        assert_eq!(
                            Some(decoded.messages.extract(i)),
                            reference.message,
                            "{label}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ldpc_scratch_reuse_is_bit_exact() {
        let codec = BatchCodec::ldpc();
        let mut scratch = BatchScratch::new();
        let mut out = BatchDecoded::empty();
        let mut rng = StdRng::seed_from_u64(0x1D9C_5C8A);
        for batch_size in [3usize, 64, 131] {
            let words: Vec<BitVec> = (0..batch_size)
                .map(|_| {
                    (0..60)
                        .map(|_| rng.random::<u64>() & 1 == 1)
                        .collect::<BitVec>()
                })
                .collect();
            let batch = BitSlice64::pack(&words);
            let reference = codec.decode_batch(&batch);
            codec.decode_batch_with(&batch, &mut scratch, &mut out);
            assert_eq!(out.messages, reference.messages);
            assert_eq!(out.codewords, reference.codewords);
            assert_eq!(out.flagged, reference.flagged);
            assert_eq!(out.corrected, reference.corrected);
        }
    }

    #[test]
    fn forced_kernels_are_bit_identical() {
        // Every kernel override must reproduce the reference scalar walk
        // word-for-word, on dense random noise and ragged batch sizes.
        let builders: [fn() -> BatchCodec; 4] = [
            BatchCodec::hamming74,
            || BatchCodec::sec_ded(6),
            || BatchCodec::repetition(2, 3),
            BatchCodec::wide_hamming_85_64,
        ];
        let mut rng = StdRng::seed_from_u64(0xF0CE);
        for build in builders {
            for batch_size in [1usize, 64, 65, 250] {
                let n = build().n();
                let words: Vec<BitVec> = (0..batch_size)
                    .map(|_| {
                        (0..n)
                            .map(|_| rng.random::<u64>() & 1 == 1)
                            .collect::<BitVec>()
                    })
                    .collect();
                let batch = BitSlice64::pack(&words);
                let reference = build()
                    .with_kernel(KernelKind::ScalarU64)
                    .decode_batch(&batch);
                for kind in [
                    KernelKind::Auto,
                    KernelKind::U128,
                    KernelKind::Wide256,
                    KernelKind::Direct,
                ] {
                    let codec = build().with_kernel(kind);
                    let got = codec.decode_batch(&batch);
                    let label = format!("{} {kind:?} batch {batch_size}", codec.name());
                    assert_eq!(got.messages, reference.messages, "{label}");
                    assert_eq!(got.codewords, reference.codewords, "{label}");
                    assert_eq!(got.flagged, reference.flagged, "{label}");
                    assert_eq!(got.corrected, reference.corrected, "{label}");
                }
            }
        }
    }

    #[test]
    fn kernel_dispatch_names_follow_the_engine_and_override() {
        // r ≤ 4 → direct4; 5 ≤ r ≤ 8 → direct8; r > 8 → width-dispatched
        // walk; algebraic engines carry fixed names. Auto is re-pinned
        // explicitly so the assertions hold even when the CI dispatch
        // matrix exports SFQ_BATCH_KERNEL (which seeds the default).
        let auto = |codec: BatchCodec| codec.with_kernel(KernelKind::Auto);
        assert_eq!(
            auto(BatchCodec::hamming74()).selected_kernel_name(4096),
            "direct4"
        );
        assert_eq!(
            auto(BatchCodec::sec_ded(6)).selected_kernel_name(4096),
            "direct8"
        );
        let wide = auto(BatchCodec::wide_hamming_85_64()).selected_kernel_name(4096);
        assert!(wide == "walk-w256" || wide == "walk-u128", "got {wide}");
        assert_eq!(
            auto(BatchCodec::wide_hamming_85_64()).selected_kernel_name(64),
            "walk-u64"
        );
        assert_eq!(BatchCodec::bch().selected_kernel_name(4096), "sliced");
        assert_eq!(BatchCodec::bch_63_51().selected_kernel_name(4096), "sliced");
        assert_eq!(BatchCodec::ldpc().selected_kernel_name(4096), "bit-flip");
        assert_eq!(
            BatchCodec::hamming74()
                .with_kernel(KernelKind::ScalarU64)
                .selected_kernel_name(4096),
            "walk-u64"
        );
    }

    #[test]
    fn wide_hamming_85_64_roundtrips_beyond_the_old_redundancy_limit() {
        // n - k = 21 > 20: impossible under the old syndrome-action table
        // (its 2^21-entry build was rejected); the column-matching engine
        // compiles 85 entries and decodes exactly like the scalar path.
        let scalar = ColumnCode::wide_85_64();
        let codec = BatchCodec::wide_hamming_85_64();
        assert_eq!((codec.n(), codec.k()), (85, 64));
        let mut rng = StdRng::seed_from_u64(0x8564);
        let messages: Vec<BitVec> = (0..100)
            .map(|_| BitVec::from_u64(64, rng.random::<u64>()))
            .collect();
        let clean = codec.encode_batch(&BitSlice64::pack(&messages));
        let decoded = codec.decode_batch(&clean);
        assert_eq!(decoded.flagged_count(), 0);
        assert_eq!(decoded.messages.unpack(), messages);

        // Single errors are corrected; a parity-pair double is flagged by
        // both paths.
        let mut received = clean.clone();
        for i in 0..100 {
            let pos = rng.random_range(0..85usize);
            received.set(i, pos, !received.get(i, pos));
        }
        let decoded = codec.decode_batch(&received);
        for (i, m) in messages.iter().enumerate() {
            let scalar_decoded = scalar.decode(&received.extract(i));
            assert_eq!(Some(decoded.messages.extract(i)), scalar_decoded.message);
            assert_eq!(decoded.messages.extract(i), *m, "msg {i}");
        }
    }
}
