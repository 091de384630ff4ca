//! Column codes: every code in this crate whose hard decoder is "syndrome
//! equals column `j` of `H` → flip bit `j`; any other nonzero syndrome →
//! flag".
//!
//! One type, [`ColumnCode`], covers the paper's Hamming(7,4) code and the
//! extended Hamming(8,4) code of Eq. (1), the general `(2^r − 1, 2^r − 1 − r)`
//! Hamming family, the shortened (38,32) code of the prior-art SFQ encoder by
//! Peng et al. (reference 14 of the paper), a parameterized shortened family
//! with replicated parity, and the SEC-DED family that scales the (8,4) code
//! up to (72,64) (its constructor lives in [`crate::codes::sec_ded`]). The
//! members differ only in their matrices, so each named constructor builds
//! its code's exact `G` and `H` and the decoder is shared.
//!
//! # Why one rule decodes them all
//!
//! A single error at position `j` has syndrome `H[:,j]`, so flipping the bit
//! whose column equals the syndrome corrects every single error as long as
//! the columns are nonzero and pairwise distinct — which construction
//! asserts (it is also what `d_min ≥ 3` means). For the perfect Hamming
//! codes every nonzero syndrome is a column and nothing is ever flagged.
//! When every codeword has even weight (the all-ones word lies in the row
//! space of `H`, as for Hamming(8,4) and every SEC-DED member), some
//! combination of the rows of `H` is odd on every column, hence even on the
//! XOR of any two columns: a double error never reproduces a column and is
//! flagged — the SEC-DED property, with no separate policy.

use crate::decoder::{Decoded, SyndromeClass};
use crate::{generator_right_inverse, validate_code_matrices, BlockCode, HardDecoder};
use gf2::{BitMat, BitVec};
use std::collections::HashMap;

/// The generator matrix of the extended Hamming(8,4) code, exactly Eq. (1) of
/// the paper (rows are message bits m1..m4, columns are codeword bits c1..c8).
const G_HAMMING84_ROWS: [&str; 4] = ["11100001", "10011001", "01010101", "11010010"];

/// A binary linear code decoded by column matching against its parity-check
/// matrix (see the module docs). Built only through the named constructors,
/// each of which reproduces its code's generator and parity-check matrices
/// bit for bit.
#[derive(Debug, Clone)]
pub struct ColumnCode {
    name: String,
    g: BitMat,
    h: BitMat,
    /// Column value of `H` (syndrome as integer) → codeword position.
    column_of: HashMap<u64, usize>,
    /// Cached `(pivots, transform)` of [`generator_right_inverse`]: the
    /// decoder extracts a message per received word, so the Gaussian
    /// elimination runs once at construction.
    extractor: (Vec<usize>, BitMat),
}

impl ColumnCode {
    /// The shared constructor: validates `G`/`H` and indexes the columns.
    ///
    /// # Panics
    /// Panics if the matrices are inconsistent, if `n − k > 64`, or if a
    /// column of `H` is zero or repeats another — the column rule would then
    /// miss or mis-locate a single error.
    pub(super) fn from_matrices(name: String, g: BitMat, h: BitMat) -> Self {
        validate_code_matrices(&g, &h);
        assert!(
            h.rows() <= 64,
            "{name}: syndromes are u64 values, n - k <= 64"
        );
        let mut column_of = HashMap::with_capacity(h.cols());
        for j in 0..h.cols() {
            let value = h.col(j).to_u64();
            assert_ne!(value, 0, "{name}: column {j} of H is zero");
            if let Some(i) = column_of.insert(value, j) {
                panic!("{name}: columns {i} and {j} of H coincide");
            }
        }
        let extractor = generator_right_inverse(&g);
        ColumnCode {
            name,
            g,
            h,
            column_of,
            extractor,
        }
    }

    /// The Hamming(7,4) single-error-correcting code, `d_min = 3`: the
    /// paper's Eq. (1) generator without the overall-parity column `c8`, so
    /// the encoder computes Eq. (3) without `c8`:
    /// `c1 = m1⊕m2⊕m4`, `c2 = m1⊕m3⊕m4`, `c3 = m1`, `c4 = m2⊕m3⊕m4`,
    /// `c5 = m2`, `c6 = m3`, `c7 = m4`. Every syndrome is a column, so every
    /// nonzero syndrome is corrected — the "worst case" policy of Table I.
    #[must_use]
    pub fn hamming74() -> Self {
        let g = BitMat::from_str_rows(&G_HAMMING84_ROWS).select_cols(&[0, 1, 2, 3, 4, 5, 6]);
        let h = g.null_space();
        Self::from_matrices("Hamming(7,4)".to_string(), g, h)
    }

    /// The extended Hamming(8,4) code of Eq. (1), `d_min = 4` — the paper's
    /// best-performing encoder under process parameter variations. Single
    /// errors are corrected and double errors raise the error flag of Fig. 1.
    #[must_use]
    pub fn hamming84() -> Self {
        let g = BitMat::from_str_rows(&G_HAMMING84_ROWS);
        let h = g.null_space();
        Self::from_matrices("Hamming(8,4)".to_string(), g, h)
    }

    /// The textbook Hamming code with `r` parity bits,
    /// `(2^r − 1, 2^r − 1 − r, 3)`: column `j` of `H` is `j + 1` in binary,
    /// and `G` spans its null space.
    ///
    /// # Panics
    /// Panics if `r` is outside `2..=10`.
    #[must_use]
    pub fn hamming(r: usize) -> Self {
        assert!(
            (2..=10).contains(&r),
            "Hamming code redundancy must be in 2..=10"
        );
        let n = (1usize << r) - 1;
        let mut h = BitMat::zeros(r, n);
        for col in 0..n {
            for row in 0..r {
                h.set(row, col, ((col + 1) >> row) & 1 == 1);
            }
        }
        let g = h.null_space();
        Self::from_matrices(format!("Hamming({n},{})", n - r), g, h)
    }

    /// The (38,32) code of the prior-art SFQ encoder (Peng et al., reference
    /// 14 of the paper): the systematic Hamming(63,57) code shortened to its
    /// first 32 information bits, keeping all six parity bits.
    #[must_use]
    pub fn shortened_38_32() -> Self {
        let (sys, _) = Self::hamming(6).g.to_systematic();
        let keep_cols: Vec<usize> = (0..32).chain(57..63).collect();
        let g =
            BitMat::from_rows(sys.iter_rows().take(32).cloned().collect()).select_cols(&keep_cols);
        let h = g.null_space();
        Self::from_matrices("Shortened Hamming(38,32)".to_string(), g, h)
    }

    /// A systematic shortened Hamming code with `k` data bits and
    /// `r = base_r × copies` check bits. Data position `i` gets the `i`-th
    /// non-power-of-two column code `c_i ∈ {3, 5, 6, 7, 9, …}` of the base
    /// Hamming code with `base_r` parity bits, replicated across `copies`
    /// independent parity fields (`v_i = c_i | c_i << base_r | …`):
    ///
    /// ```text
    /// [ d_0 … d_{k-1} | p_0 … p_{r-1} ]      p_t = ⊕ { d_i : bit t of v_i is 1 }
    /// ```
    ///
    /// The redundancy is a free parameter, deliberately not tied to the
    /// information-theoretic minimum (see [`ColumnCode::wide_85_64`]).
    ///
    /// # Panics
    /// Panics if the parameters are out of range (`base_r < 2`, `copies <
    /// 1`, `base_r × copies > 63`, `k = 0`), the base code is too short
    /// (`k > 2^base_r − base_r − 1`), or `k` is too small to give every base
    /// check bit a data source (a constant-zero parity bit is not worth
    /// building a circuit for).
    #[must_use]
    pub fn shortened(k: usize, base_r: usize, copies: usize) -> Self {
        let (g, h) = Self::shortened_matrices(k, base_r, copies);
        Self::from_matrices(format!("Shortened Hamming({},{k})", g.cols()), g, h)
    }

    /// `G` and `H` of [`ColumnCode::shortened`], unvalidated, for the
    /// constructors that extend them.
    pub(super) fn shortened_matrices(k: usize, base_r: usize, copies: usize) -> (BitMat, BitMat) {
        assert!(base_r >= 2, "base check-bit count must be at least 2");
        assert!(copies >= 1, "at least one parity copy");
        let r = base_r * copies;
        assert!(r <= 63, "total check-bit count must be at most 63");
        assert!(k >= 1, "at least one data bit");
        let base_codes: Vec<u64> = (3..(1u64 << base_r))
            .filter(|v| !v.is_power_of_two())
            .take(k)
            .collect();
        assert_eq!(
            base_codes.len(),
            k,
            "base Hamming({}, {}) too short for k={k}",
            (1u64 << base_r) - 1,
            (1u64 << base_r) - 1 - base_r as u64,
        );
        for t in 0..base_r {
            assert!(
                base_codes.iter().any(|c| (c >> t) & 1 == 1),
                "column codes leave base check bit {t} unused (k={k} too small \
                 for base_r={base_r})"
            );
        }
        // Systematic generator [ I_k | P ] and parity check [ Pᵀ | I_r ].
        let n = k + r;
        let mut g = BitMat::zeros(k, n);
        let mut h = BitMat::zeros(r, n);
        for (i, &c) in base_codes.iter().enumerate() {
            let v = (0..copies).fold(0u64, |v, j| v | (c << (j * base_r)));
            g.set(i, i, true);
            for t in (0..r).filter(|t| (v >> t) & 1 == 1) {
                g.set(i, k + t, true);
                h.set(t, i, true);
            }
        }
        for t in 0..r {
            h.set(t, k + t, true);
        }
        (g, h)
    }

    /// The wide demonstration member: 64 data bits and 3 × 7 = 21 check bits
    /// — far beyond the 8 a (72,64) SEC-DED code needs. It is the catalog's
    /// proof that the batch engine handles redundancies `n − k > 20`, where
    /// a `2^(n-k)`-entry syndrome table could never be built.
    #[must_use]
    pub fn wide_85_64() -> Self {
        Self::shortened(64, 7, 3)
    }

    /// The message of a codeword, through the cached right inverse of `G`.
    fn message(&self, codeword: &BitVec) -> BitVec {
        let (pivots, transform) = &self.extractor;
        let mut message = BitVec::zeros(self.k());
        for (i, &p) in pivots.iter().enumerate() {
            if codeword.get(p) {
                message.xor_assign(transform.row(i));
            }
        }
        message
    }

    /// The distance the structure guarantees: 3 from nonzero, distinct
    /// columns, and 4 when every codeword has even weight (the all-ones word
    /// lies in the row space of `H`, so an odd-weight word is never a
    /// codeword). Every member built here with `k ≥ 3` attains it — three
    /// columns of `H` XOR to zero, or four for the even-weight codes — which
    /// the unit tests check against enumeration.
    fn structural_distance(&self) -> usize {
        let all_ones = BitMat::from_rows(vec![BitVec::ones(self.n())]);
        if self.h.vconcat(&all_ones).rank() == self.h.rank() {
            4
        } else {
            3
        }
    }
}

impl BlockCode for ColumnCode {
    fn name(&self) -> &str {
        &self.name
    }
    fn n(&self) -> usize {
        self.g.cols()
    }
    fn k(&self) -> usize {
        self.g.rows()
    }
    fn generator(&self) -> &BitMat {
        &self.g
    }
    fn parity_check(&self) -> &BitMat {
        &self.h
    }
    /// Exhaustive enumeration for `k ≤ 24`; beyond that (2^32 codewords and
    /// up) the structural distance, which the unit tests check against
    /// enumeration on every member small enough to enumerate.
    fn min_distance(&self) -> usize {
        let k = self.k();
        if k > 24 {
            return self.structural_distance();
        }
        (1u64..(1 << k))
            .map(|m| self.encode(&BitVec::from_u64(k, m)).weight())
            .min()
            .expect("k >= 1")
    }
    fn message_of(&self, codeword: &BitVec) -> Option<BitVec> {
        self.is_codeword(codeword).then(|| self.message(codeword))
    }
}

impl HardDecoder for ColumnCode {
    /// Zero syndrome → accept; syndrome equal to column `j` of `H` → flip
    /// position `j`; any other syndrome → detected but uncorrectable.
    fn decode(&self, received: &BitVec) -> Decoded {
        assert_eq!(received.len(), self.n(), "received word length mismatch");
        let syndrome = self.syndrome(received).to_u64();
        if syndrome == 0 {
            return Decoded::clean(received.clone(), self.message(received));
        }
        match self.column_of.get(&syndrome) {
            Some(&pos) => {
                let mut corrected = received.clone();
                corrected.flip(pos);
                let message = self.message(&corrected);
                Decoded::corrected(corrected, message, 1)
            }
            None => Decoded::detected(),
        }
    }

    /// The decision rule above *is* column matching against `H`, so batch
    /// engines compile it from the columns without enumerating syndromes.
    fn syndrome_class(&self) -> SyndromeClass {
        SyndromeClass::ColumnFlip
    }
}

/// Table-driven checks shared by the unit tests of every [`ColumnCode`]
/// constructor (this module's and [`crate::codes::sec_ded`]'s).
#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::weight::WeightDistribution;
    use crate::DecodeOutcome;

    /// All `2^k` messages for `k ≤ 4`, otherwise a fixed pseudo-random
    /// sample of `count`.
    pub(in crate::codes) fn messages(k: usize, count: usize) -> Vec<BitVec> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        if k <= 4 {
            return (0u64..(1 << k)).map(|m| BitVec::from_u64(k, m)).collect();
        }
        let mut rng = StdRng::seed_from_u64(0x9E37_79B9_7F4A_7C15);
        (0..count)
            .map(|_| (0..k).map(|_| rng.random::<u64>() & 1 == 1).collect())
            .collect()
    }

    /// Dimensions, name, matrix shapes and the column-flip class.
    pub(in crate::codes) fn assert_parameters(code: &ColumnCode, n: usize, k: usize, name: &str) {
        assert_eq!((code.n(), code.k(), code.name()), (n, k, name));
        assert_eq!((code.generator().rows(), code.generator().cols()), (k, n));
        assert_eq!(code.parity_check().rows(), n - k, "{name}: check bits");
        assert_eq!(code.syndrome_class(), SyndromeClass::ColumnFlip);
    }

    /// `message_of` inverts `encode` (and the message is the first `k`
    /// positions of a systematic code); a non-codeword yields no message.
    pub(in crate::codes) fn assert_round_trips(code: &ColumnCode, systematic: bool) {
        for msg in messages(code.k(), 8) {
            let cw = code.encode(&msg);
            if systematic {
                assert_eq!(cw.slice(0..code.k()), msg, "{} is systematic", code.name());
            }
            assert_eq!(code.message_of(&cw), Some(msg.clone()), "{}", code.name());
            let mut bad = cw;
            bad.flip(0);
            assert_eq!(code.message_of(&bad), None, "{}", code.name());
        }
    }

    pub(in crate::codes) fn assert_corrects_every_single_error(code: &ColumnCode) {
        for msg in messages(code.k(), 4) {
            let cw = code.encode(&msg);
            for pos in 0..code.n() {
                let mut r = cw.clone();
                r.flip(pos);
                let d = code.decode(&r);
                assert!(d.message_is(&msg), "{} msg {msg:?} pos {pos}", code.name());
                assert_eq!(d.outcome, DecodeOutcome::Corrected { bits_flipped: 1 });
                assert_eq!(d.codeword, Some(cw.clone()), "{} pos {pos}", code.name());
            }
        }
    }

    pub(in crate::codes) fn assert_flags_every_double_error(code: &ColumnCode) {
        for msg in messages(code.k(), 2) {
            let cw = code.encode(&msg);
            for a in 0..code.n() {
                for b in (a + 1)..code.n() {
                    let mut r = cw.clone();
                    r.flip(a);
                    r.flip(b);
                    assert_eq!(
                        code.decode(&r).outcome,
                        DecodeOutcome::DetectedUncorrectable,
                        "{} msg {msg:?} pattern ({a},{b})",
                        code.name()
                    );
                }
            }
        }
    }

    /// The codebook's weight histogram, counted directly and through
    /// [`WeightDistribution`].
    pub(in crate::codes) fn assert_weight_distribution(code: &ColumnCode, expected: &[u64]) {
        let mut hist = vec![0u64; code.n() + 1];
        for (_, cw) in code.codebook() {
            hist[cw.weight()] += 1;
        }
        assert_eq!(hist, expected, "{}", code.name());
        assert_eq!(WeightDistribution::of_code(code).counts, expected);
    }

    /// Every constructor of this module with its exact distance.
    fn catalog() -> Vec<(ColumnCode, usize)> {
        let mut codes = vec![
            (ColumnCode::hamming74(), 3),
            (ColumnCode::hamming84(), 4),
            (ColumnCode::shortened_38_32(), 3),
            (ColumnCode::shortened(4, 3, 1), 3),
            (ColumnCode::shortened(8, 4, 1), 3),
            (ColumnCode::shortened(32, 6, 2), 3),
            (ColumnCode::wide_85_64(), 3),
        ];
        codes.extend((2..=5).map(|r| (ColumnCode::hamming(r), 3)));
        codes
    }

    #[test]
    fn hamming84_matches_paper_equations() {
        let code = ColumnCode::hamming84();
        for m in 0u64..16 {
            let msg = BitVec::from_u64(4, m);
            let cw = code.encode(&msg);
            let (m1, m2, m3, m4) = (msg.get(0), msg.get(1), msg.get(2), msg.get(3));
            // Eq. (3) of the paper.
            assert_eq!(cw.get(0), m1 ^ m2 ^ m4, "c1 mismatch for m={m:04b}");
            assert_eq!(cw.get(1), m1 ^ m3 ^ m4, "c2 mismatch");
            assert_eq!(cw.get(2), m1, "c3 mismatch");
            assert_eq!(cw.get(3), m2 ^ m3 ^ m4, "c4 mismatch");
            assert_eq!(cw.get(4), m2, "c5 mismatch");
            assert_eq!(cw.get(5), m3, "c6 mismatch");
            assert_eq!(cw.get(6), m4, "c7 mismatch");
            assert_eq!(cw.get(7), m1 ^ m2 ^ m3, "c8 mismatch");
        }
    }

    #[test]
    fn fig3_stimulus_message_1011_gives_01100110() {
        let code = ColumnCode::hamming84();
        let cw = code.encode(&BitVec::from_str01("1011"));
        assert_eq!(cw.to_string01(), "01100110");
    }

    #[test]
    fn hamming74_is_hamming84_without_c8() {
        let (h74, h84) = (ColumnCode::hamming74(), ColumnCode::hamming84());
        for m in 0u64..16 {
            let msg = BitVec::from_u64(4, m);
            assert_eq!(h74.encode(&msg), h84.encode(&msg).slice(0..7));
        }
    }

    #[test]
    fn minimum_distances() {
        for (code, d) in catalog() {
            assert_eq!(code.min_distance(), d, "{}", code.name());
            // The structural value agrees with enumeration wherever the
            // codebook is small enough to enumerate.
            if (3..=16).contains(&code.k()) {
                assert_eq!(code.structural_distance(), d, "{}", code.name());
            }
        }
    }

    #[test]
    fn hamming74_corrects_every_single_error() {
        assert_corrects_every_single_error(&ColumnCode::hamming74());
    }

    #[test]
    fn hamming84_corrects_every_single_error() {
        assert_corrects_every_single_error(&ColumnCode::hamming84());
    }

    #[test]
    fn hamming84_detects_every_double_error() {
        assert_flags_every_double_error(&ColumnCode::hamming84());
    }

    #[test]
    fn hamming74_miscorrects_some_double_errors() {
        // The perfect (7,4) code cannot distinguish double errors from single
        // errors; verify the decoder indeed miscorrects at least one pattern
        // (the "worst case" column of Table I).
        let code = ColumnCode::hamming74();
        let msg = BitVec::from_str01("1011");
        let mut r = code.encode(&msg);
        r.flip(0);
        r.flip(1);
        let d = code.decode(&r);
        assert!(d.message.is_some());
        assert!(!d.message_is(&msg), "expected a miscorrection");
    }

    #[test]
    fn hamming84_weight_distribution_is_self_dual() {
        // Extended Hamming(8,4): 1 word of weight 0, 14 of weight 4, 1 of weight 8.
        assert_weight_distribution(&ColumnCode::hamming84(), &[1, 0, 0, 0, 14, 0, 0, 0, 1]);
    }

    #[test]
    fn hamming74_weight_distribution() {
        // (7,4): weights 0,3,4,7 with multiplicities 1,7,7,1.
        assert_weight_distribution(&ColumnCode::hamming74(), &[1, 0, 0, 7, 7, 0, 0, 1]);
    }

    #[test]
    fn general_hamming_family_parameters() {
        for r in 2..=5 {
            let (n, code) = ((1 << r) - 1, ColumnCode::hamming(r));
            assert_parameters(&code, n, n - r, &format!("Hamming({n},{})", n - r));
            assert_round_trips(&code, false);
            assert_eq!(code.min_distance(), 3, "r={r}");
        }
    }

    #[test]
    fn general_hamming_corrects_single_errors() {
        for r in 2..=5 {
            assert_corrects_every_single_error(&ColumnCode::hamming(r));
        }
    }

    #[test]
    fn shortened_3832_parameters_match_reference_14() {
        let code = ColumnCode::shortened_38_32();
        assert_parameters(&code, 38, 32, "Shortened Hamming(38,32)");
        assert_round_trips(&code, true);
    }

    #[test]
    fn shortened_3832_corrects_single_errors() {
        assert_corrects_every_single_error(&ColumnCode::shortened_38_32());
    }

    #[test]
    fn shortened_family_parameters_and_roundtrip() {
        for (k, base_r, copies) in [(4usize, 3usize, 1usize), (8, 4, 1), (32, 6, 2), (64, 7, 3)] {
            let n = k + base_r * copies;
            let code = ColumnCode::shortened(k, base_r, copies);
            assert_parameters(&code, n, k, &format!("Shortened Hamming({n},{k})"));
            assert_round_trips(&code, true);
            assert_corrects_every_single_error(&code);
        }
    }

    #[test]
    fn wide_85_64_corrects_singles_and_flags_non_column_syndromes() {
        let code = ColumnCode::wide_85_64();
        assert_parameters(&code, 85, 64, "Shortened Hamming(85,64)");
        assert_corrects_every_single_error(&code);
        // Two flipped parity bits XOR to a two-bit syndrome confined to one
        // parity field; every data column repeats its base code across all
        // three fields, so the syndrome matches no column of H — detected.
        let mut r = code.encode(&BitVec::from_u64(64, 0xDEAD_BEEF_0123_4567));
        r.flip(64 + 20);
        r.flip(64 + 19);
        assert_eq!(
            code.decode(&r).outcome,
            DecodeOutcome::DetectedUncorrectable
        );
    }

    #[test]
    fn wide_85_64_has_distinct_nonzero_columns() {
        let code = ColumnCode::wide_85_64();
        assert_eq!(code.min_distance(), 3);
        // The structural weight-3 codeword: data codes 3 ^ 5 = 6.
        let mut msg = BitVec::zeros(64);
        (0..3).for_each(|i| msg.set(i, true));
        assert_eq!(code.encode(&msg).weight(), 3);
    }

    #[test]
    fn shortened_family_min_distance_is_exact_below_three_data_bits() {
        // k ≥ 3: the structural weight-3 codeword exists regardless of the
        // replication factor.
        assert_eq!(ColumnCode::shortened(3, 3, 2).min_distance(), 3);
        // k = 2, doubled parity: rows have weight 1 + 2·2 = 5 and the pair
        // sums to weight 2 + 2·2 = 6, so d_min is 5, not the generic 3.
        assert_eq!(ColumnCode::shortened(2, 3, 2).min_distance(), 5);
        assert_eq!(ColumnCode::shortened(2, 3, 1).min_distance(), 3);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn shortened_family_rejects_overlong_k() {
        let _ = ColumnCode::shortened(5, 3, 1); // (7,4) base has only 4 data columns
    }

    #[test]
    #[should_panic(expected = "unused")]
    fn shortened_family_rejects_unused_check_bits() {
        // k = 1 uses only column code 3 = 0b011, leaving base check bit 2
        // with no data source — a constant-zero parity bit.
        let _ = ColumnCode::shortened(1, 3, 1);
    }

    #[test]
    fn shortened_3832_has_no_low_weight_codewords() {
        // d_min ≥ 3 for every constructor: no column of H is zero and no two
        // columns are equal (construction asserts it; this re-checks it).
        for (code, _) in catalog() {
            let h = code.parity_check();
            let cols: Vec<u64> = (0..code.n()).map(|c| h.col(c).to_u64()).collect();
            for (i, &ci) in cols.iter().enumerate() {
                assert_ne!(ci, 0, "{}: column {i} of H is zero", code.name());
                for (j, &cj) in cols.iter().enumerate().skip(i + 1) {
                    assert_ne!(ci, cj, "{}: columns {i} and {j} coincide", code.name());
                }
            }
        }
    }

    #[test]
    fn construction_rejects_a_zero_or_repeated_column() {
        let panic_message = |g: &[&str], h: &[&str]| {
            let (g, h) = (BitMat::from_str_rows(g), BitMat::from_str_rows(h));
            let result = std::panic::catch_unwind(|| ColumnCode::from_matrices("t".into(), g, h));
            *result.unwrap_err().downcast::<String>().unwrap()
        };
        // Position 3 of this (4,2) code is checked by no row of H.
        let zero = panic_message(&["1110", "0001"], &["1100", "1010"]);
        assert!(zero.contains("column 3 of H is zero"), "{zero}");
        // Columns 0 and 1 of this H coincide.
        let repeated = panic_message(&["1100", "0011"], &["1100", "0011"]);
        assert!(
            repeated.contains("columns 0 and 1 of H coincide"),
            "{repeated}"
        );
    }
}
