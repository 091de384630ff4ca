//! Parameterized SEC-DED (single-error-correcting, double-error-detecting)
//! codes: shortened *extended* Hamming codes for power-of-two data widths.
//!
//! The paper's extended Hamming(8,4) code is the smallest member of a family
//! that real superconducting memory and link deployments use at much wider
//! words — most prominently the (72,64) code protecting 64-bit words with
//! eight check bits. Every member is a [`ColumnCode`], so the shared column
//! rule decodes it; this module adds the constructor.
//!
//! [`ColumnCode::sec_ded`]`(m)` has `k = 2^m` data bits:
//!
//! | `m` | code      | check bits |
//! |-----|-----------|------------|
//! | 2   | (8,4)     | 4          |
//! | 3   | (13,8)    | 5          |
//! | 4   | (22,16)   | 6          |
//! | 5   | (39,32)   | 7          |
//! | 6   | (72,64)   | 8          |
//!
//! It is the shortened Hamming code with `m + 1` check bits
//! ([`ColumnCode::shortened`]`(2^m, m + 1, 1)`) extended by an overall parity
//! bit: data bit `i` gets the `i`-th non-power-of-two column code
//! `v_i ∈ {3, 5, 6, 7, 9, …}` and the layout is systematic,
//!
//! ```text
//! [ d_0 … d_{k-1} | p_0 … p_{r-1} | q ]
//!   p_t = ⊕ { d_i : bit t of v_i is 1 }       (inner Hamming parity)
//!   q   = ⊕ all other n−1 codeword bits       (overall parity)
//! ```
//!
//! with `H` = the inner rows plus an all-ones row. The hard decision depends
//! only on the `(n−k)`-bit syndrome (≤ 256 values at (72,64)), so the
//! `sfq-batch` engine compiles it into an exact syndrome-action table.

use crate::ColumnCode;
use gf2::{BitMat, BitVec};

/// Smallest supported SEC-DED data-width exponent (`k = 4`, the paper's word
/// size).
pub const SECDED_MIN_M: usize = 2;
/// Largest supported SEC-DED data-width exponent (`k = 64`, the (72,64)
/// code).
pub const SECDED_MAX_M: usize = 6;

impl ColumnCode {
    /// The SEC-DED member with `k = 2^m` data bits: the shortened Hamming
    /// code with `m + 1` check bits plus an overall parity bit (see the
    /// module docs for the family table).
    ///
    /// # Panics
    /// Panics if `m` is outside [`SECDED_MIN_M`]`..=`[`SECDED_MAX_M`].
    #[must_use]
    pub fn sec_ded(m: usize) -> Self {
        assert!(
            (SECDED_MIN_M..=SECDED_MAX_M).contains(&m),
            "SEC-DED data-width exponent must be in {SECDED_MIN_M}..={SECDED_MAX_M} (got {m})"
        );
        let (inner_g, inner_h) = Self::shortened_matrices(1 << m, m + 1, 1);
        let (k, n) = (inner_g.rows(), inner_g.cols() + 1);
        // The overall parity bit keeps every row (hence every codeword) even.
        let q: Vec<BitVec> = inner_g
            .iter_rows()
            .map(|row| BitVec::from_bits(&[row.weight() % 2 == 1]))
            .collect();
        let g = inner_g.hconcat(&BitMat::from_rows(q));
        let h = inner_h
            .hconcat(&BitMat::zeros(n - k - 1, 1))
            .vconcat(&BitMat::from_rows(vec![BitVec::ones(n)]));
        Self::from_matrices(format!("SEC-DED({n},{k})"), g, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::hamming::tests::{
        assert_corrects_every_single_error, assert_flags_every_double_error, assert_parameters,
        assert_round_trips, assert_weight_distribution, messages,
    };
    use crate::BlockCode;

    #[test]
    fn family_parameters_match_the_table() {
        let expected = [(2, 8, 4), (3, 13, 8), (4, 22, 16), (5, 39, 32), (6, 72, 64)];
        for (m, n, k) in expected {
            let code = ColumnCode::sec_ded(m);
            assert_parameters(&code, n, k, &format!("SEC-DED({n},{k})"));
            assert_eq!(n - k, m + 2, "check bits");
        }
    }

    #[test]
    fn code_is_systematic() {
        for m in SECDED_MIN_M..=SECDED_MAX_M {
            assert_round_trips(&ColumnCode::sec_ded(m), true);
        }
    }

    #[test]
    fn every_single_error_is_corrected() {
        for m in SECDED_MIN_M..=SECDED_MAX_M {
            assert_corrects_every_single_error(&ColumnCode::sec_ded(m));
        }
    }

    #[test]
    fn every_double_error_is_detected() {
        for m in SECDED_MIN_M..=SECDED_MAX_M {
            assert_flags_every_double_error(&ColumnCode::sec_ded(m));
        }
    }

    #[test]
    fn minimum_distance_is_structurally_four() {
        for m in SECDED_MIN_M..=SECDED_MAX_M {
            let code = ColumnCode::sec_ded(m);
            let h = code.parity_check();
            // Weight 3: any two columns XOR to an even-overall value, every
            // column is odd-overall, so the XOR matches no third column.
            let overall_bit = 1u64 << (h.rows() - 1);
            for j in 0..code.n() {
                assert_ne!(
                    h.col(j).to_u64() & overall_bit,
                    0,
                    "m={m}: column {j} even overall"
                );
            }
            assert_eq!(code.min_distance(), 4);
            // A weight-4 codeword exists: encode a weight-2 message whose two
            // column codes XOR into two parity positions. Data codes 3 and 5
            // (bits 0+1 and 0+2) XOR to 6 = parity bits 1 and 2.
            let mut msg = BitVec::zeros(code.k());
            msg.set(0, true); // column code 3
            msg.set(1, true); // column code 5
            assert_eq!(code.encode(&msg).weight(), 4, "m={m}");
        }
    }

    #[test]
    fn smallest_member_matches_extended_hamming_84_capability() {
        // Both are (8,4) d = 4 self-dual codes with the same weight
        // distribution, in different coordinates.
        let (secded, h84) = (ColumnCode::sec_ded(2), ColumnCode::hamming84());
        assert_eq!((secded.n(), secded.k()), (h84.n(), h84.k()));
        assert_eq!(secded.min_distance(), h84.min_distance());
        for code in [&secded, &h84] {
            assert_weight_distribution(code, &[1, 0, 0, 0, 14, 0, 0, 0, 1]);
        }
    }

    #[test]
    fn non_codeword_yields_no_message() {
        let code = ColumnCode::sec_ded(6);
        let msg = messages(64, 1).pop().unwrap();
        let mut bad = code.encode(&msg);
        bad.flip(0);
        assert_eq!(code.message_of(&bad), None);
    }

    #[test]
    #[should_panic(expected = "data-width exponent")]
    fn rejects_out_of_range_m() {
        let _ = ColumnCode::sec_ded(7);
    }
}
