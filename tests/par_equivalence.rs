//! Property-based bit-equivalence of every parallel kernel across thread
//! counts, through the public facade.
//!
//! The PR-7 worker pool, chunk oversubscription, and per-thread scratch
//! reuse all change *how* work is scheduled; these properties pin that none
//! of it changes *what* is computed: for any generated matrix, every thread
//! count in {1, 2, 4, 8} (which exercises the serial-inline path, pool
//! dispatch, and oversubscribed chunk claiming, regardless of the host's
//! CPU count) must produce output bit-identical to the 1-thread run — for
//! SpGEMM, the similarity product, and SpMV. Floats are compared via `to_bits`, so `-0.0 != 0.0`
//! and no epsilon can hide a reassociated sum.

use bootes::sparse::ops::{par_similarity_matrix, par_spgemm, spgemm};
use bootes::sparse::{CooMatrix, CsrMatrix};
use proptest::prelude::*;

/// Thread counts every kernel is swept over (beyond the host CPU count on
/// purpose: oversubscription must also be bit-exact).
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Strategy: a square sparse matrix with signed values (so cancellation and
/// sign handling are exercised, not just positive accumulation).
fn square_matrix(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = CsrMatrix> {
    (2..max_dim).prop_flat_map(move |n| {
        proptest::collection::vec(
            (0..n, 0..n, -5.0f64..5.0).prop_map(|(i, j, v)| (i, j, v)),
            0..max_nnz,
        )
        .prop_map(move |trips| {
            let mut coo = CooMatrix::new(n, n);
            for (i, j, v) in trips {
                coo.push(i, j, v).expect("in range by construction");
            }
            coo.to_csr()
        })
    })
}

/// Exact (bitwise) equality of two CSR matrices.
fn bit_identical(a: &CsrMatrix, b: &CsrMatrix) -> bool {
    a.shape() == b.shape()
        && a.iter().count() == b.iter().count()
        && a.iter().zip(b.iter()).all(|((ri, ci, vi), (rj, cj, vj))| {
            ri == rj && ci == cj && vi.to_bits() == vj.to_bits()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SpGEMM agrees bitwise with its serial run at every thread count, and
    /// the `spgemm()` entry point (global thread policy) agrees with both.
    #[test]
    fn spgemm_variants_bit_identical_across_threads(a in square_matrix(18, 70)) {
        let b = a.transpose();
        let serial = par_spgemm(&a, &b, 1).expect("valid operands");
        for t in THREAD_COUNTS {
            let dense = par_spgemm(&a, &b, t).expect("valid operands");
            prop_assert!(bit_identical(&dense, &serial), "dense t={t}");
        }
        let entry = spgemm(&a, &b).expect("valid operands");
        prop_assert!(bit_identical(&entry, &serial), "spgemm() entry point");
    }

    /// The similarity product is bit-identical across thread counts.
    #[test]
    fn similarity_bit_identical_across_threads(a in square_matrix(18, 70)) {
        let serial = par_similarity_matrix(&a, 1);
        for t in THREAD_COUNTS {
            prop_assert!(
                bit_identical(&par_similarity_matrix(&a, t), &serial),
                "similarity t={t}"
            );
        }
    }

    /// SpMV is bit-identical across thread counts.
    #[test]
    fn spmv_bit_identical_across_threads(
        a in square_matrix(18, 70),
        seed in -2.0f64..2.0,
    ) {
        let n = a.ncols();
        let x: Vec<f64> = (0..n).map(|i| seed + (i % 7) as f64 * 0.5).collect();
        let serial = a.matvec(&x).expect("length matches by construction");
        for t in THREAD_COUNTS {
            let mut y = vec![0.0f64; a.nrows()];
            a.par_matvec_into(&x, &mut y, t);
            let same = y
                .iter()
                .zip(serial.iter())
                .all(|(p, s)| p.to_bits() == s.to_bits());
            prop_assert!(same, "spmv t={t}");
        }
    }
}
