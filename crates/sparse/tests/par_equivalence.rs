//! Property-based equivalence of the parallel kernels with their serial
//! counterparts: `spgemm == par_spgemm(threads ∈ {1, 2, 7})`
//! and `similarity_matrix == par_similarity_matrix`, on random CSR matrices
//! including empty rows and all-zero matrices (`0..max_nnz` triplets means
//! the empty-matrix case is generated too).

use bootes_sparse::ops::{par_similarity_matrix, par_spgemm, similarity_matrix, spgemm};
use bootes_sparse::{CooMatrix, CsrMatrix};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

/// Strategy: an `r x c` matrix from `0..max_nnz` random triplets (duplicate
/// coordinates collapse in `to_csr`; zero triplet counts give all-zero
/// matrices, and unreferenced rows stay empty).
fn matrix(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = CsrMatrix> {
    (1..max_dim, 1..max_dim).prop_flat_map(move |(r, c)| {
        proptest::collection::vec((0..r, 0..c, -4.0f64..4.0), 0..max_nnz).prop_map(move |trips| {
            let mut coo = CooMatrix::new(r, c);
            for (i, j, v) in trips {
                coo.push(i, j, v).expect("in range by construction");
            }
            coo.to_csr()
        })
    })
}

/// Strategy: a conforming (`a`, `b`) SpGEMM pair with shared inner dim.
fn spgemm_pair(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
    (1..max_dim, 1..max_dim, 1..max_dim).prop_flat_map(move |(m, k, n)| {
        let left = proptest::collection::vec((0..m, 0..k, -4.0f64..4.0), 0..max_nnz).prop_map(
            move |trips| {
                let mut coo = CooMatrix::new(m, k);
                for (i, j, v) in trips {
                    coo.push(i, j, v).expect("in range by construction");
                }
                coo.to_csr()
            },
        );
        let right = proptest::collection::vec((0..k, 0..n, -4.0f64..4.0), 0..max_nnz).prop_map(
            move |trips| {
                let mut coo = CooMatrix::new(k, n);
                for (i, j, v) in trips {
                    coo.push(i, j, v).expect("in range by construction");
                }
                coo.to_csr()
            },
        );
        (left, right)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every thread count produces the identical matrix.
    #[test]
    fn spgemm_serial_parallel_equivalence((a, b) in spgemm_pair(20, 120)) {
        let reference = spgemm(&a, &b).expect("conforming shapes");
        for threads in THREAD_COUNTS {
            prop_assert_eq!(&par_spgemm(&a, &b, threads).expect("conforming shapes"), &reference);
        }
    }

    /// The parallel similarity product matches the serial one bit-for-bit.
    #[test]
    fn similarity_serial_parallel_equivalence(a in matrix(24, 120)) {
        let reference = similarity_matrix(&a);
        for threads in THREAD_COUNTS {
            prop_assert_eq!(&par_similarity_matrix(&a, threads), &reference);
        }
    }

    /// The parallel matvec matches the serial one bit-for-bit.
    #[test]
    fn matvec_serial_parallel_equivalence(a in matrix(24, 120)) {
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut reference = vec![0.0; a.nrows()];
        a.matvec_into(&x, &mut reference);
        for threads in THREAD_COUNTS {
            let mut y = vec![f64::NAN; a.nrows()];
            a.par_matvec_into(&x, &mut y, threads);
            prop_assert_eq!(&y, &reference);
        }
    }
}

#[test]
fn all_zero_and_empty_row_matrices() {
    // Deterministic spot checks of the degenerate shapes the strategies only
    // sometimes produce: all-zero operands and interior empty rows.
    let zero = CsrMatrix::zeros(6, 5);
    let tall = CsrMatrix::try_new(
        5,
        4,
        vec![0, 2, 2, 3, 3, 4],
        vec![0, 3, 1, 2],
        vec![1.0, -2.0, 4.0, 0.5],
    )
    .expect("valid csr");
    for threads in THREAD_COUNTS {
        assert_eq!(
            par_spgemm(&zero, &CsrMatrix::zeros(5, 3), threads).unwrap(),
            CsrMatrix::zeros(6, 3)
        );
        assert_eq!(
            par_spgemm(&tall, &CsrMatrix::zeros(4, 7), threads).unwrap(),
            CsrMatrix::zeros(5, 7)
        );
        assert_eq!(
            par_similarity_matrix(&tall, threads),
            similarity_matrix(&tall)
        );
        assert_eq!(
            par_similarity_matrix(&zero, threads),
            similarity_matrix(&zero)
        );
    }
}
