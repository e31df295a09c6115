//! Sparse general matrix-matrix multiplication kernels.
//!
//! The workhorse is the **row-wise product** (Gustavson's algorithm), the
//! dataflow the paper identifies as the favorable one for sparse accelerators:
//! `C[i,:] = Σ_{k ∈ cols(A_i)} A[i,k] · B[k,:]`, computed with a dense
//! accumulator ([`spgemm`], [`par_spgemm`]). No product path runs numeric
//! SpGEMM (B traffic is counted symbolically by the simulator); the kernel is
//! the reference the tests compare against and the parallel speedup gate's
//! floored kernel. Per-worker dense scratch is reused across chunks through
//! thread-local storage (`crate::scratch`) instead of being allocated and
//! zeroed per chunk. The [`dataflow_costs`] analysis reproduces the
//! inner/outer/row-wise trade-offs of Table 1.

use std::ops::Range;

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::scratch;

fn check_dims(a: &CsrMatrix, b: &CsrMatrix) -> Result<(), SparseError> {
    if a.ncols() != b.nrows() {
        return Err(SparseError::DimensionMismatch {
            left: a.shape(),
            right: b.shape(),
        });
    }
    Ok(())
}

/// Output of one contiguous block of Gustavson rows: per-row lengths plus the
/// concatenated column indices and values, stitched in chunk order by the
/// parallel drivers.
struct RowChunk {
    row_lens: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
    flops: u64,
}

/// Thread count the implicit-threading wrappers use: the global
/// [`bootes_par::threads`] policy, bypassed for matrices too small to
/// amortize thread spawning.
fn kernel_threads(nnz: usize) -> usize {
    if nnz < 1 << 13 {
        1
    } else {
        bootes_par::threads()
    }
}

/// Splits `A`'s rows into `parts` contiguous chunks weighted by the
/// row-wise flop count `Σ_{k ∈ cols(A_i)} nnz(B_k)` — the actual work of a
/// Gustavson row — so dense rows don't serialize one worker. Callers pass
/// [`bootes_par::chunk_count`] of their thread count, giving the dynamic
/// claim loop slack to rebalance stragglers.
fn flop_weighted_rows(a: &CsrMatrix, b: &CsrMatrix, parts: usize) -> Vec<Range<usize>> {
    bootes_par::partition_weighted(a.nrows(), parts, |i| {
        a.row(i).0.iter().map(|&k| b.row_nnz(k) as u64).sum()
    })
}

/// Assembles chunk outputs (in chunk order) into a CSR matrix, recording the
/// same per-row `spgemm.row_nnz` histogram entries the serial loop would,
/// plus the `kernel.flops`/`kernel.bytes` accounting counters under `kernel`
/// (the same label as the kernel's par region, so profiles can pair the
/// work with the region's wall time into MFLOP/s and GB/s).
fn stitch_chunks(
    kernel: &str,
    a_nnz: usize,
    nrows: usize,
    ncols: usize,
    chunks: Vec<RowChunk>,
) -> CsrMatrix {
    let nnz: usize = chunks.iter().map(|c| c.indices.len()).sum();
    let mut indptr = Vec::with_capacity(nrows + 1);
    let mut indices = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    indptr.push(0);
    let mut flops = 0u64;
    for chunk in chunks {
        for len in chunk.row_lens {
            indptr.push(indptr.last().expect("nonempty indptr") + len);
            bootes_obs::histogram_record("spgemm.row_nnz", len as u64);
        }
        indices.extend_from_slice(&chunk.indices);
        values.extend_from_slice(&chunk.values);
        flops += chunk.flops;
    }
    bootes_obs::counter_add("spgemm.flops", flops);
    // One multiply + one add per fiber product.
    bootes_obs::counter_add(&format!("kernel.flops{{kernel={kernel}}}"), 2 * flops);
    // Traffic model (no-cache upper bound): each A nonzero read once, one B
    // element fetched per fiber product, each C nonzero written once; 16
    // bytes per element (f64 value + 8-byte column index).
    let bytes = 16 * (a_nnz as u64 + flops + nnz as u64);
    bootes_obs::counter_add(&format!("kernel.bytes{{kernel={kernel}}}"), bytes);
    CsrMatrix::from_parts_unchecked(nrows, ncols, indptr, indices, values)
}

/// One dense-accumulator Gustavson row: accumulate `Σ aik · B[k,:]` into
/// `acc` (all-zero on entry), then gather the touched columns in sorted
/// order into `indices`/`values`, resetting `acc` back to all-zero. Returns
/// the fiber-product (flop) count.
fn dense_row(
    a: &CsrMatrix,
    b: &CsrMatrix,
    i: usize,
    acc: &mut [f64],
    touched: &mut Vec<usize>,
    indices: &mut Vec<usize>,
    values: &mut Vec<f64>,
) -> u64 {
    let mut flops = 0u64;
    let (acols, avals) = a.row(i);
    for (&k, &aik) in acols.iter().zip(avals) {
        let (bcols, bvals) = b.row(k);
        flops += bcols.len() as u64;
        for (&j, &bkj) in bcols.iter().zip(bvals) {
            // A zero accumulator marks "untouched"; a partial sum that
            // cancels back to 0.0 re-pushes j, deduplicated below.
            if acc[j] == 0.0 {
                touched.push(j);
            }
            acc[j] += aik * bkj;
        }
    }
    // `touched` can contain duplicates when a partial sum passed through
    // exactly 0.0; deduplicate via sort.
    touched.sort_unstable();
    touched.dedup();
    for &j in touched.iter() {
        let v = acc[j];
        if v != 0.0 {
            indices.push(j);
            values.push(v);
        }
        acc[j] = 0.0;
    }
    touched.clear();
    flops
}

/// The dense-accumulator Gustavson kernel over one contiguous row block,
/// accumulating into the calling worker's reusable thread-local scratch.
fn spgemm_rows_dense(a: &CsrMatrix, b: &CsrMatrix, rows: Range<usize>) -> RowChunk {
    let n = b.ncols();
    scratch::with_dense_f64(n, |acc, touched| {
        let mut row_lens = Vec::with_capacity(rows.len());
        let mut indices: Vec<usize> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        let mut flops = 0u64;
        for i in rows.clone() {
            let row_start = indices.len();
            flops += dense_row(a, b, i, acc, touched, &mut indices, &mut values);
            row_lens.push(indices.len() - row_start);
        }
        RowChunk {
            row_lens,
            indices,
            values,
            flops,
        }
    })
}

/// Row-wise (Gustavson) SpGEMM with a dense accumulator, on the global
/// [`bootes_par::threads`] policy (serial for small operands). Products are
/// summed in k-iteration encounter order, columns are gathered sorted, and
/// entries that cancel to exactly `0.0` are dropped.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a.ncols() != b.nrows()`.
///
/// # Example
///
/// ```
/// use bootes_sparse::{CsrMatrix, ops::spgemm};
///
/// # fn main() -> Result<(), bootes_sparse::SparseError> {
/// let a = CsrMatrix::identity(2);
/// let c = spgemm(&a, &a)?;
/// assert_eq!(c, CsrMatrix::identity(2));
/// # Ok(())
/// # }
/// ```
pub fn spgemm(a: &CsrMatrix, b: &CsrMatrix) -> Result<CsrMatrix, SparseError> {
    par_spgemm(a, b, kernel_threads(a.nnz()))
}

/// [`spgemm`] over an explicit number of worker threads.
///
/// The rows of `A` are split into flop-weighted contiguous chunks, each chunk
/// runs the identical per-row kernel, and the chunk outputs are stitched back
/// in chunk order — so the result is **bit-identical** to the serial kernel
/// for every thread count.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a.ncols() != b.nrows()`,
/// or [`SparseError::Guard`] if a chunk panicked or an armed `par.worker`
/// failpoint fired.
pub fn par_spgemm(a: &CsrMatrix, b: &CsrMatrix, threads: usize) -> Result<CsrMatrix, SparseError> {
    check_dims(a, b)?;
    let _span = bootes_obs::span!("spgemm.dense_acc");
    let ranges = flop_weighted_rows(a, b, bootes_par::chunk_count(threads));
    let chunks = bootes_par::map_ranges("spgemm.dense_acc", threads, &ranges, |_, rows| {
        spgemm_rows_dense(a, b, rows)
    })?;
    Ok(stitch_chunks(
        "spgemm.dense_acc",
        a.nnz(),
        a.nrows(),
        b.ncols(),
        chunks,
    ))
}

/// Number of scalar multiply-accumulate operations a row-wise SpGEMM
/// `a * b` performs (`Σ_i Σ_{k ∈ cols(A_i)} nnz(B_k)`).
pub fn spgemm_flops(a: &CsrMatrix, b: &CsrMatrix) -> Result<u64, SparseError> {
    check_dims(a, b)?;
    let mut flops = 0u64;
    for i in 0..a.nrows() {
        for &k in a.row(i).0 {
            flops += b.row_nnz(k) as u64;
        }
    }
    Ok(flops)
}

/// Analytic cost profile of one SpGEMM dataflow (Table 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DataflowCost {
    /// Scalar multiplications performed.
    pub multiplies: u64,
    /// Elements of `B` fetched (with no cache, i.e. upper bound on traffic).
    pub b_fetches: u64,
    /// Partial-sum values produced that must be buffered or merged before
    /// becoming final outputs.
    pub partial_outputs: u64,
    /// Index-intersection comparisons (nonzero only for the inner product).
    pub index_intersections: u64,
}

/// Computes the Table-1 cost profile of the inner-product, outer-product and
/// row-wise dataflows for `a * b`, in that order.
///
/// The model follows §2.1 of the paper:
/// - **inner**: every `(i, j)` output position intersects row `A_i` with
///   column `B_:,j`; `B` columns are re-fetched for every row of `A`.
/// - **outer**: column `k` of `A` pairs with row `k` of `B`; inputs are read
///   once, but `Σ_k nnz(A_:,k)·nnz(B_k)` partial outputs must be merged.
/// - **row-wise**: each nonzero `A[i,k]` fetches row `B_k`; partial sums stay
///   within one output row.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a.ncols() != b.nrows()`.
pub fn dataflow_costs(a: &CsrMatrix, b: &CsrMatrix) -> Result<[DataflowCost; 3], SparseError> {
    check_dims(a, b)?;
    let a_csc = a.to_csc();
    let b_csc = b.to_csc();
    let flops = spgemm_flops(a, b)?;
    let c = spgemm(a, b)?;

    // Inner product: for all M*N (i, j) pairs, merge-intersect indices.
    let mut inner_intersections = 0u64;
    let mut inner_b_fetches = 0u64;
    for i in 0..a.nrows() {
        let na = a.row_nnz(i) as u64;
        for j in 0..b.ncols() {
            let nb = b_csc.col_nnz(j) as u64;
            inner_intersections += na + nb; // merge-style intersection cost
            inner_b_fetches += nb;
        }
    }
    let inner = DataflowCost {
        multiplies: flops,
        b_fetches: inner_b_fetches,
        partial_outputs: c.nnz() as u64,
        index_intersections: inner_intersections,
    };

    // Outer product: inputs streamed once; all cross products become psums.
    let mut outer_psums = 0u64;
    for k in 0..a.ncols() {
        outer_psums += a_csc.col_nnz(k) as u64 * b.row_nnz(k) as u64;
    }
    let outer = DataflowCost {
        multiplies: flops,
        b_fetches: b.nnz() as u64,
        partial_outputs: outer_psums,
        index_intersections: 0,
    };

    // Row-wise: B rows fetched per nonzero of A; psums bounded per output row.
    let mut row_b_fetches = 0u64;
    for i in 0..a.nrows() {
        for &k in a.row(i).0 {
            row_b_fetches += b.row_nnz(k) as u64;
        }
    }
    let row_wise = DataflowCost {
        multiplies: flops,
        b_fetches: row_b_fetches,
        partial_outputs: c.nnz() as u64,
        index_intersections: 0,
    };

    Ok([inner, outer, row_wise])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn random_like(nrows: usize, ncols: usize, seed: u64) -> CsrMatrix {
        // Small deterministic pseudo-random matrix without pulling in `rand`.
        let mut coo = CooMatrix::new(nrows, ncols);
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for r in 0..nrows {
            for c in 0..ncols {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if state >> 61 == 0 {
                    // ~1/8 density
                    let v = ((state >> 33) % 7) as f64 - 3.0;
                    if v != 0.0 {
                        coo.push(r, c, v).unwrap();
                    }
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn identity_times_identity() {
        let i = CsrMatrix::identity(4);
        assert_eq!(spgemm(&i, &i).unwrap(), i);
    }

    #[test]
    fn matches_dense_reference() {
        for seed in 0..8 {
            let a = random_like(13, 17, seed);
            let b = random_like(17, 11, seed + 100);
            let c = spgemm(&a, &b).unwrap();
            let c_ref = a.to_dense().matmul(&b.to_dense()).unwrap();
            assert!(c.to_dense().max_abs_diff(&c_ref) < 1e-12, "seed {seed}");
        }
    }

    #[test]
    fn par_variants_match_serial_exactly() {
        for seed in 0..4 {
            let a = random_like(33, 29, seed);
            let b = random_like(29, 41, seed + 50);
            let serial = par_spgemm(&a, &b, 1).unwrap();
            for threads in [2usize, 3, 7] {
                assert_eq!(par_spgemm(&a, &b, threads).unwrap(), serial);
            }
            assert_eq!(spgemm(&a, &b).unwrap(), serial);
        }
    }

    #[test]
    fn more_threads_than_rows_is_fine() {
        let a = random_like(3, 5, 1);
        let b = random_like(5, 4, 2);
        assert_eq!(
            par_spgemm(&a, &b, 64).unwrap(),
            par_spgemm(&a, &b, 1).unwrap()
        );
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = CsrMatrix::zeros(2, 3);
        let b = CsrMatrix::zeros(2, 3);
        assert!(spgemm(&a, &b).is_err());
        assert!(spgemm_flops(&a, &b).is_err());
        assert!(dataflow_costs(&a, &b).is_err());
    }

    #[test]
    fn cancellation_drops_entries() {
        // a = [1 1], b = [[1], [-1]]  =>  c = [0] (dropped)
        let a = CsrMatrix::try_new(1, 2, vec![0, 2], vec![0, 1], vec![1.0, 1.0]).unwrap();
        let b = CsrMatrix::try_new(2, 1, vec![0, 1, 2], vec![0, 0], vec![1.0, -1.0]).unwrap();
        assert_eq!(spgemm(&a, &b).unwrap().nnz(), 0);
    }

    #[test]
    fn empty_operands() {
        let a = CsrMatrix::zeros(3, 4);
        let b = CsrMatrix::zeros(4, 2);
        let c = spgemm(&a, &b).unwrap();
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn flops_counts_fiber_products() {
        let a = random_like(9, 9, 3);
        let flops = spgemm_flops(&a, &a).unwrap();
        let mut expected = 0u64;
        for i in 0..9 {
            for &k in a.row(i).0 {
                expected += a.row_nnz(k) as u64;
            }
        }
        assert_eq!(flops, expected);
    }

    #[test]
    fn table1_tradeoffs_hold() {
        // On a sparse matrix the row-wise dataflow should fetch (weakly) less
        // of B than inner product and create fewer partial outputs than outer.
        let a = random_like(30, 30, 5);
        let [inner, outer, row] = dataflow_costs(&a, &a).unwrap();
        assert_eq!(inner.multiplies, row.multiplies);
        assert!(inner.b_fetches >= row.b_fetches);
        assert!(outer.partial_outputs >= row.partial_outputs);
        assert!(inner.index_intersections > 0);
        assert_eq!(row.index_intersections, 0);
        assert_eq!(outer.index_intersections, 0);
        assert!(outer.b_fetches <= row.b_fetches);
    }
}
