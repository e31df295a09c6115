//! Output checks and the B-traffic quality guard.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use bootes::accel::{configs, simulate_spgemm};
use bootes::sparse::{CsrMatrix, Permutation};

/// Whether `p` is a bijection on `0..n`.
pub fn is_bijection(p: &[usize], n: usize) -> bool {
    if p.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &i in p {
        if i >= n || std::mem::replace(&mut seen[i], true) {
            return false;
        }
    }
    true
}

/// Hash of one row: its column indices and the bit patterns of its values.
fn row_hash(cols: &[usize], vals: &[f64]) -> u64 {
    let mut h = DefaultHasher::new();
    cols.hash(&mut h);
    for v in vals {
        v.to_bits().hash(&mut h);
    }
    h.finish()
}

/// Sorted per-row hashes: equal for two matrices exactly when one holds the
/// other's rows in some order.
fn row_multiset(a: &CsrMatrix) -> Vec<u64> {
    let mut v: Vec<u64> = (0..a.nrows())
        .map(|r| {
            let (c, x) = a.row(r);
            row_hash(c, x)
        })
        .collect();
    v.sort_unstable();
    v
}

/// Parses a `coordinate real general` Matrix Market file written by the
/// program, independently of the program's own reader. Entries must come
/// in row-major order, as the program writes them.
pub fn parse_mtx(text: &str) -> Result<CsrMatrix, String> {
    let mut lines = text.lines().filter(|l| !l.starts_with('%'));
    let size = lines.next().ok_or("missing size line")?;
    let dims: Vec<usize> = size
        .split_whitespace()
        .map(|t| {
            t.parse()
                .map_err(|e| format!("bad size line {size:?}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let [nrows, ncols, nnz] = dims[..] else {
        return Err(format!("bad size line {size:?}"));
    };
    let mut indptr = vec![0usize; nrows + 1];
    let mut indices = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    let mut last_row = 0;
    for line in lines {
        let mut f = line.split_whitespace();
        let mut next = || f.next().ok_or_else(|| format!("short entry line {line:?}"));
        let r: usize = next()?.parse().map_err(|e| format!("{line:?}: {e}"))?;
        let c: usize = next()?.parse().map_err(|e| format!("{line:?}: {e}"))?;
        let v: f64 = next()?.parse().map_err(|e| format!("{line:?}: {e}"))?;
        if r == 0 || r > nrows || c == 0 || c > ncols || r < last_row {
            return Err(format!("entry out of range or order: {line:?}"));
        }
        last_row = r;
        indptr[r] += 1;
        indices.push(c - 1);
        values.push(v);
    }
    if indices.len() != nnz {
        return Err(format!(
            "header says {nnz} entries, file has {}",
            indices.len()
        ));
    }
    for i in 0..nrows {
        indptr[i + 1] += indptr[i];
    }
    CsrMatrix::try_new(nrows, ncols, indptr, indices, values).map_err(|e| e.to_string())
}

/// Checks that `out` holds the rows of `input` in a new order: same shape,
/// same nnz, same multiset of rows.
pub fn same_rows(input: &CsrMatrix, out: &CsrMatrix) -> Result<(), String> {
    if input.shape() != out.shape() || input.nnz() != out.nnz() {
        return Err(format!(
            "output is {:?} with {} nnz, input {:?} with {} nnz",
            out.shape(),
            out.nnz(),
            input.shape(),
            input.nnz()
        ));
    }
    if row_multiset(input) != row_multiset(out) {
        return Err("output rows are not a permutation of the input rows".to_string());
    }
    Ok(())
}

/// B-operand bytes of `reordered · b` over those of `original · b` on the
/// Flexagon preset with the given cache size (`B = A`, never reordered).
pub fn b_traffic_ratio(
    original: &CsrMatrix,
    reordered: &CsrMatrix,
    cache_bytes: usize,
) -> Result<f64, String> {
    let mut cfg = configs::flexagon();
    cfg.cache_bytes = cache_bytes;
    let base = simulate_spgemm(original, original, &cfg).map_err(|e| e.to_string())?;
    let after = simulate_spgemm(reordered, original, &cfg).map_err(|e| e.to_string())?;
    Ok(after.b_bytes as f64 / base.b_bytes.max(1) as f64)
}

/// [`b_traffic_ratio`] of a permutation of `a`.
pub fn b_traffic_ratio_of(
    a: &CsrMatrix,
    p: &Permutation,
    cache_bytes: usize,
) -> Result<f64, String> {
    let reordered = p.apply_rows(a).map_err(|e| e.to_string())?;
    b_traffic_ratio(a, &reordered, cache_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bijection_rejects_duplicates_gaps_and_lengths() {
        assert!(is_bijection(&[2, 0, 1], 3));
        assert!(!is_bijection(&[0, 0, 1], 3));
        assert!(!is_bijection(&[0, 1, 3], 3));
        assert!(!is_bijection(&[0, 1], 3));
    }

    #[test]
    fn parsed_rows_match_up_to_order() {
        let text = "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 2 0.5\n2 1 -1\n3 3 2\n";
        let a = parse_mtx(text).expect("valid");
        let swapped = parse_mtx(
            "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 -1\n2 2 0.5\n3 3 2\n",
        )
        .expect("valid");
        assert!(same_rows(&a, &swapped).is_ok());
        let changed = parse_mtx(
            "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 -1\n2 3 0.5\n3 3 2\n",
        )
        .expect("valid");
        assert!(same_rows(&a, &changed).is_err());
        assert!(
            parse_mtx("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n").is_err()
        );
    }
}
