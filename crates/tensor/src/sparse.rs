//! A sparse matrix with its values: a [`Csr`] pattern plus one value per
//! stored entry.
//!
//! Node features are bag-of-words or one-hot rows, a few per cent
//! non-zero, so this is the only form they are kept in. A dense copy is
//! made on demand ([`SparseMatrix::to_dense`]) for the models that put
//! the whole feature matrix on the tape.

use crate::csr::Csr;
use crate::matrix::Matrix;

/// An `rows x cols` matrix stored as the pattern of its entries whose
/// bits are not `+0.0`, with their values aligned to it. `-0.0`, NaN and
/// ±∞ are stored, so [`SparseMatrix::to_dense`] gives back the dense
/// matrix bit for bit.
///
/// `spmm` over the parts equals `to_dense().matmul_serial(w)` bitwise for
/// finite `w`, and `spmm_t` equals `to_dense().matmul_tn_serial(g)` for
/// finite `g`: the terms the kernels skip (unstored `+0.0`, stored
/// `-0.0`) are all `±0.0` products, and each output element adds the
/// rest in the same ascending order (the signed-zero argument on
/// `Matrix::matmul_rows`).
#[derive(Clone, Debug, PartialEq)]
pub struct SparseMatrix {
    pattern: Csr,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// Build row by row. `fill(r, writes)` pushes row `r`'s writes as
    /// `(col, value)`, in any order: as in a zeroed dense matrix, a later
    /// write to a column replaces an earlier one, and a column whose last
    /// write is `+0.0` is not stored. Rows are filled in ascending order,
    /// so a `fill` that draws from a random stream draws as a dense
    /// row-major loop would.
    ///
    /// # Panics
    /// Panics on a column out of range, or if `cols` exceeds `u32::MAX`.
    pub fn from_row_writes(
        rows: usize,
        cols: usize,
        mut fill: impl FnMut(usize, &mut Vec<(usize, f64)>),
    ) -> Self {
        assert!(cols <= u32::MAX as usize, "SparseMatrix: too many columns");
        let mut indptr = Vec::with_capacity(rows + 1);
        let (mut indices, mut values) = (Vec::new(), Vec::new());
        let mut writes = Vec::new();
        indptr.push(0);
        for r in 0..rows {
            writes.clear();
            fill(r, &mut writes);
            // stable: writes to one column keep their order
            writes.sort_by_key(|&(c, _)| c);
            for (k, &(c, v)) in writes.iter().enumerate() {
                assert!(c < cols, "SparseMatrix: column {c} out of range");
                let last = writes.get(k + 1).is_none_or(|&(next, _)| next != c);
                if last && v.to_bits() != 0 {
                    indices.push(c as u32);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        // the arrays are kept for the matrix's lifetime: hold no slack
        indices.shrink_to_fit();
        values.shrink_to_fit();
        SparseMatrix {
            pattern: Csr::from_parts(rows, cols, indptr, indices),
            values,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.pattern.rows()
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.pattern.cols()
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The stored entries' pattern and their values aligned with it, for
    /// a caller that shares them.
    pub fn into_parts(self) -> (Csr, Vec<f64>) {
        (self.pattern, self.values)
    }

    /// Row `r`'s stored entries as `(col, value)`, columns ascending.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.pattern.row_range(r);
        let cols = self.pattern.row_indices(r).iter();
        cols.zip(&self.values[range])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// True if every element is finite (an unstored one is `+0.0`).
    pub fn all_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }

    /// Bytes of the arrays the matrix holds on the heap: the pattern's
    /// ([`Csr::heap_bytes`]) and 8 per value. `(rows + 1) * 8 +
    /// nnz * 12` on a 64-bit target.
    pub fn heap_bytes(&self) -> usize {
        self.pattern.heap_bytes() + std::mem::size_of_val(self.values.as_slice())
    }

    /// The dense matrix, bit for bit.
    pub fn to_dense(&self) -> Matrix {
        self.pattern.to_dense(&self.values)
    }
}

impl From<&Matrix> for SparseMatrix {
    /// Keeps every entry whose bits are not `+0.0`.
    ///
    /// # Panics
    /// Panics if `m` has more than `u32::MAX` columns.
    fn from(m: &Matrix) -> Self {
        assert!(
            m.cols() <= u32::MAX as usize,
            "SparseMatrix: too many columns"
        );
        // counted first, so each array is allocated once at its size
        let nnz = m.data().iter().filter(|v| v.to_bits() != 0).count();
        let mut indptr = Vec::with_capacity(m.rows() + 1);
        let (mut indices, mut values) = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
        indptr.push(0);
        for r in 0..m.rows() {
            for (c, &v) in m.row(r).iter().enumerate() {
                if v.to_bits() != 0 {
                    indices.push(c as u32);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        SparseMatrix {
            pattern: Csr::from_parts(m.rows(), m.cols(), indptr, indices),
            values,
        }
    }
}

impl From<Matrix> for SparseMatrix {
    fn from(m: Matrix) -> Self {
        SparseMatrix::from(&m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_writes_keep_the_last_write_and_drop_positive_zero() {
        let s = SparseMatrix::from_row_writes(3, 4, |r, w| match r {
            0 => w.extend([(2, 1.0), (0, 5.0), (2, 3.0)]),
            1 => w.extend([(1, 7.0), (1, 0.0), (3, -0.0)]),
            _ => {}
        });
        let mut want = Matrix::zeros(3, 4);
        want[(0, 0)] = 5.0;
        want[(0, 2)] = 3.0;
        want[(1, 3)] = -0.0;
        assert_eq!(s, SparseMatrix::from(&want));
        assert_eq!(s.nnz(), 3);
        let row1: Vec<_> = s.row(1).collect();
        assert_eq!(row1.len(), 1);
        assert!(row1[0].0 == 3 && row1[0].1.is_sign_negative());
    }

    #[test]
    fn heap_bytes_counts_pattern_and_values() {
        let s = SparseMatrix::from(Matrix::eye(5));
        assert_eq!(s.heap_bytes(), 6 * 8 + 5 * 4 + 5 * 8);
    }
}
