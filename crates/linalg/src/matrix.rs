//! Row-major dense matrix.
//!
//! The one parallel kernel here is the Gram behind [`Matrix::gram`] and
//! [`Matrix::centred_gram`], the covariance kernel of the CCA fit: upper
//! triangle only, each element a serial sum owned by one output-row
//! block, so its bits never depend on the thread count. Everything else
//! is serial.

use crate::error::{LinalgError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// Output columns fixed per pass of
/// [`Matrix::gemv_t_centered_into`] — a stack-resident accumulator
/// block (128 bytes, two cache lines) that one streaming pass over the
/// matrix keeps hot. Covers the workspace's KCCA projections (≤ 16
/// canonical dims) in a single pass.
const GEMV_COL_BLOCK: usize = 16;

/// Output rows per `qpp-par` chunk of the Gram kernel: at 512 columns
/// a block's accumulators are at most 128 KB, and the triangle splits
/// into 16 blocks for the threads to claim.
const GRAM_OUT_BLOCK: usize = 32;

/// Input rows per tile of the Gram kernel: at 512 columns a tile is at
/// most 512 KB, so a block's passes over it hit L2, not memory.
const GRAM_TILE: usize = 128;

/// A dense, row-major `f64` matrix.
///
/// Sized for the workloads in this workspace: kernel factors with a few
/// hundred columns, feature matrices with a few thousand rows. All
/// operations are plain safe Rust; hot loops iterate over row slices so
/// the compiler can elide bounds checks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// Returns an error when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of rows. All rows must be equal length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::Empty("from_rows"));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinalgError::ShapeMismatch {
                    op: "from_rows",
                    lhs: (rows.len(), cols),
                    rhs: (1, r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix by evaluating `f(i, j)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True when `data` holds exactly `rows * cols` values. Every
    /// constructor guarantees it; a deserialized matrix is whatever the
    /// payload said, and one that fails this indexes out of range.
    pub fn is_well_formed(&self) -> bool {
        self.rows.checked_mul(self.cols) == Some(self.data.len())
    }

    /// True when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow of row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Iterator over row slices.
    pub fn row_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            let row = self.row(i);
            for (j, &v) in row.iter().enumerate() {
                t[(j, i)] = v;
            }
        }
        t
    }

    /// Matrix product `self * rhs`, serial. Only oracles and tests call
    /// it: the fit's covariances are blocks of one [`Matrix::gram`].
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            // i-k-j loop order: the innermost loop walks contiguous rows
            // of both `rhs` and the output.
            for (k, &a_ik) in self.row(i).iter().enumerate() {
                for (o, &b) in out.row_mut(i).iter_mut().zip(rhs.row(k)) {
                    *o += a_ik * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols != v.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        Ok(self
            .row_iter()
            .map(|row| crate::vector::dot(row, v))
            .collect())
    }

    /// Centered vector-matrix product `out = (row - means)ᵀ · self`,
    /// column-blocked for cache reuse.
    ///
    /// This is the projection kernel of the predict hot path: `self` is
    /// a tall-thin weight matrix (`p x keep`, row-major), and the naive
    /// loop re-touches the whole `out` vector once per matrix row. Here
    /// each pass fixes a block of `GEMV_COL_BLOCK` output columns in a
    /// stack-resident accumulator and streams the matrix rows once per
    /// block, the lane loop unrolled 4 wide.
    ///
    /// Bitwise equal to the naive loop: per output element the partial
    /// sums accumulate in exactly the same order (ascending row index,
    /// zero centered components skipped, one `+=` per touched row) —
    /// blocking changes *which* elements a pass touches, never the
    /// association within one. `tests/properties.rs` pins this.
    pub fn gemv_t_centered_into(&self, row: &[f64], means: &[f64], out: &mut Vec<f64>) {
        debug_assert_eq!(row.len(), self.rows);
        debug_assert_eq!(means.len(), self.rows);
        let cols = self.cols;
        out.clear();
        out.resize(cols, 0.0);
        let mut k0 = 0;
        while k0 < cols {
            let width = GEMV_COL_BLOCK.min(cols - k0);
            let mut acc = [0.0f64; GEMV_COL_BLOCK];
            for (i, (&v, &mu)) in row.iter().zip(means.iter()).enumerate() {
                let c = v - mu;
                if c == 0.0 {
                    continue;
                }
                let w = &self.data[i * cols + k0..i * cols + k0 + width];
                let mut lane = 0;
                while lane + 4 <= width {
                    acc[lane] += c * w[lane];
                    acc[lane + 1] += c * w[lane + 1];
                    acc[lane + 2] += c * w[lane + 2];
                    acc[lane + 3] += c * w[lane + 3];
                    lane += 4;
                }
                while lane < width {
                    acc[lane] += c * w[lane];
                    lane += 1;
                }
            }
            out[k0..k0 + width].copy_from_slice(&acc[..width]);
            k0 += width;
        }
    }

    /// `selfᵀ * self` without forming the transpose: the one-input,
    /// uncentred case of [`Matrix::centred_gram`]'s kernel.
    pub fn gram(&self) -> Matrix {
        gram_of(self.rows, self.cols, |i, a0, tail| {
            tail.copy_from_slice(&self.row(i)[a0..]);
        })
    }

    /// The Gram of `[x − x̄ | y − ȳ]` (`x` is `n x p`, `y` `n x q`) without
    /// storing it: each block centres the tile of rows it reads. A tile
    /// entry is the `x[i][j] − x̄[j]` a centred copy would hold, so the
    /// result is bitwise that copy's Gram.
    pub fn centred_gram(x: &Matrix, x_means: &[f64], y: &Matrix, y_means: &[f64]) -> Matrix {
        debug_assert_eq!(x.rows, y.rows);
        debug_assert_eq!((x_means.len(), y_means.len()), (x.cols, y.cols));
        let centre = |part: &mut [f64], row: &[f64], means: &[f64]| {
            for (o, (v, mu)) in part.iter_mut().zip(row.iter().zip(means)) {
                *o = v - mu;
            }
        };
        let p = x.cols;
        gram_of(x.rows, p + y.cols, |i, a0, tail| {
            // Columns `a0..p+q`: x's from `xa`, then y's from `ya`.
            let (xa, ya) = (a0.min(p), a0.saturating_sub(p));
            let (xs, ys) = tail.split_at_mut(p - xa);
            centre(xs, &x.row(i)[xa..], &x_means[xa..]);
            centre(ys, &y.row(i)[ya..], &y_means[ya..]);
        })
    }

    /// Element-wise difference `self - rhs`.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "sub",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(Matrix { data, ..*self })
    }

    /// Scalar multiple.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v * s).collect(),
        }
    }

    /// Adds `s` to every diagonal entry in place (ridge / jitter).
    pub fn add_diagonal(&mut self, s: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += s;
        }
    }

    /// Copies the `rows x cols` block starting at `(r0, c0)`.
    pub fn block(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> Matrix {
        let mut out = Matrix::zeros(rows, cols);
        for i in 0..rows {
            out.row_mut(i)
                .copy_from_slice(&self.row(r0 + i)[c0..c0 + cols]);
        }
        out
    }

    /// Writes `block` into `self` starting at `(r0, c0)`.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &Matrix) {
        for i in 0..block.rows {
            let dst = &mut self.row_mut(r0 + i)[c0..c0 + block.cols];
            dst.copy_from_slice(block.row(i));
        }
    }

    /// New matrix keeping only the listed rows, in order.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f64 {
        crate::vector::max_iter(0.0, self.data.iter().map(|v| v.abs()))
    }

    /// True when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Symmetrizes in place: `self = (self + selfᵀ) / 2`.
    pub fn symmetrize(&mut self) {
        debug_assert!(self.is_square());
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }
}

/// The one Gram kernel: `Zᵀ Z` for a `rows x d` input that is never
/// stored; `fill(i, a0, tail)` writes row `i`'s columns `a0..d`. Each
/// upper-triangle element is one serial sum over the rows in ascending
/// order, owned by one [`GRAM_OUT_BLOCK`]-row output block, so its bits
/// do not depend on the thread count. A block fills a [`GRAM_TILE`]-row
/// buffer with the columns it reads and passes over it four rows at once.
fn gram_of(rows: usize, d: usize, fill: impl Fn(usize, usize, &mut [f64]) + Sync) -> Matrix {
    let blocks = qpp_par::parallel_for_chunks(d, GRAM_OUT_BLOCK, |chunk| {
        // Local row `a` holds columns `a0..d`; from offset `a` on is its
        // share of the upper triangle.
        let a0 = chunk.range.start;
        let width = d - a0;
        let mut acc = vec![0.0; chunk.range.len() * width];
        let mut tile = vec![0.0; GRAM_TILE.min(rows) * width];
        for t0 in (0..rows).step_by(GRAM_TILE) {
            let tile = &mut tile[..GRAM_TILE.min(rows - t0) * width];
            for (i, tail) in (t0..).zip(tile.chunks_exact_mut(width)) {
                fill(i, a0, tail);
            }
            for (a, out) in acc.chunks_exact_mut(width).enumerate() {
                let out = &mut out[a..];
                let mut quads = tile.chunks_exact(4 * width);
                for quad in &mut quads {
                    let row = |k: usize| &quad[k * width + a..(k + 1) * width];
                    let (r0, r1, r2, r3) = (row(0), row(1), row(2), row(3));
                    let (x0, x1, x2, x3) = (r0[0], r1[0], r2[0], r3[0]);
                    let rows = r0.iter().zip(r1).zip(r2).zip(r3);
                    for (o, (((b0, b1), b2), b3)) in out.iter_mut().zip(rows) {
                        *o = *o + x0 * b0 + x1 * b1 + x2 * b2 + x3 * b3;
                    }
                }
                for row in quads.remainder().chunks_exact(width) {
                    let (x, row) = (row[a], &row[a..]);
                    for (o, b) in out.iter_mut().zip(row) {
                        *o += x * b;
                    }
                }
            }
        }
        acc
    });
    let mut g = Matrix::zeros(d, d);
    for (block, acc) in blocks.iter().enumerate() {
        let a0 = block * GRAM_OUT_BLOCK;
        for (a, out) in (a0..).zip(acc.chunks_exact(d - a0)) {
            for (b, &v) in (a..d).zip(&out[a - a0..]) {
                g.data[a * d + b] = v;
                g.data[b * d + a] = v;
            }
        }
    }
    g
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:>11.4} ", self[(i, j)])?;
            }
            if self.cols > 8 {
                write!(f, "…")?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m22(a: f64, b: f64, c: f64, d: f64) -> Matrix {
        Matrix::from_vec(2, 2, vec![a, b, c, d]).unwrap()
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);
    }

    #[test]
    fn from_vec_shape_checked() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(0, 1)], 4.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_small() {
        let a = m22(1., 2., 3., 4.);
        let b = m22(5., 6., 7., 8.);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, m22(19., 22., 43., 50.));
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = m22(1., 2., 3., 4.);
        let v = vec![5., 6.];
        assert_eq!(a.matvec(&v).unwrap(), vec![17., 39.]);
    }

    #[test]
    fn gram_is_at_a() {
        let a = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let g = a.gram();
        let expected = a.transpose().matmul(&a).unwrap();
        assert!(g.sub(&expected).unwrap().max_abs() < 1e-12);
    }

    #[test]
    fn block_and_set_block() {
        let mut m = Matrix::zeros(4, 4);
        let b = m22(1., 2., 3., 4.);
        m.set_block(1, 2, &b);
        assert_eq!(m[(1, 2)], 1.0);
        assert_eq!(m[(2, 3)], 4.0);
        assert_eq!(m.block(1, 2, 2, 2), b);
    }

    #[test]
    fn select_rows_keeps_listed_rows_in_order() {
        let m = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.row(0), &[5., 6.]);
        assert_eq!(s.row(1), &[1., 2.]);
    }

    #[test]
    fn symmetrize_averages() {
        let mut m = m22(1., 4., 2., 5.);
        m.symmetrize();
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn add_diagonal_ridge() {
        let mut m = Matrix::zeros(2, 2);
        m.add_diagonal(0.5);
        assert_eq!(m[(0, 0)], 0.5);
        assert_eq!(m[(1, 1)], 0.5);
        assert_eq!(m[(0, 1)], 0.0);
    }
}
