//! Borrowed matrix views over contiguous row-major storage.
//!
//! A [`MatrixView`] is a `(rows, cols)` shape over a borrowed contiguous
//! row-major `&[f64]` — exactly the layout of [`Matrix`], without the
//! ownership. Two fit-time entry points take one, `Kcca::fit` and
//! `GaussianKernel::fit` in `qpp-ml`, so a caller hands over its
//! training matrices without a copy. The predict path does not use
//! views: it passes one query's features as a `&[f64]` slice and works
//! in thread-local scratch buffers.
//!
//! Views are `Copy`; passing one is two words plus a pointer. The
//! borrow checker ties a view's lifetime to its backing storage, so a
//! view can never outlive the matrix (or slice) it was taken from.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use std::ops::Index;

/// An immutable, row-major view over borrowed contiguous storage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixView<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f64],
}

impl<'a> MatrixView<'a> {
    /// Creates a view of `rows x cols` over `data`.
    ///
    /// Returns an error when `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: &'a [f64]) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matrix view",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(MatrixView { rows, cols, data })
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

    /// True when the view has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// The backing row-major slice.
    #[inline]
    pub fn as_slice(&self) -> &'a [f64] {
        self.data
    }

    /// Borrow of row `i` as a slice (lives as long as the backing data,
    /// not the view).
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterator over row slices.
    pub fn row_iter(&self) -> std::slice::ChunksExact<'a, f64> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Owned matrix keeping only the listed rows, in order.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }
}

impl Index<(usize, usize)> for MatrixView<'_> {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl Matrix {
    /// Borrowed zero-copy view over the whole matrix.
    #[inline]
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView {
            rows: self.rows(),
            cols: self.cols(),
            data: self.as_slice(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_shares_storage_with_matrix() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let v = m.view();
        assert_eq!(v.shape(), (2, 3));
        assert_eq!(v.row(1), &[4., 5., 6.]);
        assert_eq!(v[(0, 2)], 3.0);
        assert!(std::ptr::eq(v.as_slice().as_ptr(), m.as_slice().as_ptr()));
    }

    #[test]
    fn view_from_slice_is_shape_checked() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert!(MatrixView::new(2, 2, &data).is_ok());
        assert!(MatrixView::new(2, 3, &data).is_err());
    }

    #[test]
    fn row_iter_walks_rows_in_order() {
        let m = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let rows: Vec<&[f64]> = m.view().row_iter().collect();
        assert_eq!(rows, vec![&[1., 2.][..], &[3., 4.][..], &[5., 6.][..]]);
    }

    #[test]
    fn select_rows_matches_matrix_select() {
        let m = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        assert_eq!(m.view().select_rows(&[2, 0]), m.select_rows(&[2, 0]));
    }

    #[test]
    fn row_lifetime_outlives_view() {
        // `row` borrows from the backing storage, not the view value.
        let m = Matrix::from_vec(1, 2, vec![9.0, 10.0]).unwrap();
        let row = { m.view().row(0) };
        assert_eq!(row, &[9.0, 10.0]);
    }
}
