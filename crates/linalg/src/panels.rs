//! Row panels: the layout every predict-time scan reads, and the one
//! the fit's incomplete Cholesky keeps its factor in while it grows.
//!
//! A prediction scans stored rows twice: the kernel row against the
//! KCCA pivots and the neighbour search in projection space. Stored row
//! by row, each row's squared distance is one chain of dependent adds.
//! Here the rows are cut into panels of [`PANEL_ROWS`], and each panel
//! is stored column by column: column `j` of a panel is 16 contiguous
//! values, one per row. One pass over a panel's columns updates 16
//! independent sums, which the compiler vectorizes on the baseline
//! target, and each sum still adds its row's terms in the order and from
//! the seed of [`vector::sq_dist`](crate::vector::sq_dist) and
//! [`vector::dot`](crate::vector::dot) — so every value is bitwise
//! theirs.
//!
//! The last panel is padded with zero rows, and
//! [`RowPanels::close_panel`] pads one early so the next row starts a
//! panel; an owner that does so knows which slots are real. A store
//! serializes as the row-major [`Matrix`] of its rows, so neither the
//! layout nor the padding reaches disk.

use crate::matrix::Matrix;
use serde::value::Value;
use serde::{DeError, Deserialize, Serialize};
use std::ops::Range;

/// Rows per panel: 16 `f64` sums, eight SSE2 registers.
pub const PANEL_ROWS: usize = 16;

/// Rows `cols` wide, stored as column-interleaved panels of
/// [`PANEL_ROWS`] rows (see the module doc).
#[derive(Debug, Clone, PartialEq)]
pub struct RowPanels {
    /// Row slots in use, padding closed by `close_panel` included.
    rows: usize,
    cols: usize,
    /// Whole panels: slot `i`, column `j` sits at
    /// `(i / 16) * 16 * cols + j * 16 + i % 16`.
    data: Vec<f64>,
}

impl RowPanels {
    /// An empty store for rows `cols` wide, with room for `rows` rows.
    pub fn with_capacity(rows: usize, cols: usize) -> Self {
        let data = Vec::with_capacity(rows.next_multiple_of(PANEL_ROWS) * cols);
        RowPanels {
            rows: 0,
            cols,
            data,
        }
    }

    /// The rows, in order.
    pub fn from_rows<'a>(cols: usize, rows: impl IntoIterator<Item = &'a [f64]>) -> Self {
        let rows = rows.into_iter();
        let mut panels = RowPanels::with_capacity(rows.size_hint().0, cols);
        for row in rows {
            panels.push_row(row);
        }
        panels
    }

    /// Writes `row` into the next slot, opening a zeroed panel when the
    /// last one is full. Columns past `row`'s end stay 0.
    pub fn push_row(&mut self, row: &[f64]) {
        let (width, lane) = (PANEL_ROWS * self.cols, self.rows % PANEL_ROWS);
        if lane == 0 {
            self.data.resize(self.data.len() + width, 0.0);
        }
        let panel = self.data.len() - width;
        for (column, &v) in self.data[panel..].chunks_exact_mut(PANEL_ROWS).zip(row) {
            column[lane] = v;
        }
        self.rows += 1;
    }

    /// Pads the open panel with zero rows, so the next row starts a new
    /// one.
    pub fn close_panel(&mut self) {
        self.rows = self.rows.next_multiple_of(PANEL_ROWS);
    }

    /// Row slots in use.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True when `data` holds exactly the panels `rows` needs. Every
    /// constructor guarantees it; a deserialized store whose matrix did
    /// not hold `rows * cols` values keeps its shape and no values, and
    /// fails this unless it has no row or no column to read.
    pub fn is_well_formed(&self) -> bool {
        let width = PANEL_ROWS.checked_mul(self.cols);
        let len = width.and_then(|w| w.checked_mul(self.rows.div_ceil(PANEL_ROWS)));
        len == Some(self.data.len())
    }

    /// Value of slot `i`, column `j`.
    fn at(&self, i: usize, j: usize) -> f64 {
        let panel = i / PANEL_ROWS * PANEL_ROWS * self.cols;
        self.data[panel + j * PANEL_ROWS + i % PANEL_ROWS]
    }

    /// The listed slots, in order, as a row-major matrix.
    pub fn gather(&self, slots: impl IntoIterator<Item = usize>) -> Matrix {
        let slots: Vec<usize> = slots.into_iter().collect();
        Matrix::from_fn(slots.len(), self.cols, |i, j| self.at(slots[i], j))
    }

    /// Columns `columns` of the panel holding slots `16p..16p + 16`,
    /// [`PANEL_ROWS`] values per column.
    #[inline(always)]
    fn lanes(&self, p: usize, columns: Range<usize>) -> &[[f64; PANEL_ROWS]] {
        let panel = &self.data[p * PANEL_ROWS * self.cols..][..PANEL_ROWS * self.cols];
        &panel.as_chunks::<PANEL_ROWS>().0[columns]
    }

    /// `sums[r] += (probe[j] − row_r[j])²` for each column `j` of
    /// `columns` in ascending order, over the rows `r` of panel `p`.
    #[inline(always)]
    pub fn add_sq_diffs(
        &self,
        p: usize,
        probe: &[f64],
        columns: Range<usize>,
        sums: &mut [f64; PANEL_ROWS],
    ) {
        let probe = &probe[columns.clone()];
        for (&x, lane) in probe.iter().zip(self.lanes(p, columns)) {
            for (sum, &y) in sums.iter_mut().zip(lane) {
                let d = x - y;
                *sum += d * d;
            }
        }
    }

    /// Each row of panel `p` against `probe`, over the columns both
    /// have: its dot product with `probe` and its squared norm, each
    /// added in column order from `vector::dot`'s seed.
    #[inline(always)]
    pub fn dots(&self, p: usize, probe: &[f64]) -> ([f64; PANEL_ROWS], [f64; PANEL_ROWS]) {
        let mut dots = [-0.0; PANEL_ROWS];
        let mut squares = [-0.0; PANEL_ROWS];
        let width = self.cols.min(probe.len());
        for (&x, lane) in probe.iter().zip(self.lanes(p, 0..width)) {
            for ((dot, square), &y) in dots.iter_mut().zip(&mut squares).zip(lane) {
                *dot += x * y;
                *square += y * y;
            }
        }
        (dots, squares)
    }

    /// Every row's squared distance to `probe` over the columns both
    /// have, in row order: bitwise `vector::sq_dist` of the two.
    pub fn sq_dists<'a>(&'a self, probe: &'a [f64]) -> impl Iterator<Item = f64> + 'a {
        let width = self.cols.min(probe.len());
        let panels = (0..self.rows.div_ceil(PANEL_ROWS)).flat_map(move |p| {
            let mut sums = [-0.0; PANEL_ROWS];
            self.add_sq_diffs(p, probe, 0..width, &mut sums);
            sums
        });
        panels.take(self.rows)
    }
}

impl From<&Matrix> for RowPanels {
    /// The matrix's rows; a matrix that does not hold `rows * cols`
    /// values gives its shape and no values (see
    /// [`RowPanels::is_well_formed`]).
    fn from(m: &Matrix) -> Self {
        if !m.is_well_formed() {
            let (rows, cols) = m.shape();
            return RowPanels {
                rows,
                cols,
                data: Vec::new(),
            };
        }
        RowPanels::from_rows(m.cols(), (0..m.rows()).map(|i| m.row(i)))
    }
}

impl Serialize for RowPanels {
    fn to_value(&self) -> Value {
        self.gather(0..self.rows).to_value()
    }
}

impl Deserialize for RowPanels {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(RowPanels::from(&Matrix::from_value(v)?))
    }
}
