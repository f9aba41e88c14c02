//! Pivoted incomplete Cholesky decomposition of a Gram (kernel) matrix.
//!
//! `K ≈ G Gᵀ` with `G` of rank `r ≪ N`, built greedily by largest
//! remaining diagonal (trace-norm optimal pivoting). This is the
//! factorization Bach & Jordan use to make KCCA tractable, and it is
//! *exact* when run to full rank with zero tolerance — which lets the
//! same code path serve both the "exact" small-N mode and the scalable
//! low-rank mode.
//!
//! Crucially the input is a *Gram oracle* `k(i, j)`, not a materialized
//! `N x N` matrix: only `N·r` kernel evaluations are performed.

// Triangular solves and centroid updates read most clearly with index
// loops; the iterator forms clippy suggests obscure the math.
#![allow(clippy::needless_range_loop)]

use crate::cholesky::Cholesky;
use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::panels::PANEL_ROWS;

/// Starting column stride of `G`'s panels when the rank is not capped
/// below `n`; it doubles as pivots are accepted, so an uncapped
/// factorization never reserves `n x n`.
const UNCAPPED_START_STRIDE: usize = 32;

/// Options controlling the factorization.
#[derive(Debug, Clone, Copy)]
pub struct IcdOptions {
    /// Hard cap on the rank (number of pivots). `usize::MAX` = no cap.
    pub max_rank: usize,
    /// Stop when the remaining trace falls below `tol * initial trace`.
    pub relative_tolerance: f64,
}

impl Default for IcdOptions {
    fn default() -> Self {
        IcdOptions {
            max_rank: usize::MAX,
            relative_tolerance: 1e-6,
        }
    }
}

/// The factor `G` (`n x r`), selected pivots, and the triangular pivot
/// block needed to embed new points into the same feature space.
#[derive(Debug, Clone)]
pub struct IncompleteCholesky {
    g: Matrix,
    pivots: Vec<usize>,
    /// Residual trace after the last accepted pivot (approximation error).
    residual_trace: f64,
}

/// `sums[k] -= columns[s][k] * pivot[s]` for each column `s` in
/// ascending order: 16 independent chains, one per row of a panel. Taken
/// and returned by value, so the sums stay in registers.
#[inline(always)]
fn subtract_columns(
    mut sums: [f64; PANEL_ROWS],
    columns: &[[f64; PANEL_ROWS]],
    pivot: &[f64],
) -> [f64; PANEL_ROWS] {
    for (column, &gp) in columns.iter().zip(pivot) {
        for (sum, gi) in sums.iter_mut().zip(column) {
            *sum -= gi * gp;
        }
    }
    sums
}

impl IncompleteCholesky {
    /// Factorizes the `n x n` Gram matrix given by `gram(i, j)`.
    ///
    /// `gram` must be symmetric with non-negative diagonal (any kernel
    /// matrix qualifies). The factorization is one serial pass per
    /// pivot, so its bits depend on nothing but `gram` and `opts`. A
    /// diagonal whose trace is not finite is [`LinalgError::NonFinite`]
    /// before any pivot is chosen.
    pub fn factor(n: usize, gram: impl Fn(usize, usize) -> f64, opts: IcdOptions) -> Result<Self> {
        if n == 0 {
            return Err(LinalgError::Empty("incomplete cholesky"));
        }
        let max_rank = opts.max_rank.min(n);
        let mut d: Vec<f64> = (0..n).map(|i| gram(i, i)).collect();
        let initial_trace = crate::vector::sum(&d);
        if !initial_trace.is_finite() {
            return Err(LinalgError::NonFinite {
                op: "incomplete cholesky",
            });
        }
        let tol = if initial_trace > 0.0 {
            opts.relative_tolerance * initial_trace
        } else {
            0.0
        };

        // G as 16-row panels stored column by column, the layout of
        // `RowPanels`: column `s` of panel `q` is the 16 values at
        // `g[q * 16 * stride + s * 16..]`, one per row `16q + k`. A cap
        // below `n` is reserved once: growing to it would hold the old
        // and the new `G` at once at the last doubling. Otherwise the
        // stride doubles when a pivot needs it.
        let mut stride = if max_rank < n {
            max_rank
        } else {
            max_rank.min(UNCAPPED_START_STRIDE)
        };
        let panels = n.div_ceil(PANEL_ROWS);
        let mut g: Vec<f64> = vec![0.0; panels * PANEL_ROWS * stride];
        let mut pivot_row: Vec<f64> = Vec::with_capacity(stride);
        let mut pivots: Vec<usize> = Vec::new();
        let mut selected = vec![false; n];

        for t in 0..max_rank {
            // Greedy pivot: largest remaining diagonal.
            let mut p = usize::MAX;
            let mut best = 0.0;
            for i in 0..n {
                if !selected[i] && d[i] > best {
                    best = d[i];
                    p = i;
                }
            }
            // Selected rows hold exactly 0.0, so they add nothing.
            let remaining = crate::vector::sum_iter(d.iter().map(|v| v.max(0.0)));
            if p == usize::MAX || best <= 0.0 || (t > 0 && remaining <= tol) {
                break;
            }
            let gpp = best.sqrt();
            if t == stride {
                // Re-lay each panel's first `t` columns at the doubled
                // stride, last panel first so none is overwritten before
                // it moves.
                let wider = (2 * stride).min(max_rank);
                g.resize(panels * PANEL_ROWS * wider, 0.0);
                for q in (1..panels).rev() {
                    let from = q * PANEL_ROWS * stride;
                    g.copy_within(from..from + PANEL_ROWS * t, q * PANEL_ROWS * wider);
                }
                stride = wider;
            }
            // The hot loop: one kernel evaluation plus a rank-t residual
            // update per unselected row. A panel's 16 rows run as 16
            // independent sums over one pass through its columns, which
            // the compiler vectorizes; each sum starts from `gram(i, p)`
            // and subtracts its row's columns in ascending order against
            // a copy of the pivot's row, as one row alone would. The
            // lanes of selected rows, of `p` and of padding compute sums
            // nobody reads, and get 0 in column `t`.
            let (pivot_panel, pivot_lane) = (p / PANEL_ROWS * PANEL_ROWS * stride, p % PANEL_ROWS);
            pivot_row.clear();
            pivot_row.extend((0..t).map(|s| g[pivot_panel + s * PANEL_ROWS + pivot_lane]));
            for (q, panel) in g.chunks_exact_mut(PANEL_ROWS * stride).enumerate() {
                let i0 = q * PANEL_ROWS;
                let live = |k: usize| i0 + k < n && !selected[i0 + k] && i0 + k != p;
                let mut v = [0.0; PANEL_ROWS];
                for (k, sum) in v.iter_mut().enumerate() {
                    if live(k) {
                        *sum = gram(i0 + k, p);
                    }
                }
                let columns = panel.as_chunks_mut::<PANEL_ROWS>().0;
                let v = subtract_columns(v, &columns[..t], &pivot_row);
                for (k, out) in columns[t].iter_mut().enumerate() {
                    *out = 0.0;
                    if live(k) {
                        let gi = v[k] / gpp;
                        *out = gi;
                        d[i0 + k] -= gi * gi;
                    }
                }
            }
            g[pivot_panel + t * PANEL_ROWS + pivot_lane] = gpp;
            selected[p] = true;
            d[p] = 0.0;
            pivots.push(p);
        }

        if pivots.is_empty() {
            return Err(LinalgError::NotPositiveDefinite {
                pivot: 0,
                value: d.first().copied().unwrap_or(0.0),
            });
        }

        // Back to row-major `n x r` in place, first panel first: panel
        // `q`'s rows land in `g[16q * r..16(q + 1) * r]`, at or before
        // its own slots and ending at or before the next panel's, so the
        // only unread values it overwrites are its own, read from a copy.
        let r = pivots.len();
        let mut block: Vec<f64> = Vec::with_capacity(PANEL_ROWS * r);
        for q in 0..panels {
            let from = q * PANEL_ROWS * stride;
            block.clear();
            block.extend_from_slice(&g[from..from + PANEL_ROWS * r]);
            let rows = PANEL_ROWS.min(n - q * PANEL_ROWS);
            for (k, row) in g[q * PANEL_ROWS * r..][..rows * r]
                .chunks_exact_mut(r)
                .enumerate()
            {
                for (s, out) in row.iter_mut().enumerate() {
                    *out = block[s * PANEL_ROWS + k];
                }
            }
        }
        g.truncate(n * r);
        let g = Matrix::from_vec(n, r, g)?;
        let residual_trace = crate::vector::sum_iter(d.iter().map(|v| v.max(0.0)));
        Ok(IncompleteCholesky {
            g,
            pivots,
            residual_trace,
        })
    }

    /// The factor `G` with `K ≈ G Gᵀ` (`n` rows, `rank()` columns).
    pub fn g(&self) -> &Matrix {
        &self.g
    }

    /// Achieved rank.
    pub fn rank(&self) -> usize {
        self.pivots.len()
    }

    /// Pivot indices in selection order.
    pub fn pivots(&self) -> &[usize] {
        &self.pivots
    }

    /// Remaining trace `tr(K - G Gᵀ)` — the approximation error.
    pub fn residual_trace(&self) -> f64 {
        self.residual_trace
    }

    /// The `rank() x rank()` pivot block `G[pivots, :]` — everything
    /// embedding a new point reads, without the `n x rank()` factor.
    pub fn pivot_block(&self) -> PivotBlock {
        PivotBlock {
            rows: self.g.select_rows(&self.pivots),
        }
    }
}

/// The lower-triangular pivot block `L` of an [`IncompleteCholesky`]
/// (triangular in selection order by construction). A fitted model folds
/// it into its projection ([`PivotBlock::fold_linear_map`]) and does not
/// keep it.
#[derive(Debug, Clone)]
pub struct PivotBlock {
    rows: Matrix,
}

impl PivotBlock {
    /// Rank of the factorization the block was taken from.
    pub fn rank(&self) -> usize {
        self.rows.rows()
    }

    /// Embeds a *new* point into the factorization's `rank()`-dimensional
    /// feature space by forward substitution against the block.
    ///
    /// `kernel_at_pivots[t]` must be `k(x_new, pivot_t)` in pivot order.
    /// The embedding satisfies `g_new · g_iᵀ ≈ k(x_new, x_i)` for training
    /// points `i`, i.e. new points live in the same approximate feature
    /// space as the training rows of `G`. No prediction runs this: it is
    /// the staged oracle `tests/fold_equivalence.rs` holds the folded
    /// projection against.
    pub fn transform_new_into(&self, kernel_at_pivots: &[f64], out: &mut Vec<f64>) -> Result<()> {
        let r = self.rank();
        if kernel_at_pivots.len() != r {
            return Err(LinalgError::ShapeMismatch {
                op: "icd transform_new",
                lhs: (r, 1),
                rhs: (kernel_at_pivots.len(), 1),
            });
        }
        out.clear();
        out.resize(r, 0.0);
        for t in 0..r {
            let row = self.rows.row(t);
            let mut v = kernel_at_pivots[t];
            for s in 0..t {
                v -= out[s] * row[s];
            }
            out[t] = v / row[t];
        }
        Ok(())
    }

    /// Folds the embedding into a linear map that follows it. For any
    /// kernel row `k`, `weightsᵀ (L⁻¹ k − means) = foldᵀ (k − center)`
    /// with `fold = L⁻ᵀ weights` (`rank() x weights.cols()`) and
    /// `center = L means`: one back-substitution here buys every later
    /// projection its forward substitution. Consumes the block — the
    /// folded pair replaces it.
    pub fn fold_linear_map(self, weights: &Matrix, means: &[f64]) -> Result<(Matrix, Vec<f64>)> {
        let center = self.rows.matvec(means)?;
        let fold = Cholesky::from_factor(self.rows).back_substitute_matrix(weights)?;
        Ok((fold, center))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;

    type Points = Vec<Vec<f64>>; // allow-vecvec: test fixture

    fn gaussian_points() -> Points {
        // Deterministic scattered points.
        (0..12)
            .map(|i| {
                let x = (i as f64 * 0.7).sin() * 3.0;
                let y = (i as f64 * 1.3).cos() * 2.0;
                vec![x, y]
            })
            .collect()
    }

    fn kernel(a: &[f64], b: &[f64]) -> f64 {
        (-vector::sq_dist(a, b) / 4.0).exp()
    }

    #[test]
    fn full_rank_is_exact() {
        let pts = gaussian_points();
        let n = pts.len();
        let icd = IncompleteCholesky::factor(
            n,
            |i, j| kernel(&pts[i], &pts[j]),
            IcdOptions {
                max_rank: n,
                relative_tolerance: 0.0,
            },
        )
        .unwrap();
        let g = icd.g();
        let approx = g.matmul(&g.transpose()).unwrap();
        for i in 0..n {
            for j in 0..n {
                let k = kernel(&pts[i], &pts[j]);
                assert!(
                    (approx[(i, j)] - k).abs() < 1e-8,
                    "K[{i},{j}] {} vs {}",
                    approx[(i, j)],
                    k
                );
            }
        }
    }

    #[test]
    fn truncated_rank_bounds_error_by_residual_trace() {
        let pts = gaussian_points();
        let n = pts.len();
        let icd = IncompleteCholesky::factor(
            n,
            |i, j| kernel(&pts[i], &pts[j]),
            IcdOptions {
                max_rank: 5,
                relative_tolerance: 0.0,
            },
        )
        .unwrap();
        assert_eq!(icd.rank(), 5);
        let g = icd.g();
        let approx = g.matmul(&g.transpose()).unwrap();
        // Diagonal error sums to the residual trace.
        let diag_err: f64 = (0..n)
            .map(|i| kernel(&pts[i], &pts[i]) - approx[(i, i)])
            .sum();
        assert!((diag_err - icd.residual_trace()).abs() < 1e-8);
    }

    #[test]
    fn transform_new_matches_training_row() {
        // Embedding a training point as if it were new must reproduce its
        // G row (for full-rank factorization).
        let pts = gaussian_points();
        let n = pts.len();
        let icd = IncompleteCholesky::factor(
            n,
            |i, j| kernel(&pts[i], &pts[j]),
            IcdOptions {
                max_rank: n,
                relative_tolerance: 1e-12,
            },
        )
        .unwrap();
        for probe in [0usize, 3, 7] {
            let k_row: Vec<f64> = icd
                .pivots()
                .iter()
                .map(|&p| kernel(&pts[probe], &pts[p]))
                .collect();
            let mut emb = Vec::new();
            icd.pivot_block()
                .transform_new_into(&k_row, &mut emb)
                .unwrap();
            for (t, v) in emb.iter().enumerate() {
                assert!(
                    (v - icd.g()[(probe, t)]).abs() < 1e-6,
                    "row {probe} dim {t}: {} vs {}",
                    v,
                    icd.g()[(probe, t)]
                );
            }
        }
    }

    #[test]
    fn pivot_block_is_triangular() {
        let pts = gaussian_points();
        let n = pts.len();
        let icd =
            IncompleteCholesky::factor(n, |i, j| kernel(&pts[i], &pts[j]), IcdOptions::default())
                .unwrap();
        for (t, &p) in icd.pivots().iter().enumerate() {
            for s in (t + 1)..icd.rank() {
                assert!(icd.g()[(p, s)].abs() < 1e-10);
            }
        }
    }

    #[test]
    fn empty_input_rejected() {
        assert!(IncompleteCholesky::factor(0, |_, _| 0.0, IcdOptions::default()).is_err());
    }

    #[test]
    fn zero_matrix_rejected() {
        assert!(IncompleteCholesky::factor(4, |_, _| 0.0, IcdOptions::default()).is_err());
    }
}
