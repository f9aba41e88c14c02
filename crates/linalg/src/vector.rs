//! Small vector kernels used across the workspace.
//!
//! The reductions here (`sum`, `sum_iter`, `min_iter`, `max_iter`,
//! `dot`, `mean`, `variance`) are the *canonical ordered float
//! reductions* of the workspace: strictly sequential, left-to-right,
//! fixed seed. Float addition is not associative, so the bitwise
//! determinism guarantee (tests/thread_invariance.rs) requires every
//! float reduction to pin its evaluation order. This module is the one
//! named place those reductions are spelled; each is bitwise equal to
//! the bare `.sum()`/`.fold()` form it wraps, which
//! `ordered_reductions_match_bare_spellings` below proves.

/// Ordered sequential sum of a slice: left to right, seed `0.0`.
///
/// Bitwise identical to `a.iter().sum::<f64>()` — this is the
/// sanctioned spelling of that reduction in library code.
#[inline]
pub fn sum(a: &[f64]) -> f64 {
    sum_iter(a.iter().copied())
}

/// Ordered sequential sum of an iterator: left to right, seed `0.0`.
#[inline]
pub fn sum_iter(it: impl IntoIterator<Item = f64>) -> f64 {
    it.into_iter().fold(0.0, |acc, v| acc + v)
}

/// Ordered sequential minimum: `fold(seed, f64::min)` left to right.
#[inline]
pub fn min_iter(seed: f64, it: impl IntoIterator<Item = f64>) -> f64 {
    it.into_iter().fold(seed, f64::min)
}

/// Ordered sequential maximum: `fold(seed, f64::max)` left to right.
#[inline]
pub fn max_iter(seed: f64, it: impl IntoIterator<Item = f64>) -> f64 {
    it.into_iter().fold(seed, f64::max)
}

/// Dot product of two equal-length slices.
///
/// Panics in debug builds when lengths differ; in release the shorter
/// length wins (callers in this workspace always pass equal lengths).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
}

/// Euclidean (L2) norm.
#[inline]
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Squared Euclidean distance between two points.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Euclidean distance between two points.
#[inline]
pub fn dist(a: &[f64], b: &[f64]) -> f64 {
    sq_dist(a, b).sqrt()
}

/// Cosine distance `1 - cos(a, b)`; zero vectors are maximally distant.
#[inline]
pub fn cosine_dist(a: &[f64], b: &[f64]) -> f64 {
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    1.0 - dot(a, b) / (na * nb)
}

/// `y += alpha * x` in place.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Scales a slice in place.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for v in x.iter_mut() {
        *v *= alpha;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_norm_dist() {
        assert_eq!(dot(&[1., 2.], &[3., 4.]), 11.0);
        assert!((norm(&[3., 4.]) - 5.0).abs() < 1e-12);
        assert!((dist(&[0., 0.], &[3., 4.]) - 5.0).abs() < 1e-12);
        assert_eq!(sq_dist(&[1., 1.], &[1., 1.]), 0.0);
    }

    #[test]
    fn cosine_distance_properties() {
        // Parallel vectors: distance 0 regardless of magnitude.
        assert!(cosine_dist(&[1., 0.], &[5., 0.]).abs() < 1e-12);
        // Orthogonal: distance 1.
        assert!((cosine_dist(&[1., 0.], &[0., 2.]) - 1.0).abs() < 1e-12);
        // Opposite: distance 2.
        assert!((cosine_dist(&[1., 0.], &[-1., 0.]) - 2.0).abs() < 1e-12);
        // Zero vector convention.
        assert_eq!(cosine_dist(&[0., 0.], &[1., 0.]), 1.0);
    }

    #[test]
    fn axpy_scale() {
        let mut y = vec![1., 2.];
        axpy(2.0, &[10., 20.], &mut y);
        assert_eq!(y, vec![21., 42.]);
        scale(0.5, &mut y);
        assert_eq!(y, vec![10.5, 21.]);
    }

    #[test]
    fn ordered_reductions_match_bare_spellings() {
        let a = [0.1, 0.7, -2.5, 3.75, 1e-9];
        assert_eq!(sum(&a), a.iter().sum::<f64>());
        assert_eq!(
            sum_iter(a.iter().map(|&v| v * v)),
            a.iter().map(|&v| v * v).sum::<f64>()
        );
        assert_eq!(
            min_iter(f64::INFINITY, a.iter().copied()),
            a.iter().copied().fold(f64::INFINITY, f64::min)
        );
        assert_eq!(
            max_iter(0.0, a.iter().copied()),
            a.iter().copied().fold(0.0, f64::max)
        );
    }
}
