//! The KCCA fit's memory footprint: at its peak a fit holds the two
//! incomplete-Cholesky factors `G_x` and `G_y` and little else, because
//! the CCA Gram centres its input tile by tile instead of storing a
//! centred `n x (p+q)` copy beside them. Runs in its own test binary:
//! a process has one `#[global_allocator]`, and the peak it counts is
//! process-wide, so no other test may allocate meanwhile.

use counting_alloc::CountingAllocator;
use qpp::linalg::Matrix;
use qpp::ml::{Kcca, KccaOptions};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

#[test]
fn a_fit_peaks_at_its_two_factors() {
    // Scattered rows: both sides reach the rank cap, so the factors are
    // `n x max_rank` each.
    let (n, max_rank) = (4000, 64);
    let scatter = |k: usize| ((k as f64 * 12.9898).sin() * 43758.5453).fract();
    let x = Matrix::from_fn(n, 8, |i, j| scatter(i * 8 + j));
    let y = Matrix::from_fn(n, 6, |i, j| scatter(40_000 + i * 6 + j));
    let opts = KccaOptions {
        max_rank,
        ..KccaOptions::default()
    };
    let factors = 2 * n * max_rank * std::mem::size_of::<f64>();
    // The first fit also allocates what a process sets up once, such as
    // the trace ring; keep that out of the count.
    Kcca::fit(x.view(), y.view(), opts).unwrap();
    for threads in [1, 2] {
        let (kcca, peak) = qpp::par::with_threads(threads, || {
            ALLOC.reset_peak();
            let start = ALLOC.live_bytes();
            let kcca = Kcca::fit(x.view(), y.view(), opts).unwrap();
            (kcca, ALLOC.peak_live_bytes() - start)
        });
        assert_eq!(kcca.x_rank(), max_rank);
        assert!(
            2 * peak <= 3 * factors,
            "{threads} thread(s): the fit peaked {peak} bytes above its start, \
             over 1.5x the {factors} bytes of G_x + G_y"
        );
    }
}
