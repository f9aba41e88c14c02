//! Fixture: well-formed directives, with and without a trailing
//! explanation; prose that mentions `qpp-lint: cold-path` in the middle
//! of a comment is not a directive.

// qpp-lint: hot-path
pub fn six(v: &[f64; 6]) -> [f64; 6] {
    *v
}

pub fn rows() -> Vec<Vec<f64>> { // qpp-lint: allow(no-vecvec) — fixture
    Vec::new()
}
