//! Fixture: the directive check cannot waive itself — the `allow` here
//! is reported as naming no live rule, and so is the typo under it.

// qpp-lint: allow(directive)
// qpp-lint: hot_path
pub fn typo(out: &mut Vec<f64>) {
    out.clear();
}
