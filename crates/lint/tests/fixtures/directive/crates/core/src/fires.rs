//! Fixture: four directives the linter cannot act on. Each of them
//! would otherwise be silence — an unlinted function or a waiver
//! nobody reviews.

// qpp-lint: hot_path
pub fn typo(out: &mut Vec<f64>) {
    out.clear();
}

// qpp-lint: cold-path — retired with the call graph
pub fn retired_word() {}

pub fn stale_waiver() -> u64 {
    // qpp-lint: allow(lock-order, no-vecvec)
    7
}

pub trait Kernel {
    // qpp-lint: hot-path
    fn eval(&self) -> usize;

    fn default_method(&self) -> Vec<u8> {
        Vec::new()
    }
}
