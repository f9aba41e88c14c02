//! Experiment harness for the ICDE 2009 reproduction.
//!
//! Every table and figure of the paper's evaluation has a function here
//! that regenerates it against the simulated testbed; the `experiments`
//! binary renders them as a markdown report (this is how
//! `EXPERIMENTS.md` is produced). Timing lives in `benchmark/`, the
//! repository's one measurement harness.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;
