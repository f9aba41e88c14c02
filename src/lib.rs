//! Umbrella crate re-exporting the qpp workspace.
pub use qpp_adapt as adapt;
pub use qpp_core as core;
pub use qpp_engine as engine;
pub use qpp_linalg as linalg;
pub use qpp_ml as ml;
pub use qpp_obs as obs;
pub use qpp_par as par;
pub use qpp_serve as serve;
pub use qpp_workload as workload;
