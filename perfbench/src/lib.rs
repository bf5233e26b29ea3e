//! Wall-clock benchmark of the Clock-RSM reproduction.
//!
//! Drives the threaded runtime (`rsm-runtime`) with an open-loop
//! generator and the simulator (`simnet`) with Fig. 8's saturating
//! clients, through the crates' public APIs only. Per-layer numbers come
//! from probes the benchmark wraps around the protocol and the state
//! machine ([`probe`]); nothing inside the program is instrumented.
//! See `README.md` beside this crate for the workloads, the metrics and
//! which metric each layer is predicted to move.

pub mod gen;
pub mod probe;
pub mod report;
pub mod rt;
pub mod sim;
pub mod stats;
pub mod sys;
pub mod workloads;
