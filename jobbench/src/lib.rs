//! # dlb-jobbench — the end-to-end benchmark
//!
//! One client submits DLB jobs back to back (a closed loop); each job is
//! one `dlb_core::driver::try_run` of a fixed plan on a fixed simulated
//! cluster, timed from outside and checked bit-exact against the kernel's
//! sequential reference. See `jobbench/NOTES.md` for the workloads, the
//! metrics and the layer predictions.

pub mod args;
pub mod job;
pub mod report;
pub mod run;
pub mod stats;
pub mod timed;
pub mod workloads;
