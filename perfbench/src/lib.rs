//! # bat-perfbench
//!
//! The BAT-rs end-to-end benchmark: four campaign workloads timed through
//! the harness's public entry points, and a traced replay of the same
//! work that breaks its wall time down by layer (harness, tuners, core,
//! worker pool, server, cache). Everything is measured from outside the
//! program; see `README.md` in this directory for the workloads, the
//! metrics and what each metric should move.

pub mod layers;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
