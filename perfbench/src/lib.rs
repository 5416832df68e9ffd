//! End-to-end and per-layer benchmark of the DudeTM runtime.
//!
//! A run is a sequence of trials of one workload (see [`spec`]); each
//! trial sets up a fresh emulated device and runtime, loads, drives a
//! closed loop through a warmup and a timed window, then checks the
//! result through a restart ([`driver`]). Untraced trials give the
//! end-to-end metrics; traced trials record spans and sample the process
//! from outside ([`probe`]) for the per-layer metrics ([`report`]).
//! `README.md` in this directory documents the workloads and every metric.

pub mod driver;
pub mod probe;
pub mod report;
pub mod spec;
