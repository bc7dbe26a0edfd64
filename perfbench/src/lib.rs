//! The repository benchmark: "one committed mutation batch → fresh
//! results" and "one-shot query → converged" on five workloads, measured
//! from outside the engine through its public API. See `README.md` beside
//! this package for the workloads, the metrics and how to read them.

pub mod metrics;
pub mod probes;
pub mod replay;
pub mod run;
pub mod spec;
pub mod trace;
