//! The monet benchmark: full-pipeline wall time per engine, peak
//! memory and served-job latency, with a traced per-layer breakdown.
//! See `perfbench/README.md` for the workloads and metrics.

pub mod batch;
pub mod check;
pub mod child;
pub mod inputs;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
