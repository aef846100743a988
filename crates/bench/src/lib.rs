//! # triad-bench
//!
//! The harness that regenerates the paper's results table (Table 1) and
//! every analytic claim as *measured* communication. See `DESIGN.md` for
//! the experiment index (E1–E12) and `EXPERIMENTS.md` for the recorded
//! paper-vs-measured comparison.
//!
//! * [`chaos`] — deterministic fault-injection matrix: survival and
//!   retransmission accounting per fault rate (`BENCH_chaos.json`),
//! * [`fit`] — log-log regression for scaling exponents,
//! * [`kernels`] — naive-vs-kernel triangle timings (`BENCH_kernels.json`),
//! * [`predict`] — the paper's bounds evaluated at concrete parameters,
//! * [`report`] — protocol runs rendered as exportable [`triad_comm::CostReport`]s,
//! * [`table`] — plain-text / Markdown report rendering,
//! * [`workloads`] — the standard input families at given `(n, d, k)`,
//! * [`experiments`] — one function per experiment, each returning a
//!   [`table::Report`].

pub mod chaos;
pub mod experiments;
pub mod fit;
pub mod kernels;
pub mod predict;
pub mod report;
pub mod table;
pub mod workloads;
