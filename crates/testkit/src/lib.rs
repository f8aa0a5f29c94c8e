//! # qb-testkit
//!
//! Correctness tooling for the QB5000 workspace. Nothing in this crate is
//! on a production path; it exists so every optimized component has an
//! independent, deliberately naive implementation to answer to.
//!
//! Three pillars:
//!
//! * [`oracle`] — **reference oracles**: a linear-scan re-implementation of
//!   the online clusterer ([`oracle::ReferenceClusterer`]), batch DBSCAN
//!   over full feature vectors ([`oracle::batch_dbscan`]), normal-equations
//!   linear regression solved by Gauss–Jordan elimination
//!   ([`oracle::NormalEquationsLr`]), and a straight-line string
//!   re-templatizer ([`oracle::naive_template`]). Differential tests in
//!   `tests/differential.rs` assert the optimized implementations agree —
//!   exactly where the paper's algorithm is deterministic, within a
//!   documented tolerance where the online variant is an approximation.
//! * [`sim`] — a **deterministic simulation runner** that drives the full
//!   pipeline (generator → fault injector → pre-processor → clusterer →
//!   forecaster) for one seeded case, with any valid subset of the
//!   optional features (tick batches, serving, cold start, tracing,
//!   self-monitoring, durable state with a mid-run crash), and checks
//!   end-to-end invariants: exact ingest accounting, a quarantine bound
//!   derived from the fault plan's own statistics, finite forecasts,
//!   bit-identical results across thread-pool widths and reruns, and a
//!   pipeline that serving and cold start leave untouched. On
//!   failure it reports a copy-pasteable single-seed repro command.
//! * [`golden`] — **golden-trace fixtures**: captured summaries of mini
//!   workload runs (template counts, cluster membership, per-horizon
//!   log-space MSE) diffed byte-for-byte against checked-in JSON, blessed
//!   with `QB_BLESS_GOLDEN=1` in the same style as `tests/public-api.txt`.
//!
//! [`scenario`] scores the cold-start forecast path against waiting for
//! history on a `qb_workloads::ChurnScenario` trace, with paired
//! [`qb5000::AccuracyTracker`]s.
//!
//! [`corpus`] provides the seeded SQL corpus generator shared by the
//! templatizer oracle tests (the Table 1 SELECT/INSERT/UPDATE/DELETE mix).

#![forbid(unsafe_code)]

pub mod corpus;
pub mod crash;
pub mod golden;
pub mod oracle;
pub mod scenario;
pub mod sim;
