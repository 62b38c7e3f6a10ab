//! # mg-obs
//!
//! Structured training observability for the AdamGNN reproduction: a
//! per-run JSONL trace sink, span timers, per-epoch telemetry records
//! and a human-readable end-of-run summary.
//!
//! ## Activation
//!
//! `MG_TRACE=<path>` turns the sink on (records append to `<path>`);
//! when unset, [`Trace::from_env`] returns a no-op handle and every call
//! on it is free. The policy mirrors `MG_KERNEL_STATS`: observability is
//! opt-in per process and *never* perturbs the computation — the sink
//! only reads scalars the training loop already produced, never draws
//! from an RNG, and the mg-verify golden-trace suite pins the traced
//! trainers bitwise against their checked-in histories.
//!
//! ## Record kinds
//!
//! One JSON object per line, discriminated by `kind`:
//!
//! * `run_start` — model/dataset/config facts ([`RunMeta`]);
//! * `epoch` — composite loss plus its `L_task`/`L_KL`/`L_R`
//!   decomposition, validation metric, per-parameter gradient L2 norms,
//!   flyback-β summary statistics, per-level hyper-node counts, and
//!   train/eval wall time ([`EpochRecord`]);
//! * `kernel_stats` — a snapshot of mg-runtime's per-kernel timing
//!   registry, folding the `MG_KERNEL_STATS` story into the same file;
//! * `run_end` — best validation / test metrics and total wall time;
//! * `serve` — one online-inference request served by mg-serve: endpoint,
//!   HTTP status, items asked about and the gather's wall time
//!   ([`ServeRecord`]).
//!
//! [`validate_trace`] re-parses an emitted trace and checks the schema;
//! the trace tests (mg-eval's `obs_emission`, mg-serve's `serve_trace`)
//! run it on every trace they produce.

pub mod json;
pub mod record;
pub mod summary;
pub mod trace;
pub mod validate;

pub use json::Json;
pub use record::{BetaStats, EpochRecord, RunEnd, RunMeta, SampleStepRecord, ServeRecord};
pub use trace::{Stopwatch, Trace};
pub use validate::{validate_trace, TraceReport};
