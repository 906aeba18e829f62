//! # loopml-rt — zero-dependency deterministic runtime
//!
//! The rest of the workspace must build offline from a cold cargo cache,
//! so everything that used to come from `rand` and `proptest` lives
//! here instead, implemented on `std` alone:
//!
//! * [`Rng`] — a seedable xoshiro256++ PRNG (SplitMix64 seeding) with the
//!   `gen_range`/`gen_bool` surface the corpus, noise model, and labeler
//!   draw from. A fixed seed produces the same stream on every platform,
//!   every run, and every thread count.
//! * [`par`] — a scoped `std::thread` worker pool. [`par_map`] distributes
//!   work over an atomic queue and returns results in input order, so any
//!   pipeline that seeds one RNG per item is bit-identical to its serial
//!   equivalent.
//! * [`fault`] — deterministic fault injection ([`FaultPlane`]), seeded
//!   from the `LOOPML_FAULTS` environment variable; paired with
//!   [`par::par_map_result`], which isolates per-item panics instead of
//!   killing the pool, it makes chaos runs bit-for-bit reproducible.
//! * [`check`] — a minimal property-test harness with seeded case
//!   generation and failure-seed reporting (replay a single failing case
//!   with `LOOPML_CHECK_SEED=<seed>`).
//! * [`json`] — a minimal JSON value parser/printer so machine-readable
//!   reports (`SWEEP_ml.json`, lint output) can be validated and compared
//!   without serde.

pub mod check;
pub mod fault;
pub mod json;
pub mod par;
pub mod rng;

pub use check::check;
pub use fault::{fault_key, fault_key_str, FaultPlane, InjectedFault};
pub use json::Json;
pub use par::{num_threads, par_map, par_map_result, par_map_threads, with_threads, WorkerError};
pub use rng::{Rng, SampleRange};
