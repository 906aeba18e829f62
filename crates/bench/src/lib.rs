//! # loopml-bench — experiment harness for the CGO 2005 reproduction
//!
//! Regenerates every table and figure of *Stephenson & Amarasinghe,
//! "Predicting Unroll Factors Using Supervised Classification"*:
//!
//! | Artifact | Function | CLI |
//! |----------|----------|-----|
//! | Table 2  | [`experiments::table2`] | `repro table2` |
//! | Table 3  | [`experiments::table3`] | `repro table3` |
//! | Table 4  | [`experiments::table4`] | `repro table4` |
//! | Figure 1 | [`experiments::fig1`]   | `repro fig1` |
//! | Figure 2 | [`experiments::fig2`]   | `repro fig2` |
//! | Figure 3 | [`experiments::fig3`]   | `repro fig3` |
//! | Figure 4 | [`experiments::speedup_figure`] (SWP off) | `repro fig4` |
//! | Figure 5 | [`experiments::speedup_figure`] (SWP on)  | `repro fig5` |
//!
//! plus the ablations called out in `DESIGN.md` (`repro ablate-...`),
//! the legality-prover corpus scan (`repro lint --stats`, [`lintrun`]),
//! which gates on zero prover/oracle disagreements and affine-corpus
//! coverage, the LOGO hyperparameter sweep (`repro sweep`, [`sweeprun`]),
//! which selects every model family's hyperparameters over one streamed
//! distance pass and emits `SWEEP_ml.json`, and the prediction-as-a-service
//! surface (`repro train` / `repro serve-bench`, [`serverun`]), which
//! emits the versioned model artifact `loopml-serve` loads and replays
//! batched traffic against it, and fault-tolerant labeling
//! (`repro label` / `repro label-diff`, [`labelrun`]), which labels the
//! corpus in-process under retries and quarantine and checks that
//! injected chaos costs coverage, never accuracy.
//! Every subcommand shares one flag parser
//! and exit-code convention ([`cli`]). Run `repro all` for everything,
//! `--quick` for a reduced corpus.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod experiments;
pub mod labelrun;
pub mod lintrun;
pub mod report;
pub mod serverun;
pub mod sweeprun;

pub use cli::Scale;
