//! Prediction-as-a-service for the loopml reproduction.
//!
//! The paper's classifier is meant to be consulted *by a compiler at
//! optimization time* — which means a trained model someone ships, not
//! a retrain-from-corpus on every run. This crate is the serving half
//! of that story:
//!
//! * [`ServeModel`] loads a versioned `loopml/model/v1` artifact
//!   (written by `repro train` via [`loopml::ModelArtifact`]) and
//!   answers batched unroll-factor queries, bit-identical to the
//!   in-process [`loopml::LearnedHeuristic`] at any `LOOPML_THREADS`.
//! * [`wire`] defines the request/response JSON protocol and a full
//!   codec for [`loopml_ir::Loop`] bodies, so clients can send either
//!   raw feature vectors or whole loops.
//! * [`server`] runs the long-lived daemon loop over any
//!   reader/writer pair, one JSON request per line, amortizing
//!   normalization and SVM kernel-row setup across each batch via
//!   [`loopml_ml::Classifier::predict_batch`].
//!
//! The `loopml-serve` binary wires [`server`] to stdin/stdout.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod model;
pub mod server;
pub mod wire;

pub use model::ServeModel;
pub use server::{
    serve_lines_with, serve_stats_to_json, validate_serve_stats, ServeOptions, ServeSession,
    ServeStats, SessionReply, DEFAULT_SERVE_RETRIES, SERVE_STATS_SCHEMA,
};
pub use wire::{
    code, loop_from_json, loop_to_json, read_line_bounded, Line, Request, Response, ServeLimits,
    MAX_BATCH, MAX_LINE,
};
