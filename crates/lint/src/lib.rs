//! # loopml-lint — static analysis over the loop IR, transforms and datasets
//!
//! The learning problem of *Stephenson & Amarasinghe (CGO 2005)* rests on
//! two substrates being correct: the static loop features extracted from
//! the IR, and the unrolled loop variants whose measured runtimes become
//! training labels. A single malformed dependence edge or a miscompiled
//! unroll silently corrupts every label downstream. This crate is the
//! correctness tooling for that substrate, in three layers:
//!
//! 1. **IR verifier** ([`verify`]) — structural rules over any [`Loop`]:
//!    opcode arity and operand-kind checks, memory-descriptor
//!    well-formedness, loop CFG invariants, dependence-graph consistency
//!    and liveness/pressure agreement.
//! 2. **Legality prover** ([`legality`]) — static dependence proofs
//!    over the affine access descriptors: per-(loop, factor)
//!    [`Verdict`]s of `Proven(Certificate)` / `Refuted(Witness)` /
//!    `Unknown`, so most oracle runs are replaced by proofs.
//! 3. **Transform validation** ([`transform`]) — post-pass checkers for
//!    the unroller and its follow-on optimizations, including a
//!    differential-execution oracle that interprets original vs
//!    transformed loops and compares final memory states. The oracle is
//!    gated by the prover ([`OracleMode`]): it runs on `Unknown` loops
//!    plus a deterministic cross-check sample of `Proven` ones.
//! 4. **Dataset lints** ([`dataset`]) — non-finite or constant feature
//!    columns, out-of-range labels, contradictory duplicates and
//!    degenerate cross-validation folds.
//!
//! Every check emits a structured [`Diagnostic`]; diagnostics aggregate
//! into a [`Report`] that renders human-readable text or machine-readable
//! JSON and supports per-rule suppression. Enforcement is governed by a
//! [`LintLevel`] (`Off` / `Warn` / `Deny`), settable via the
//! `LOOPML_LINT` environment variable, so the labeling pipeline can fail
//! fast on a miscompile without paying the validation cost by default.
//!
//! [`Loop`]: loopml_ir::Loop

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::BTreeMap;
use std::fmt;

pub mod dataset;
pub mod legality;
pub mod rules;
pub mod transform;
pub mod verify;

pub use dataset::{lint_dataset, lint_quarantine, QUARANTINE_DENY_RATE, QUARANTINE_WARN_RATE};
pub use legality::{
    check_transform, cross_check_sample, prove_factor, AliasCounts, Certificate, LegalityStats,
    UnknownReason, Verdict, Witness,
};
pub use transform::{
    differential_check, validate_pipeline, validate_pipeline_full, validate_transformed,
    validate_unroll, OracleMode, PipelineValidation,
};
pub use verify::{verify_benchmark, verify_dep_graph, verify_liveness, verify_loop};

/// Environment variable controlling the enforcement level
/// (`off`/`warn`/`deny`).
pub const LINT_ENV: &str = "LOOPML_LINT";

/// Environment variable holding a comma-separated list of rule IDs to
/// suppress (e.g. `LOOPML_LINT_SUPPRESS=ds.constant-column,ir.trip`).
pub const SUPPRESS_ENV: &str = "LOOPML_LINT_SUPPRESS";

/// How severe a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not necessarily wrong (e.g. a constant feature
    /// column): reported, never fatal.
    Warning,
    /// A definite invariant violation: malformed IR, a miscompile, or
    /// corrupt training data. Fatal under [`LintLevel::Deny`].
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Deny => f.write_str("deny"),
        }
    }
}

/// One structured finding from a lint rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule identifier (see [`rules`]).
    pub rule_id: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Where the finding is anchored: a loop name, `loop#inst` position,
    /// dataset row/column, etc.
    pub location: String,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Diagnostic {
    /// Creates a [`Severity::Deny`] diagnostic.
    pub fn deny(
        rule_id: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            rule_id,
            severity: Severity::Deny,
            location: location.into(),
            message: message.into(),
        }
    }

    /// Creates a [`Severity::Warning`] diagnostic.
    pub fn warning(
        rule_id: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            rule_id,
            severity: Severity::Warning,
            location: location.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.rule_id, self.location, self.message
        )
    }
}

/// Enforcement level for lint checks, the `-W`/`-D` analogue of a
/// compiler driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintLevel {
    /// Checks are skipped entirely (the default: labeling pays no
    /// validation cost).
    #[default]
    Off,
    /// Checks run and findings print to stderr; execution continues.
    Warn,
    /// Checks run and any [`Severity::Deny`] finding aborts with a panic
    /// carrying the full report (fail-fast corpus generation).
    Deny,
}

impl LintLevel {
    /// Reads the level from the `LOOPML_LINT` environment variable
    /// (`off`, `warn`, `deny`; case-insensitive). Unset or unrecognized
    /// values mean [`LintLevel::Off`].
    pub fn from_env() -> Self {
        match std::env::var(LINT_ENV) {
            Ok(v) => match v.to_ascii_lowercase().as_str() {
                "warn" => LintLevel::Warn,
                "deny" => LintLevel::Deny,
                _ => LintLevel::Off,
            },
            Err(_) => LintLevel::Off,
        }
    }

    /// `true` unless the level is [`LintLevel::Off`].
    pub fn is_enabled(self) -> bool {
        self != LintLevel::Off
    }
}

/// An aggregated set of diagnostics with per-rule suppression.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
    suppressed: Vec<String>,
}

impl Report {
    /// An empty report with no suppressions.
    pub fn new() -> Self {
        Report::default()
    }

    /// An empty report suppressing the rules named in the
    /// `LOOPML_LINT_SUPPRESS` environment variable.
    pub fn with_env_suppressions() -> Self {
        let mut r = Report::new();
        if let Ok(v) = std::env::var(SUPPRESS_ENV) {
            for rule in v.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                r.suppress(rule);
            }
        }
        r
    }

    /// Suppresses a rule: its diagnostics are dropped on insertion.
    pub fn suppress(&mut self, rule_id: impl Into<String>) {
        self.suppressed.push(rule_id.into());
    }

    /// Adds one diagnostic (unless its rule is suppressed).
    pub fn push(&mut self, d: Diagnostic) {
        if !self.suppressed.iter().any(|s| s == d.rule_id) {
            self.diagnostics.push(d);
        }
    }

    /// Adds every diagnostic from `ds`.
    pub fn extend(&mut self, ds: impl IntoIterator<Item = Diagnostic>) {
        for d in ds {
            self.push(d);
        }
    }

    /// Merges another report's diagnostics into this one (suppressions of
    /// `self` apply; `other`'s already-filtered findings pass through its
    /// own suppressions first).
    pub fn merge(&mut self, other: Report) {
        self.extend(other.diagnostics);
    }

    /// All recorded diagnostics.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Rewrites every diagnostic's location through `f` (used to prefix
    /// findings with the benchmark/loop/factor they came from).
    pub fn relocate(&mut self, f: impl Fn(&str) -> String) {
        for d in &mut self.diagnostics {
            d.location = f(&d.location);
        }
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of [`Severity::Deny`] findings.
    pub fn deny_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .count()
    }

    /// Number of [`Severity::Warning`] findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// `true` if any diagnostic matches `rule_id`.
    pub fn has_rule(&self, rule_id: &str) -> bool {
        self.diagnostics.iter().any(|d| d.rule_id == rule_id)
    }

    /// Findings grouped and counted by rule, in stable rule order.
    pub fn counts_by_rule(&self) -> BTreeMap<&'static str, usize> {
        let mut m = BTreeMap::new();
        for d in &self.diagnostics {
            *m.entry(d.rule_id).or_insert(0) += 1;
        }
        m
    }

    /// Machine-readable JSON rendering: an array of
    /// `{rule_id, severity, location, message}` objects.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"rule_id\":{},\"severity\":{},\"location\":{},\"message\":{}}}",
                json_str(d.rule_id),
                json_str(&d.severity.to_string()),
                json_str(&d.location),
                json_str(&d.message)
            ));
        }
        s.push(']');
        s
    }

    /// Enforces the report at the given level: `Off` does nothing, `Warn`
    /// prints findings to stderr, `Deny` additionally panics when any
    /// [`Severity::Deny`] finding is present.
    ///
    /// # Panics
    ///
    /// Panics under [`LintLevel::Deny`] with the rendered report if the
    /// report contains deny-severity findings.
    pub fn enforce(&self, level: LintLevel, context: &str) {
        if level == LintLevel::Off || self.is_empty() {
            return;
        }
        eprintln!("[loopml-lint] {context}:\n{self}");
        if level == LintLevel::Deny && self.deny_count() > 0 {
            panic!(
                "loopml-lint: {} deny diagnostic(s) in {context}:\n{self}",
                self.deny_count()
            );
        }
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{} finding(s): {} deny, {} warning",
            self.diagnostics.len(),
            self.deny_count(),
            self.warning_count()
        )
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_drops_matching_rules() {
        let mut r = Report::new();
        r.suppress(rules::IR_ARITY);
        r.push(Diagnostic::deny(rules::IR_ARITY, "x", "dropped"));
        r.push(Diagnostic::deny(rules::IR_CFG, "x", "kept"));
        assert_eq!(r.deny_count(), 1);
        assert!(r.has_rule(rules::IR_CFG));
        assert!(!r.has_rule(rules::IR_ARITY));
    }

    #[test]
    fn json_escapes_and_renders() {
        let mut r = Report::new();
        r.push(Diagnostic::warning(rules::DS_CONSTANT, "col \"7\"", "a\nb"));
        let j = r.to_json();
        assert!(j.starts_with('[') && j.ends_with(']'), "{j}");
        assert!(j.contains("\\\"7\\\""), "{j}");
        assert!(j.contains("a\\nb"), "{j}");
    }

    #[test]
    fn counts_and_display() {
        let mut r = Report::new();
        r.push(Diagnostic::deny(rules::IR_CFG, "l", "m"));
        r.push(Diagnostic::warning(rules::DS_CONSTANT, "c", "m"));
        assert_eq!(r.deny_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert_eq!(r.counts_by_rule().len(), 2);
        let text = r.to_string();
        assert!(text.contains("deny[ir.cfg]"), "{text}");
    }

    #[test]
    fn enforce_warn_does_not_panic_on_deny_findings() {
        let mut r = Report::new();
        r.push(Diagnostic::deny(rules::IR_CFG, "l", "m"));
        r.enforce(LintLevel::Warn, "test");
        r.enforce(LintLevel::Off, "test");
    }

    #[test]
    #[should_panic(expected = "deny diagnostic")]
    fn enforce_deny_panics() {
        let mut r = Report::new();
        r.push(Diagnostic::deny(rules::IR_CFG, "l", "m"));
        r.enforce(LintLevel::Deny, "test");
    }

    #[test]
    fn deny_level_with_only_warnings_passes() {
        let mut r = Report::new();
        r.push(Diagnostic::warning(rules::DS_CONSTANT, "c", "m"));
        r.enforce(LintLevel::Deny, "test");
    }
}
