//! Fault taxonomy and degradation accounting for the labeling pipeline.
//!
//! The paper's dataset exists because its measurement pipeline survived
//! a hostile world: noisy timers, crashing benchmarks, an operating
//! system with opinions. This module is the bookkeeping half of our
//! survival machinery — a structured [`LabelError`] taxonomy instead of
//! hot-path panics, [`QuarantineEntry`] records for work that exhausted
//! its retry budget, and a machine-readable [`DegradationReport`] so a
//! degraded run can never pass for a clean one.

use std::collections::BTreeMap;
use std::fmt;

use loopml_rt::Json;

/// Why a labeling attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabelError {
    /// A synthetic fault from the fault plane (`LOOPML_FAULTS`).
    Injected {
        /// Injection site that tripped.
        site: &'static str,
        /// Attempt number the fault landed on (0 = first try).
        attempt: u32,
    },
    /// A measurement came back NaN or infinite — the structured
    /// replacement for the old `expect("finite")` hot-path panic.
    NonFinite {
        /// Unroll factor whose measurement was non-finite.
        factor: u32,
    },
    /// A panic captured by the isolation layer.
    Panic {
        /// Rendered panic message.
        message: String,
    },
}

impl LabelError {
    /// The injection site, when this error is synthetic.
    pub fn site(&self) -> Option<&'static str> {
        match self {
            LabelError::Injected { site, .. } => Some(site),
            _ => None,
        }
    }

    /// The key this error counts under in a fault-site histogram.
    pub fn site_key(&self) -> &'static str {
        match self {
            LabelError::Injected { site, .. } => site,
            LabelError::NonFinite { .. } => "non-finite",
            LabelError::Panic { .. } => "panic",
        }
    }
}

impl fmt::Display for LabelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelError::Injected { site, attempt } => {
                write!(f, "injected fault at {site} (attempt {attempt})")
            }
            LabelError::NonFinite { factor } => {
                write!(f, "non-finite measurement at factor {factor}")
            }
            LabelError::Panic { message } => write!(f, "panic: {message}"),
        }
    }
}

/// Granularity of a quarantined work item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineScope {
    /// One loop was dropped; the rest of its benchmark survived.
    Loop,
    /// A whole benchmark was dropped (its labeling crashed).
    Benchmark,
}

impl QuarantineScope {
    fn as_str(self) -> &'static str {
        match self {
            QuarantineScope::Loop => "loop",
            QuarantineScope::Benchmark => "benchmark",
        }
    }
}

/// One work item excluded from the corpus, with the recorded reason.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineEntry {
    /// Whether a loop or a whole benchmark was dropped.
    pub scope: QuarantineScope,
    /// Index of the benchmark the item belongs to.
    pub benchmark: usize,
    /// Loop name (`Loop` scope) or benchmark name (`Benchmark` scope).
    pub name: String,
    /// Human-readable reason (the final [`LabelError`] or panic).
    pub reason: String,
    /// Injection site, when the failure was synthetic.
    pub site: Option<String>,
    /// Attempts consumed before giving up.
    pub attempts: u32,
}

impl QuarantineEntry {
    /// Serializes to a JSON value.
    pub fn to_json(&self) -> Json {
        let mut m = BTreeMap::new();
        m.insert("scope".into(), Json::Str(self.scope.as_str().into()));
        m.insert("benchmark".into(), Json::Num(self.benchmark as f64));
        m.insert("name".into(), Json::Str(self.name.clone()));
        m.insert("reason".into(), Json::Str(self.reason.clone()));
        m.insert(
            "site".into(),
            match &self.site {
                Some(s) => Json::Str(s.clone()),
                None => Json::Null,
            },
        );
        m.insert("attempts".into(), Json::Num(f64::from(self.attempts)));
        Json::Obj(m)
    }
}

/// The outcome of fault-tolerantly labeling one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkOutcome {
    /// Loops that survived the paper's filters.
    pub labeled: Vec<crate::label::LabeledLoop>,
    /// Attempts consumed per labeled loop, aligned with `labeled`
    /// (0 = succeeded on the first try, untouched by any fault).
    pub attempts: Vec<u32>,
    /// Loops dropped after exhausting the retry budget.
    pub quarantined: Vec<QuarantineEntry>,
    /// Faults observed while labeling, by site (every faulted attempt
    /// counts once).
    pub fault_sites: BTreeMap<String, usize>,
}

/// Machine-readable summary of how degraded a labeling run was.
///
/// Written next to `LABEL_ml.json` as `LABEL_degradation.json` by
/// `repro label`. Everything in it is a pure function of the run's
/// inputs (seed, corpus, fault plane), so it is byte-identical at any
/// thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationReport {
    /// Benchmarks in the labeled suite.
    pub benchmarks: usize,
    /// Benchmarks that completed labeling (possibly with loop-level
    /// quarantines).
    pub completed: usize,
    /// Loops labeled successfully.
    pub labeled: usize,
    /// Every quarantined work item, in suite order.
    pub quarantined: Vec<QuarantineEntry>,
    /// Histogram of attempts consumed by *successful* loops
    /// (`0 → n` means `n` loops needed no retry).
    pub retry_histogram: BTreeMap<u32, usize>,
    /// Faults observed, by injection site (plus `"panic"` and
    /// `"non-finite"` for genuine failures).
    pub fault_sites: BTreeMap<String, usize>,
}

/// Schema tag stamped into every degradation report.
pub const DEGRADATION_SCHEMA: &str = "loopml/label-degradation/v1";

impl DegradationReport {
    /// The first benchmark crash that no fault plane injected: a bug, or
    /// a transform-validation deny under `LintLevel::Deny`. Injected
    /// crashes carry their fault site and are expected degradation.
    pub fn uninjected_crash(&self) -> Option<&QuarantineEntry> {
        self.quarantined
            .iter()
            .find(|e| e.scope == QuarantineScope::Benchmark && e.site.is_none())
    }

    /// Quarantined share of all finished work items (labeled +
    /// quarantined). A whole-benchmark quarantine counts once.
    pub fn quarantine_rate(&self) -> f64 {
        let total = self.labeled + self.quarantined.len();
        if total == 0 {
            return 0.0;
        }
        self.quarantined.len() as f64 / total as f64
    }

    /// Serializes the report.
    pub fn to_json(&self) -> Json {
        let mut m = BTreeMap::new();
        m.insert("schema".into(), Json::Str(DEGRADATION_SCHEMA.into()));
        m.insert("benchmarks".into(), Json::Num(self.benchmarks as f64));
        m.insert("completed".into(), Json::Num(self.completed as f64));
        m.insert("labeled".into(), Json::Num(self.labeled as f64));
        m.insert(
            "quarantined".into(),
            Json::Num(self.quarantined.len() as f64),
        );
        m.insert("quarantine_rate".into(), Json::Num(self.quarantine_rate()));
        m.insert(
            "quarantine".into(),
            Json::Arr(
                self.quarantined
                    .iter()
                    .map(QuarantineEntry::to_json)
                    .collect(),
            ),
        );
        m.insert(
            "retry_histogram".into(),
            Json::Obj(
                self.retry_histogram
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(*v as f64)))
                    .collect(),
            ),
        );
        m.insert(
            "fault_sites".into(),
            Json::Obj(
                self.fault_sites
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                    .collect(),
            ),
        );
        Json::Obj(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> QuarantineEntry {
        QuarantineEntry {
            scope: QuarantineScope::Loop,
            benchmark: 3,
            name: "171.swim/loop004_stencil".into(),
            reason: "injected fault at label.measure (attempt 3)".into(),
            site: Some("label.measure".into()),
            attempts: 4,
        }
    }

    #[test]
    fn degradation_report_serializes_and_rates() {
        let r = DegradationReport {
            benchmarks: 10,
            completed: 9,
            labeled: 95,
            quarantined: vec![entry()],
            retry_histogram: [(0u32, 90usize), (1, 5)].into_iter().collect(),
            fault_sites: [("label.measure".to_string(), 7usize)]
                .into_iter()
                .collect(),
        };
        assert!((r.quarantine_rate() - 1.0 / 96.0).abs() < 1e-12);
        let doc = r.to_json();
        let parsed = Json::parse(&doc.to_string()).expect("valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some(DEGRADATION_SCHEMA)
        );
        assert_eq!(parsed.get("labeled").and_then(Json::as_num), Some(95.0));
    }

    #[test]
    fn label_error_display_and_sites() {
        let e = LabelError::Injected {
            site: "label.measure",
            attempt: 2,
        };
        assert_eq!(e.site(), Some("label.measure"));
        assert!(e.to_string().contains("attempt 2"));
        assert_eq!(LabelError::NonFinite { factor: 3 }.site_key(), "non-finite");
        assert_eq!(
            LabelError::Panic {
                message: "x".into()
            }
            .site_key(),
            "panic"
        );
    }
}
