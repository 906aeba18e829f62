//! `repro lint` — corpus-wide legality-prover scan with coverage stats
//! and the prover/oracle cross-check gate.
//!
//! Verifies the IR of every loop of the corpus, runs the full
//! unroll-and-optimize validation pipeline (verifier, structural
//! checks, legality prover, gated differential oracle) over every
//! unrollable loop at factors `1..=8`, aggregates per-verdict
//! [`LegalityStats`], and enforces the CI gate: **zero denies**, **zero
//! prover/oracle disagreements** and **≥ [`COVERAGE_GATE`] of the
//! affine corpus resolved statically**. The scan is parallel over
//! benchmarks but folds results in benchmark order, and the cross-check
//! sample is a pure hash of (loop name, factor), so stats and JSON are
//! bit-identical at any `LOOPML_THREADS`.

use loopml_corpus::full_suite;
use loopml_ir::Benchmark;
use loopml_lint::{legality, LegalityStats, OracleMode, Report};
use loopml_opt::OptConfig;
use loopml_rt::{par_map, Json};

use crate::Scale;

/// Minimum statically resolved fraction of the affine corpus (loops
/// without indirect references) the gate accepts.
pub const COVERAGE_GATE: f64 = 0.70;

/// Schema tag of the `repro lint --stats` JSON output.
pub const SCHEMA: &str = "loopml/lint-stats/v1";

/// Aggregated result of one corpus scan.
#[derive(Debug)]
pub struct LintScan {
    /// Per-verdict counts over every validated (loop, factor) pair.
    pub stats: LegalityStats,
    /// Every diagnostic the pipeline validation produced.
    pub report: Report,
    /// Benchmarks scanned.
    pub benchmarks: usize,
    /// Loops scanned.
    pub loops: usize,
    /// Loops with at least one indirect reference (explicitly
    /// classified, not silently skipped).
    pub indirect_loops: usize,
}

impl LintScan {
    /// Prover/oracle disagreements found (each is also a deny in the
    /// report).
    pub fn disagreements(&self) -> usize {
        self.stats.disagreements
    }

    /// The machine-readable stats block.
    pub fn to_json(&self) -> Json {
        let s = &self.stats;
        Json::obj([
            ("schema", Json::Str(SCHEMA.into())),
            ("benchmarks", Json::Num(self.benchmarks as f64)),
            ("loops", Json::Num(self.loops as f64)),
            ("indirect_loops", Json::Num(self.indirect_loops as f64)),
            ("pairs", Json::Num(s.total() as f64)),
            ("proven", Json::Num(s.proven as f64)),
            ("refuted", Json::Num(s.refuted as f64)),
            ("unknown_indirect", Json::Num(s.unknown_indirect as f64)),
            ("unknown_ambiguous", Json::Num(s.unknown_ambiguous as f64)),
            ("unknown_irregular", Json::Num(s.unknown_irregular as f64)),
            ("unknown_call", Json::Num(s.unknown_call as f64)),
            ("coverage", Json::Num(s.coverage())),
            ("cross_checked", Json::Num(s.cross_checked as f64)),
            ("disagreements", Json::Num(s.disagreements as f64)),
            ("oracle_runs", Json::Num(s.oracle_runs as f64)),
            ("denies", Json::Num(self.report.deny_count() as f64)),
            ("warnings", Json::Num(self.report.warning_count() as f64)),
        ])
    }

    /// The CI gate: no denies of any kind (a deny is a miscompile, a
    /// refuted transform or a prover/oracle disagreement), and the
    /// affine-corpus coverage threshold.
    pub fn gate(&self) -> Result<(), String> {
        if self.stats.disagreements > 0 {
            return Err(format!(
                "{} prover/oracle disagreement(s) — prover or oracle is wrong",
                self.stats.disagreements
            ));
        }
        if self.report.deny_count() > 0 {
            return Err(format!(
                "{} deny diagnostic(s) in the corpus scan",
                self.report.deny_count()
            ));
        }
        let cov = self.stats.coverage();
        if cov < COVERAGE_GATE {
            return Err(format!(
                "prover coverage {:.1}% of the affine corpus is below the {:.0}% gate",
                cov * 100.0,
                COVERAGE_GATE * 100.0
            ));
        }
        Ok(())
    }
}

/// Scans `suite` at factors `1..=max_factor` under `mode`, folding
/// per-benchmark results in suite order (thread-count invariant). Loops
/// that are not unrollable are only verified: the pipeline validation
/// verifies the others itself.
pub fn scan_suite(suite: &[Benchmark], max_factor: u32, mode: OracleMode) -> LintScan {
    let opt = OptConfig::default();
    let per_bench = par_map(suite, |b| {
        let mut stats = LegalityStats::default();
        let mut report = Report::with_env_suppressions();
        let mut indirect = 0usize;
        for (i, w) in b.loops.iter().enumerate() {
            if !w.body.is_unrollable() {
                let mut vr = loopml_lint::verify_loop(&w.body);
                vr.relocate(|loc| format!("{}/loop{i}/{loc}", b.name));
                report.merge(vr);
                continue;
            }
            if legality::has_indirect(&w.body) {
                indirect += 1;
            }
            for f in 1..=max_factor {
                let mut pv = loopml_lint::validate_pipeline_full(&w.body, f, &opt, mode);
                pv.report
                    .relocate(|loc| format!("{}/loop{i}/f{f}/{loc}", b.name));
                if pv.report.has_rule(loopml_lint::rules::XF_LEGALITY_DISAGREE) {
                    stats.disagreements += 1;
                }
                stats.cross_checked += usize::from(pv.cross_checked);
                stats.oracle_runs += pv.oracle_runs;
                if let Some(v) = &pv.verdict {
                    stats.record(v);
                }
                report.merge(pv.report);
            }
        }
        (stats, report, indirect)
    });

    let mut stats = LegalityStats::default();
    let mut report = Report::with_env_suppressions();
    let mut indirect_loops = 0;
    for (s, r, ind) in per_bench {
        stats.merge(&s);
        report.merge(r);
        indirect_loops += ind;
    }
    LintScan {
        stats,
        report,
        benchmarks: suite.len(),
        loops: suite.iter().map(|b| b.len()).sum(),
        indirect_loops,
    }
}

/// Builds the corpus at `scale` (optionally truncated to `take`
/// benchmarks, multiplied by `corpus_scale`) and scans it under
/// [`OracleMode::ProverGated`].
pub fn run_lint(scale: Scale, take: Option<usize>, corpus_scale: usize) -> LintScan {
    let mut suite = full_suite(&scale.suite_config_at(corpus_scale));
    if let Some(n) = take {
        suite.truncate(n);
    }
    scan_suite(&suite, 8, OracleMode::ProverGated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopml_corpus::SuiteConfig;
    use loopml_rt::with_threads;

    fn small_suite() -> Vec<Benchmark> {
        let mut suite = full_suite(&SuiteConfig {
            min_loops: 8,
            max_loops: 12,
            ..SuiteConfig::default()
        });
        suite.truncate(4);
        suite
    }

    #[test]
    fn scan_passes_the_gate_on_the_quick_corpus() {
        let scan = scan_suite(&small_suite(), 8, OracleMode::ProverGated);
        assert!(scan.stats.total() > 0);
        scan.gate().expect("gate");
        // The prover must be paying for itself: some pairs proven, and
        // far fewer oracle runs than pairs.
        assert!(scan.stats.proven > 0);
        assert!(scan.stats.oracle_runs < scan.stats.total());
        // Indirect loops are recorded, not silently dropped.
        if scan.indirect_loops > 0 {
            assert!(scan.stats.unknown_indirect > 0);
            assert!(scan
                .report
                .has_rule(loopml_lint::rules::XF_INDIRECT_UNVERIFIED));
        }
    }

    #[test]
    fn a_malformed_non_unrollable_loop_fails_the_gate() {
        use loopml_ir::{LoopBuilder, Opcode, TripCount, WeightedLoop};
        let mut suite = small_suite();
        // The call keeps the loop out of unrolling; the unpredicated
        // latch breaks the single-latch invariant the verifier denies.
        let mut lb = LoopBuilder::new("lint/broken-call", TripCount::Known(64));
        lb.call();
        let mut body = lb.build();
        let latch = body.body.iter_mut().find(|i| i.opcode == Opcode::Br);
        latch.expect("a latch").predicate = None;
        assert!(!body.is_unrollable());
        suite[0].loops.push(WeightedLoop {
            body,
            weight: 1.0,
            entries: 1,
        });
        let scan = scan_suite(&suite, 2, OracleMode::ProverGated);
        assert!(scan.report.has_rule(loopml_lint::rules::IR_CFG));
        assert!(scan.report.deny_count() > 0);
        assert!(scan.gate().is_err());
    }

    #[test]
    fn scan_is_thread_invariant() {
        let suite = small_suite();
        let scan =
            |threads| with_threads(threads, || scan_suite(&suite, 4, OracleMode::ProverGated));
        let a = scan(1);
        for threads in [2, 5] {
            let b = scan(threads);
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.to_json().to_string(), b.to_json().to_string());
        }
    }

    #[test]
    fn oracle_mode_always_runs_more_oracles_with_identical_verdicts() {
        let suite = small_suite();
        let gated = scan_suite(&suite, 4, OracleMode::ProverGated);
        let always = scan_suite(&suite, 4, OracleMode::Always);
        assert!(always.stats.oracle_runs > gated.stats.oracle_runs);
        // Verdict distribution is a property of the corpus, not the mode.
        assert_eq!(gated.stats.proven, always.stats.proven);
        assert_eq!(gated.stats.unknown_indirect, always.stats.unknown_indirect);
        // And the full oracle sweep agrees with the prover everywhere.
        assert_eq!(always.report.deny_count(), 0);
    }
}
