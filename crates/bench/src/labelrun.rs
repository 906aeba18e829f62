//! `repro label` / `repro label-diff` — the fault-tolerant labeling CLI.
//!
//! `repro label` synthesizes the corpus and labels it in-process through
//! [`loopml::label_suite_resilient`]: transient faults (injected via
//! `LOOPML_FAULTS`, or genuine panics) are retried and quarantined
//! rather than fatal, and the run emits two artifacts:
//!
//! * the labels file (`LABEL_ml.json` by default) — schema
//!   [`LABELS_SCHEMA`], every surviving label with the attempt it
//!   succeeded on, byte-stable across thread counts;
//! * the degradation report (`LABEL_degradation.json`) — schema
//!   [`loopml::DEGRADATION_SCHEMA`], what was retried, quarantined and
//!   at which fault sites.
//!
//! `repro label-diff` compares a chaos run against a clean run: every
//! label the chaos run produced *without retries* (`attempts == 0`) must
//! be bit-identical to the clean run's label for the same loop — the
//! fault plane may cost coverage, never accuracy. Retried loops were
//! legitimately re-measured under fresh seeds (see `DESIGN.md` §9) and
//! are checked for presence, not equality.

use std::collections::BTreeMap;
use std::path::PathBuf;

use loopml::{LabelConfig, LabelRun, LabeledLoop};
use loopml_corpus::full_suite;
use loopml_lint::lint_quarantine;
use loopml_machine::SwpMode;
use loopml_rt::{FaultPlane, Json};

use crate::cli::Scale;

/// Schema tag of the `repro label` output file.
pub const LABELS_SCHEMA: &str = "loopml/labels/v1";

/// Parsed `repro label` options.
#[derive(Debug, Clone)]
pub struct LabelArgs {
    /// Corpus scale.
    pub scale: Scale,
    /// Keep only the first `n` benchmarks (smoke runs).
    pub take: Option<usize>,
    /// Labels output path.
    pub out: PathBuf,
    /// Degradation report output path.
    pub degradation: PathBuf,
    /// Corpus size multiplier (`--corpus-scale`, default 1).
    pub corpus_scale: usize,
}

impl Default for LabelArgs {
    fn default() -> Self {
        LabelArgs {
            scale: Scale::Full,
            take: None,
            out: PathBuf::from("LABEL_ml.json"),
            degradation: PathBuf::from("LABEL_degradation.json"),
            corpus_scale: 1,
        }
    }
}

/// Serializes one labeled loop, plus the attempt it succeeded on.
fn labeled_to_json(l: &LabeledLoop, attempts: u32) -> Json {
    Json::obj([
        ("name", Json::Str(l.name.clone())),
        ("benchmark", Json::Num(l.benchmark as f64)),
        ("label", Json::Num(l.label as f64)),
        ("features", Json::from_f64s(&l.features)),
        ("runtimes", Json::from_f64s(&l.runtimes)),
        ("attempts", Json::Num(f64::from(attempts))),
    ])
}

/// Renders the labels document: schema, pipelining regime, every label
/// (with attempts) in suite order, and the quarantine/degradation
/// summary inline so the file is self-describing.
pub fn labels_to_json(run: &LabelRun, swp: SwpMode) -> Json {
    let labels = run
        .labeled
        .iter()
        .zip(&run.attempts)
        .map(|(l, &a)| labeled_to_json(l, a))
        .collect();
    let swp = match swp {
        SwpMode::Disabled => "disabled",
        SwpMode::Enabled => "enabled",
    };
    Json::obj([
        ("schema", Json::Str(LABELS_SCHEMA.into())),
        ("swp", Json::Str(swp.into())),
        ("labels", Json::Arr(labels)),
        ("degradation", run.report.to_json()),
    ])
}

/// Runs `repro label` under the environment's fault plane. Returns the
/// degradation-lint report's deny count (nonzero means the run should
/// exit with failure), or an error when a benchmark crashed with no
/// fault injected (see [`finish_label`]).
pub fn run_label(args: &LabelArgs) -> Result<usize, String> {
    let mut suite = full_suite(&args.scale.suite_config_at(args.corpus_scale));
    if let Some(n) = args.take {
        suite.truncate(n);
    }
    let cfg = LabelConfig::paper(SwpMode::Disabled);
    let faults = FaultPlane::env_or_disabled();
    if faults.is_active() {
        eprintln!("[label] fault plane active: {faults:?}");
    }
    let run = loopml::label_suite_resilient(&suite, &cfg, &faults);
    finish_label(&run, cfg.swp, args)
}

/// Writes `run`'s labels and degradation report to `args`' paths,
/// prints its summary and lints its quarantine rate; returns the lint's
/// deny count. A benchmark crash that no fault plane injected (a bug,
/// or a transform-validation deny under `LOOPML_LINT=deny`) is an
/// error, returned after both files are written so its quarantine
/// entry stays on record. Injected crashes are expected degradation.
fn finish_label(run: &LabelRun, swp: SwpMode, args: &LabelArgs) -> Result<usize, String> {
    let write = |path: &PathBuf, doc: &Json| -> Result<(), String> {
        std::fs::write(path, format!("{doc}\n"))
            .map_err(|e| format!("write {}: {e}", path.display()))
    };
    write(&args.out, &labels_to_json(run, swp))?;
    write(&args.degradation, &run.report.to_json())?;

    let r = &run.report;
    eprintln!(
        "[label] {}/{} benchmarks completed, {} loops labeled, {} quarantined ({:.1}%)",
        r.completed,
        r.benchmarks,
        r.labeled,
        r.quarantined.len(),
        r.quarantine_rate() * 100.0
    );
    eprintln!(
        "[label] wrote {} and {}",
        args.out.display(),
        args.degradation.display()
    );
    let lint = lint_quarantine(r.labeled, r.quarantined.len());
    if !lint.is_empty() {
        eprintln!("[label] {lint}");
    }
    if let Some(e) = r.uninjected_crash() {
        return Err(format!(
            "benchmark {} crashed with no fault injected: {}",
            e.name, e.reason
        ));
    }
    Ok(lint.deny_count())
}

fn bits(v: &Json) -> Option<u64> {
    v.as_num().map(f64::to_bits)
}

fn label_map(doc: &Json) -> Result<BTreeMap<String, &Json>, String> {
    if doc.get("schema").and_then(Json::as_str) != Some(LABELS_SCHEMA) {
        return Err(format!("not a {LABELS_SCHEMA} document"));
    }
    let labels = doc
        .get("labels")
        .and_then(Json::as_arr)
        .ok_or("missing labels array")?;
    let mut out = BTreeMap::new();
    for l in labels {
        let name = l
            .get("name")
            .and_then(Json::as_str)
            .ok_or("label without name")?;
        out.insert(name.to_string(), l);
    }
    Ok(out)
}

/// Compares a chaos labels file against a clean one (`repro label-diff
/// <clean> <chaos> [--expect-quarantine]`): every chaos label with
/// `attempts == 0` must be bit-identical (label, features, runtimes) to
/// the clean label of the same loop. With `--expect-quarantine`, the
/// chaos run must also have quarantined at least one work item (so a
/// chaos harness can't silently run fault-free).
pub fn run_label_diff(
    clean_path: &str,
    chaos_path: &str,
    expect_quarantine: bool,
) -> Result<(), String> {
    let read = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))
    };
    let clean = read(clean_path)?;
    let chaos = read(chaos_path)?;
    let clean_labels = label_map(&clean).map_err(|e| format!("{clean_path}: {e}"))?;
    let chaos_labels = label_map(&chaos).map_err(|e| format!("{chaos_path}: {e}"))?;

    let mut untouched = 0usize;
    let mut retried = 0usize;
    for (name, l) in &chaos_labels {
        let attempts = l
            .get("attempts")
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("{name}: attempts is not a whole number"))?;
        if attempts > 0 {
            // Retried loops were re-measured under fresh seeds; they only
            // need to exist. (DESIGN.md §9.)
            retried += 1;
            continue;
        }
        let c = clean_labels
            .get(name)
            .ok_or_else(|| format!("{name}: labeled in chaos run but not in clean run"))?;
        if l.get("label").and_then(Json::as_num) != c.get("label").and_then(Json::as_num) {
            return Err(format!("{name}: label differs from clean run"));
        }
        for field in ["features", "runtimes"] {
            let a = l.get(field).and_then(Json::as_arr).unwrap_or(&[]);
            let b = c.get(field).and_then(Json::as_arr).unwrap_or(&[]);
            if a.len() != b.len() || a.iter().zip(b).any(|(x, y)| bits(x) != bits(y)) {
                return Err(format!("{name}: {field} differ bit-wise from clean run"));
            }
        }
        untouched += 1;
    }

    let quarantined = chaos
        .get("degradation")
        .and_then(|d| d.get("quarantine"))
        .and_then(Json::as_arr)
        .map(<[Json]>::len)
        .unwrap_or(0);
    if expect_quarantine && quarantined == 0 {
        return Err("expected quarantined work items, found none".into());
    }
    eprintln!(
        "[label-diff] ok: {untouched} untouched labels bit-identical to clean, \
         {retried} retried, {quarantined} quarantined"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_uninjected_crash_fails_the_run_after_writing_both_files() {
        use loopml_corpus::SuiteConfig;
        use loopml_lint::LintLevel;
        use loopml_rt::fault::site;
        let clean: Vec<_> = full_suite(&SuiteConfig {
            min_loops: 4,
            max_loops: 6,
            ..SuiteConfig::default()
        })
        .into_iter()
        .take(3)
        .collect();
        // Unpredicate benchmark 1's first latch: transform validation
        // denies the loop, so under LintLevel::Deny labeling the
        // benchmark panics with no fault injected.
        let mut broken = clean.clone();
        let (li, _) = broken[1].unrollable().next().expect("an unrollable loop");
        let body = &mut broken[1].loops[li].body.body;
        let latch = body.iter_mut().find(|i| i.opcode == loopml_ir::Opcode::Br);
        latch.expect("a latch").predicate = None;
        let cfg = LabelConfig {
            lint: LintLevel::Deny,
            ..LabelConfig::paper(SwpMode::Disabled)
        };

        let dir = std::env::temp_dir().join("loopml_label_crash_unit");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let args = LabelArgs {
            out: dir.join("labels.json"),
            degradation: dir.join("degradation.json"),
            ..LabelArgs::default()
        };
        let run = loopml::label_suite_resilient(&broken, &cfg, &FaultPlane::disabled());
        let err = finish_label(&run, cfg.swp, &args).expect_err("an uninjected crash fails");
        assert!(err.contains(&broken[1].name), "{err}");
        // Both files were written first, and the crash is on record as
        // a benchmark quarantine with no fault site.
        assert!(args.out.is_file());
        let deg = Json::parse(&std::fs::read_to_string(&args.degradation).unwrap()).unwrap();
        let q = deg
            .get("quarantine")
            .and_then(Json::as_arr)
            .expect("quarantine");
        assert_eq!(q.len(), 1, "{deg}");
        assert_eq!(q[0].get("scope").and_then(Json::as_str), Some("benchmark"));
        assert_eq!(q[0].get("site"), Some(&Json::Null));

        // The same whole-benchmark loss, injected by the fault plane, is
        // expected degradation and keeps the run green.
        let plane = FaultPlane::new(0, 1.0)
            .at_site(site::LABEL_LOOP)
            .only_keys(vec![1]);
        let run = loopml::label_suite_resilient(&clean, &cfg, &plane);
        assert_eq!(run.report.quarantined.len(), 1);
        assert_eq!(finish_label(&run, cfg.swp, &args), Ok(0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn labels_document_shape() {
        let run = LabelRun {
            labeled: vec![],
            attempts: vec![],
            report: loopml::DegradationReport {
                benchmarks: 0,
                completed: 0,
                labeled: 0,
                quarantined: vec![],
                retry_histogram: Default::default(),
                fault_sites: Default::default(),
            },
        };
        let doc = labels_to_json(&run, SwpMode::Disabled);
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(LABELS_SCHEMA)
        );
        assert_eq!(doc.get("swp").and_then(Json::as_str), Some("disabled"));
        assert!(doc.get("degradation").is_some());
        let reparsed = Json::parse(&doc.to_string()).expect("valid");
        assert_eq!(reparsed.to_string(), doc.to_string());
    }
}
