//! `repro label` / `repro label-diff` — the fault-tolerant labeling CLI.
//!
//! `repro label` synthesizes the corpus and labels it through
//! [`loopml::label_suite_resilient`]: transient faults (injected via
//! `LOOPML_FAULTS`, or genuine panics) are retried and quarantined
//! rather than fatal, completed benchmarks are checkpointed for
//! `--resume`, and the run emits two artifacts:
//!
//! * the labels file (`LABEL_ml.json` by default) — schema
//!   [`LABELS_SCHEMA`], every surviving label with the attempt it
//!   succeeded on, byte-stable across thread counts and resumes;
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

use std::path::PathBuf;

use loopml::{
    labeled_from_json, labeled_to_json, DegradationReport, LabelConfig, LabelRun, ResilienceConfig,
    Shard,
};
use loopml_corpus::full_suite;
use loopml_lint::lint_quarantine;
use loopml_machine::SwpMode;
use loopml_rt::Json;

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
    /// Checkpoint directory (`None` disables checkpointing).
    pub ckpt_dir: Option<PathBuf>,
    /// Reuse valid checkpoints instead of relabeling.
    pub resume: bool,
    /// Retry budget override.
    pub retries: Option<u32>,
    /// Corpus size multiplier (`--corpus-scale`, default 1).
    pub corpus_scale: usize,
    /// Label only this shard of the suite (`--shard i/N`).
    pub shard: Option<Shard>,
}

impl Default for LabelArgs {
    fn default() -> Self {
        LabelArgs {
            scale: Scale::Full,
            take: None,
            out: PathBuf::from("LABEL_ml.json"),
            degradation: PathBuf::from("LABEL_degradation.json"),
            ckpt_dir: None,
            resume: false,
            retries: None,
            corpus_scale: 1,
            shard: None,
        }
    }
}

/// Renders the labels document: schema, pipelining regime, every label
/// (with attempts) in suite order, and the quarantine/degradation
/// summary inline so the file is self-describing.
pub fn labels_to_json(run: &LabelRun, swp: SwpMode) -> Json {
    labels_to_json_sharded(run, swp, None)
}

/// Stable fingerprint of a shard document's payload (the canonical
/// serialization of its labels array and degradation block). Written
/// into the `"shard"` block and recomputed by `repro label-merge`, so
/// a shard file corrupted after it was written — a truncated labels
/// array, a bit-flipped measurement — is detected instead of silently
/// merged. The canonical JSON printer makes re-serialization of a
/// parsed document byte-identical to what the writer hashed.
pub fn shard_payload_fingerprint(labels: &Json, degradation: &Json) -> u64 {
    loopml_rt::fault_key_str(&format!("{labels}\n{degradation}"))
}

/// [`labels_to_json`] for a shard run: identical document plus a
/// `"shard"` block recording which slice of the work queue this file
/// covers and a payload fingerprint for corruption detection.
/// `repro label-merge` validates those blocks and emits the merged
/// document *without* one, so a merged file is byte-identical to a
/// single-process `repro label` output.
pub fn labels_to_json_sharded(run: &LabelRun, swp: SwpMode, shard: Option<Shard>) -> Json {
    let labels = Json::Arr(
        run.labeled
            .iter()
            .zip(&run.attempts)
            .map(|(l, &a)| labeled_to_json(l, a))
            .collect(),
    );
    let degradation = run.report.to_json();
    let mut m = std::collections::BTreeMap::new();
    if let Some(s) = shard {
        m.insert(
            "shard".into(),
            Json::obj([
                ("index", Json::Num(s.index as f64)),
                ("count", Json::Num(s.count as f64)),
                (
                    "fingerprint",
                    Json::Str(format!(
                        "{:#018x}",
                        shard_payload_fingerprint(&labels, &degradation)
                    )),
                ),
            ]),
        );
    }
    m.insert("schema".into(), Json::Str(LABELS_SCHEMA.into()));
    m.insert(
        "swp".into(),
        Json::Str(
            match swp {
                SwpMode::Disabled => "disabled",
                SwpMode::Enabled => "enabled",
            }
            .into(),
        ),
    );
    m.insert("labels".into(), labels);
    m.insert("degradation".into(), degradation);
    Json::Obj(m)
}

/// Runs `repro label`. Returns the degradation-lint report's deny count
/// (nonzero means the run should exit with failure), or an error when
/// a benchmark crashed with no fault injected (see [`finish_label`]).
pub fn run_label(args: &LabelArgs) -> Result<usize, String> {
    let mut suite = full_suite(&args.scale.suite_config_at(args.corpus_scale));
    if let Some(n) = args.take {
        suite.truncate(n);
    }
    let cfg = LabelConfig::paper(SwpMode::Disabled);
    let mut res = ResilienceConfig {
        ckpt_dir: args.ckpt_dir.clone(),
        resume: args.resume,
        ..ResilienceConfig::default()
    };
    if let Some(r) = args.retries {
        res.retry_budget = r;
    }
    if res.faults.is_active() {
        eprintln!("[label] fault plane active: {:?}", res.faults);
    }
    if let Some(s) = args.shard {
        eprintln!("[label] shard {}/{}", s.index, s.count);
    }
    let run = loopml::label_suite_resilient(&suite, &cfg, &res, args.shard);
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
    write(&args.out, &labels_to_json_sharded(run, swp, args.shard))?;
    write(&args.degradation, &run.report.to_json())?;

    let r = &run.report;
    eprintln!(
        "[label] {}/{} benchmarks completed ({} resumed), {} loops labeled, {} quarantined ({:.1}%)",
        r.completed,
        r.benchmarks,
        r.resumed,
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

fn label_map(doc: &Json) -> Result<std::collections::BTreeMap<String, &Json>, String> {
    if doc.get("schema").and_then(Json::as_str) != Some(LABELS_SCHEMA) {
        return Err(format!("not a {LABELS_SCHEMA} document"));
    }
    let labels = doc
        .get("labels")
        .and_then(Json::as_arr)
        .ok_or("missing labels array")?;
    let mut out = std::collections::BTreeMap::new();
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

/// Why a shard merge was refused, split by exit-code contract: a
/// malformed shard *set* (duplicate, missing or overlapping shards) is
/// a usage error ([`crate::cli::EXIT_USAGE`]), while an unreadable or
/// corrupt shard *document* is a data failure
/// ([`crate::cli::EXIT_FAIL`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// The set of shard files given cannot form one complete disjoint
    /// run: duplicates, gaps, disagreeing counts, labels outside the
    /// shard that claims them. Fix the invocation.
    Spec(String),
    /// A shard file is unreadable, unparseable, or fails its payload
    /// fingerprint (corrupted or truncated after writing). Re-run the
    /// shard.
    Data(String),
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Spec(m) => write!(f, "shard set rejected: {m}"),
            MergeError::Data(m) => write!(f, "shard data rejected: {m}"),
        }
    }
}

/// Merges the labels files of a complete, disjoint set of shard runs
/// (`repro label-merge <shard.json>... --out FILE`) into one document
/// that is byte-identical to a single-process `repro label` run over the
/// same suite. Validates that every shard is present exactly once, that
/// all shards agree on the shard count and pipelining regime, that every
/// label lies in the shard that claims it, and that each document's
/// payload matches its recorded [`shard_payload_fingerprint`]; the
/// merged labels are interleaved back into global suite order (each
/// label records its global benchmark index) and the degradation
/// accounting is summed (optionally written to `degradation_out`,
/// byte-identical to the single-process degradation report).
pub fn run_label_merge(
    shard_paths: &[String],
    out: &PathBuf,
    degradation_out: Option<&std::path::Path>,
) -> Result<(), MergeError> {
    if shard_paths.is_empty() {
        return Err(MergeError::Spec("no shard files given".into()));
    }
    struct ShardDoc {
        shard: Shard,
        path: String,
        labels: Vec<(loopml::LabeledLoop, u32)>,
        report: DegradationReport,
        swp: String,
    }
    let mut docs: Vec<ShardDoc> = Vec::new();
    for path in shard_paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| MergeError::Data(format!("read {path}: {e}")))?;
        let doc = Json::parse(&text).map_err(|e| MergeError::Data(format!("parse {path}: {e}")))?;
        if doc.get("schema").and_then(Json::as_str) != Some(LABELS_SCHEMA) {
            return Err(MergeError::Data(format!(
                "{path}: not a {LABELS_SCHEMA} document"
            )));
        }
        let shard_block = doc.get("shard").ok_or_else(|| {
            MergeError::Spec(format!(
                "{path}: not a shard labels file (missing shard block)"
            ))
        })?;
        let index = shard_block
            .get("index")
            .and_then(Json::as_usize)
            .ok_or_else(|| MergeError::Spec(format!("{path}: bad shard.index")))?;
        let count = shard_block
            .get("count")
            .and_then(Json::as_usize)
            .ok_or_else(|| MergeError::Spec(format!("{path}: bad shard.count")))?;
        if count == 0 || index >= count {
            return Err(MergeError::Spec(format!(
                "{path}: bad shard spec {index}/{count}"
            )));
        }
        // Corruption gate: the payload must hash to the fingerprint the
        // shard process recorded when it wrote the file.
        let recorded = shard_block
            .get("fingerprint")
            .and_then(Json::as_str)
            .ok_or_else(|| {
                MergeError::Data(format!("{path}: shard block has no payload fingerprint"))
            })?;
        let labels_doc = doc
            .get("labels")
            .ok_or_else(|| MergeError::Data(format!("{path}: missing labels array")))?;
        let degradation_doc = doc
            .get("degradation")
            .ok_or_else(|| MergeError::Data(format!("{path}: missing degradation block")))?;
        let computed = format!(
            "{:#018x}",
            shard_payload_fingerprint(labels_doc, degradation_doc)
        );
        if recorded != computed {
            return Err(MergeError::Data(format!(
                "{path}: payload fingerprint {computed} does not match recorded {recorded} \
                 (shard file corrupted or truncated after writing)"
            )));
        }
        let shard = Shard { index, count };
        let swp = doc
            .get("swp")
            .and_then(Json::as_str)
            .ok_or_else(|| MergeError::Data(format!("{path}: missing swp")))?
            .to_string();
        let labels: Vec<(loopml::LabeledLoop, u32)> = labels_doc
            .as_arr()
            .ok_or_else(|| MergeError::Data(format!("{path}: labels is not an array")))?
            .iter()
            .map(labeled_from_json)
            .collect::<Option<_>>()
            .ok_or_else(|| MergeError::Data(format!("{path}: malformed label entry")))?;
        for (l, _) in &labels {
            if !shard.owns(l.benchmark) {
                return Err(MergeError::Spec(format!(
                    "{path}: label {} (benchmark {}) outside shard {index}/{count} \
                     (overlapping shard specs?)",
                    l.name, l.benchmark
                )));
            }
        }
        let report = DegradationReport::from_json(degradation_doc)
            .ok_or_else(|| MergeError::Data(format!("{path}: malformed degradation block")))?;
        docs.push(ShardDoc {
            shard,
            path: path.clone(),
            labels,
            report,
            swp,
        });
    }

    let count = docs[0].shard.count;
    let swp_str = docs[0].swp.clone();
    if docs.len() != count {
        return Err(MergeError::Spec(format!(
            "expected {count} shard file(s), got {}",
            docs.len()
        )));
    }
    docs.sort_by_key(|d| d.shard.index);
    for (i, d) in docs.iter().enumerate() {
        if d.shard.count != count {
            return Err(MergeError::Spec(format!(
                "{}: shard count {} disagrees with {count}",
                d.path, d.shard.count
            )));
        }
        if d.shard.index != i {
            return Err(MergeError::Spec(format!(
                "shard {i}/{count} missing or duplicated"
            )));
        }
        if d.swp != swp_str {
            return Err(MergeError::Spec(format!(
                "{}: swp {:?} disagrees with {swp_str:?}",
                d.path, d.swp
            )));
        }
    }
    let swp = match swp_str.as_str() {
        "disabled" => SwpMode::Disabled,
        "enabled" => SwpMode::Enabled,
        other => return Err(MergeError::Data(format!("unknown swp regime {other:?}"))),
    };

    // Interleave back into global suite order. Each benchmark is owned
    // by exactly one shard and each shard's labels are already in suite
    // order, so a stable sort on the global benchmark index reproduces
    // the single-process sequence exactly. Same for quarantine entries.
    let mut pairs: Vec<(loopml::LabeledLoop, u32)> =
        docs.iter().flat_map(|d| d.labels.iter().cloned()).collect();
    pairs.sort_by_key(|(l, _)| l.benchmark);
    let mut quarantined: Vec<loopml::QuarantineEntry> = docs
        .iter()
        .flat_map(|d| d.report.quarantined.iter().cloned())
        .collect();
    quarantined.sort_by_key(|q| q.benchmark);
    let mut retry_histogram = std::collections::BTreeMap::new();
    let mut fault_sites = std::collections::BTreeMap::new();
    for d in &docs {
        for (&k, &v) in &d.report.retry_histogram {
            *retry_histogram.entry(k).or_insert(0) += v;
        }
        for (k, &v) in &d.report.fault_sites {
            *fault_sites.entry(k.clone()).or_insert(0) += v;
        }
    }
    let report = DegradationReport {
        benchmarks: docs.iter().map(|d| d.report.benchmarks).sum(),
        completed: docs.iter().map(|d| d.report.completed).sum(),
        labeled: docs.iter().map(|d| d.report.labeled).sum(),
        quarantined,
        retry_histogram,
        fault_sites,
        resumed: 0,
    };
    let (labeled, attempts): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
    let run = LabelRun {
        labeled,
        attempts,
        report,
    };
    let doc = labels_to_json(&run, swp);
    std::fs::write(out, format!("{doc}\n"))
        .map_err(|e| MergeError::Data(format!("write {}: {e}", out.display())))?;
    if let Some(path) = degradation_out {
        let deg = run.report.to_json();
        std::fs::write(path, format!("{deg}\n"))
            .map_err(|e| MergeError::Data(format!("write {}: {e}", path.display())))?;
    }
    eprintln!(
        "[label-merge] merged {count} shard(s): {} labels across {} benchmark(s) -> {}",
        run.labeled.len(),
        run.report.benchmarks,
        out.display()
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
        use loopml_rt::{fault::site, FaultPlane};
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
        let res = |faults| ResilienceConfig {
            faults,
            ..ResilienceConfig::default()
        };

        let dir = std::env::temp_dir().join("loopml_label_crash_unit");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let args = LabelArgs {
            out: dir.join("labels.json"),
            degradation: dir.join("degradation.json"),
            ..LabelArgs::default()
        };
        let run = loopml::label_suite_resilient(&broken, &cfg, &res(FaultPlane::disabled()), None);
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
        let run = loopml::label_suite_resilient(&clean, &cfg, &res(plane), None);
        assert_eq!(run.report.quarantined.len(), 1);
        assert_eq!(finish_label(&run, cfg.swp, &args), Ok(0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merged_shards_are_byte_identical_to_single_process() {
        use loopml_corpus::SuiteConfig;
        let suite: Vec<_> = full_suite(&SuiteConfig {
            min_loops: 4,
            max_loops: 6,
            ..SuiteConfig::default()
        })
        .into_iter()
        .take(7)
        .collect();
        let cfg = LabelConfig::paper(SwpMode::Disabled);
        let res = ResilienceConfig::default();
        let single = labels_to_json(
            &loopml::label_suite_resilient(&suite, &cfg, &res, None),
            cfg.swp,
        );

        let dir = std::env::temp_dir().join("loopml_label_merge_unit");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let count = 3;
        let paths: Vec<String> = (0..count)
            .map(|index| {
                let shard = Shard { index, count };
                let run = loopml::label_suite_resilient(&suite, &cfg, &res, Some(shard));
                let path = dir.join(format!("shard{index}.json"));
                let doc = labels_to_json_sharded(&run, cfg.swp, Some(shard));
                std::fs::write(&path, format!("{doc}\n")).unwrap();
                path.to_string_lossy().into_owned()
            })
            .collect();
        let out = dir.join("merged.json");
        run_label_merge(&paths, &out, None).expect("merge succeeds");
        let merged = std::fs::read_to_string(&out).unwrap();
        assert_eq!(
            merged,
            format!("{single}\n"),
            "merge must be byte-identical"
        );

        // An incomplete shard set and a duplicated shard are *spec*
        // errors (exit 2 territory), not data corruption.
        assert!(matches!(
            run_label_merge(&paths[..2], &out, None),
            Err(MergeError::Spec(_))
        ));
        let dup = vec![paths[0].clone(), paths[0].clone(), paths[1].clone()];
        assert!(matches!(
            run_label_merge(&dup, &out, None),
            Err(MergeError::Spec(_))
        ));

        // A corrupted shard payload trips the fingerprint gate: flip one
        // byte inside the labels array and the merge must refuse with a
        // *data* error naming the fingerprint mismatch.
        let original = std::fs::read_to_string(&paths[1]).unwrap();
        let corrupt = original.replacen("\"label\":", "\"label\":9", 1);
        assert_ne!(original, corrupt, "corruption must change the payload");
        std::fs::write(&paths[1], &corrupt).unwrap();
        match run_label_merge(&paths, &out, None) {
            Err(MergeError::Data(m)) => {
                assert!(m.contains("fingerprint"), "unexpected diagnostic: {m}")
            }
            other => panic!("corrupt shard must be a data error, got {other:?}"),
        }
        // A truncated shard is also caught (as a parse failure).
        std::fs::write(&paths[1], &original[..original.len() / 2]).unwrap();
        assert!(matches!(
            run_label_merge(&paths, &out, None),
            Err(MergeError::Data(_))
        ));
        std::fs::write(&paths[1], &original).unwrap();

        // The optional degradation sidecar matches the single-process
        // report byte-for-byte.
        let deg_out = dir.join("merged_degradation.json");
        run_label_merge(&paths, &out, Some(&deg_out)).expect("merge succeeds");
        let single_run = loopml::label_suite_resilient(&suite, &cfg, &res, None);
        let want_deg = format!("{}\n", single_run.report.to_json());
        assert_eq!(std::fs::read_to_string(&deg_out).unwrap(), want_deg);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn empty_run() -> LabelRun {
        LabelRun {
            labeled: vec![],
            attempts: vec![],
            report: loopml::DegradationReport {
                benchmarks: 0,
                completed: 0,
                labeled: 0,
                quarantined: vec![],
                retry_histogram: Default::default(),
                fault_sites: Default::default(),
                resumed: 0,
            },
        }
    }

    #[test]
    fn fractional_shard_index_is_a_spec_error() {
        let dir = std::env::temp_dir().join(format!("loopml_merge_whole_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard.json");
        let paths = vec![path.to_string_lossy().into_owned()];
        let out = dir.join("merged.json");
        let shard = Shard { index: 0, count: 1 };
        let doc = labels_to_json_sharded(&empty_run(), SwpMode::Disabled, Some(shard)).to_string();
        std::fs::write(&path, &doc).unwrap();
        assert_eq!(run_label_merge(&paths, &out, None), Ok(()));
        // The shard block sits outside the payload fingerprint, so only
        // the whole-number rule stands between 0.5 and shard 0.
        std::fs::write(&path, doc.replace("\"index\":0", "\"index\":0.5")).unwrap();
        assert!(matches!(
            run_label_merge(&paths, &out, None),
            Err(MergeError::Spec(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn labels_document_shape() {
        let run = empty_run();
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
