//! Per-benchmark checkpoint files for killable labeling runs.
//!
//! A production-scale labeling run is hours of work; dying at 95% must
//! not mean starting over. The resilient labeler writes one JSON file
//! per completed benchmark (atomically: temp file + rename), and
//! `repro label --resume` reloads every valid checkpoint instead of
//! relabeling. Because measurements are bit-exact functions of the seed
//! and the zero-dependency [`Json`] writer round-trips every finite
//! `f64` exactly, a resumed run is bit-identical to an uninterrupted
//! one.
//!
//! A checkpoint is only reused when its schema, config fingerprint,
//! benchmark index and benchmark name all match; anything else —
//! missing file, truncation, corruption, a config change — silently
//! falls back to relabeling that benchmark. Corruption can cost time,
//! never correctness.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use loopml_rt::{fault_key, FaultPlane, Json};

use crate::fault::{BenchmarkOutcome, QuarantineEntry};
use crate::label::{LabelConfig, LabeledLoop, MAX_UNROLL};

/// Schema tag stamped into every checkpoint file.
pub const CKPT_SCHEMA: &str = "loopml/label-ckpt/v1";

/// Fingerprint of everything a checkpoint's measurements depend on:
/// the measurement seed, pipelining regime, noise model, the paper's
/// filter thresholds, the retry budget, and the active fault plane
/// (`LOOPML_FAULTS`). Resuming under a different configuration must
/// relabel, not reuse — in particular, a checkpoint written under
/// injected chaos (whose retries shifted attempt seeds and whose
/// quarantine list reflects the injected deaths) must never satisfy a
/// clean resume, nor vice versa.
pub fn config_fingerprint(cfg: &LabelConfig, retry_budget: u32, faults: &FaultPlane) -> u64 {
    fault_key(&[
        cfg.seed,
        cfg.swp as u64,
        cfg.noise.sigma.to_bits(),
        cfg.noise.runs as u64,
        cfg.min_cycles.to_bits(),
        cfg.min_benefit.to_bits(),
        u64::from(MAX_UNROLL),
        u64::from(retry_budget),
        faults.fingerprint(),
    ])
}

/// Path of the checkpoint for benchmark `index` named `name` (the name
/// is sanitized into a filesystem-safe slug).
pub fn checkpoint_path(dir: &Path, index: usize, name: &str) -> PathBuf {
    let slug: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    dir.join(format!("ckpt_{index:03}_{slug}.json"))
}

/// Serializes one labeled loop (plus the attempt it succeeded on) into
/// the JSON shape shared by checkpoints and `repro label` output.
pub fn labeled_to_json(l: &LabeledLoop, attempts: u32) -> Json {
    let mut m = BTreeMap::new();
    m.insert("name".into(), Json::Str(l.name.clone()));
    m.insert("benchmark".into(), Json::Num(l.benchmark as f64));
    m.insert("label".into(), Json::Num(l.label as f64));
    m.insert(
        "features".into(),
        Json::Arr(l.features.iter().map(|&v| Json::Num(v)).collect()),
    );
    m.insert(
        "runtimes".into(),
        Json::Arr(l.runtimes.iter().map(|&v| Json::Num(v)).collect()),
    );
    m.insert("attempts".into(), Json::Num(f64::from(attempts)));
    Json::Obj(m)
}

/// Parses a value written by [`labeled_to_json`].
pub fn labeled_from_json(v: &Json) -> Option<(LabeledLoop, u32)> {
    let features: Vec<f64> = v
        .get("features")?
        .as_arr()?
        .iter()
        .map(Json::as_num)
        .collect::<Option<_>>()?;
    let rts: Vec<f64> = v
        .get("runtimes")?
        .as_arr()?
        .iter()
        .map(Json::as_num)
        .collect::<Option<_>>()?;
    let runtimes: [f64; MAX_UNROLL as usize] = rts.try_into().ok()?;
    let label = v.get("label")?.as_usize()?;
    if label >= MAX_UNROLL as usize {
        return None;
    }
    Some((
        LabeledLoop {
            name: v.get("name")?.as_str()?.to_string(),
            benchmark: v.get("benchmark")?.as_usize()?,
            features,
            label,
            runtimes,
        },
        v.get("attempts")?.as_usize()?.try_into().ok()?,
    ))
}

/// Serializes a benchmark outcome into a checkpoint document.
pub fn outcome_to_json(outcome: &BenchmarkOutcome, fingerprint: u64) -> Json {
    let mut m = BTreeMap::new();
    m.insert("schema".into(), Json::Str(CKPT_SCHEMA.into()));
    m.insert(
        "fingerprint".into(),
        Json::Str(format!("{fingerprint:#018x}")),
    );
    m.insert("benchmark".into(), Json::Num(outcome.benchmark as f64));
    m.insert("name".into(), Json::Str(outcome.name.clone()));
    m.insert(
        "loops".into(),
        Json::Arr(
            outcome
                .labeled
                .iter()
                .zip(&outcome.attempts)
                .map(|(l, &a)| labeled_to_json(l, a))
                .collect(),
        ),
    );
    m.insert(
        "quarantined".into(),
        Json::Arr(
            outcome
                .quarantined
                .iter()
                .map(QuarantineEntry::to_json)
                .collect(),
        ),
    );
    m.insert(
        "fault_sites".into(),
        Json::Obj(
            outcome
                .fault_sites
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                .collect(),
        ),
    );
    Json::Obj(m)
}

/// Parses a checkpoint document, validating schema, fingerprint and
/// benchmark identity. Returns `None` on any mismatch.
pub fn outcome_from_json(
    doc: &Json,
    expect_index: usize,
    expect_name: &str,
    fingerprint: u64,
) -> Option<BenchmarkOutcome> {
    if doc.get("schema")?.as_str()? != CKPT_SCHEMA {
        return None;
    }
    if doc.get("fingerprint")?.as_str()? != format!("{fingerprint:#018x}") {
        return None;
    }
    if doc.get("benchmark")?.as_usize()? != expect_index {
        return None;
    }
    if doc.get("name")?.as_str()? != expect_name {
        return None;
    }
    let mut labeled = Vec::new();
    let mut attempts = Vec::new();
    for l in doc.get("loops")?.as_arr()? {
        let (loop_, a) = labeled_from_json(l)?;
        if loop_.benchmark != expect_index {
            return None;
        }
        labeled.push(loop_);
        attempts.push(a);
    }
    let quarantined: Vec<QuarantineEntry> = doc
        .get("quarantined")?
        .as_arr()?
        .iter()
        .map(QuarantineEntry::from_json)
        .collect::<Option<_>>()?;
    let fault_sites: BTreeMap<String, usize> = match doc.get("fault_sites")? {
        Json::Obj(m) => m
            .iter()
            .map(|(k, v)| Some((k.clone(), v.as_usize()?)))
            .collect::<Option<_>>()?,
        _ => return None,
    };
    Some(BenchmarkOutcome {
        benchmark: expect_index,
        name: expect_name.to_string(),
        labeled,
        attempts,
        quarantined,
        fault_sites,
    })
}

/// Writes `outcome`'s checkpoint atomically (temp file + rename), so a
/// kill mid-write leaves either the old file or none — never a torn
/// document.
pub fn write_checkpoint(
    dir: &Path,
    outcome: &BenchmarkOutcome,
    fingerprint: u64,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = checkpoint_path(dir, outcome.benchmark, &outcome.name);
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, format!("{}\n", outcome_to_json(outcome, fingerprint)))?;
    std::fs::rename(&tmp, &path)
}

/// Loads the checkpoint for benchmark `index`/`name` if present and
/// valid under `fingerprint`; `None` means "relabel this benchmark".
pub fn read_checkpoint(
    dir: &Path,
    index: usize,
    name: &str,
    fingerprint: u64,
) -> Option<BenchmarkOutcome> {
    let text = std::fs::read_to_string(checkpoint_path(dir, index, name)).ok()?;
    let doc = Json::parse(&text).ok()?;
    outcome_from_json(&doc, index, name, fingerprint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::QuarantineScope;
    use loopml_machine::SwpMode;

    fn outcome() -> BenchmarkOutcome {
        BenchmarkOutcome {
            benchmark: 7,
            name: "179.art".into(),
            labeled: vec![LabeledLoop {
                name: "179.art/loop001_dot".into(),
                benchmark: 7,
                features: vec![1.0, 0.25, 1e9, -3.5],
                label: 3,
                runtimes: [7.5e4, 6.1e4, 5.9e4, 5.0e4, 5.2e4, 5.3e4, 5.4e4, 5.5e4],
            }],
            attempts: vec![2],
            quarantined: vec![QuarantineEntry {
                scope: QuarantineScope::Loop,
                benchmark: 7,
                name: "179.art/loop002_saxpy".into(),
                reason: "injected fault at label.measure (attempt 3)".into(),
                site: Some("label.measure".into()),
                attempts: 4,
            }],
            fault_sites: [("label.measure".to_string(), 5usize)]
                .into_iter()
                .collect(),
        }
    }

    #[test]
    fn outcome_round_trips_bit_exactly() {
        let o = outcome();
        let doc = outcome_to_json(&o, 0xABCD);
        let reparsed = Json::parse(&doc.to_string()).expect("valid JSON");
        let back = outcome_from_json(&reparsed, 7, "179.art", 0xABCD).expect("validates");
        assert_eq!(back, o);
    }

    #[test]
    fn mismatches_reject_the_checkpoint() {
        let o = outcome();
        let doc = outcome_to_json(&o, 1);
        assert!(
            outcome_from_json(&doc, 7, "179.art", 2).is_none(),
            "fingerprint"
        );
        assert!(outcome_from_json(&doc, 8, "179.art", 1).is_none(), "index");
        assert!(outcome_from_json(&doc, 7, "164.gzip", 1).is_none(), "name");
        let tampered = doc.to_string().replace(CKPT_SCHEMA, "other/schema");
        let tampered = Json::parse(&tampered).unwrap();
        assert!(
            outcome_from_json(&tampered, 7, "179.art", 1).is_none(),
            "schema"
        );
    }

    #[test]
    fn write_read_round_trip_and_corruption_fallback() {
        let dir = std::env::temp_dir().join("loopml_ckpt_unit");
        let _ = std::fs::remove_dir_all(&dir);
        let o = outcome();
        write_checkpoint(&dir, &o, 42).expect("write");
        assert_eq!(read_checkpoint(&dir, 7, "179.art", 42), Some(o.clone()));
        assert_eq!(read_checkpoint(&dir, 7, "179.art", 43), None);
        // Truncate the file: the reader must treat it as absent.
        let path = checkpoint_path(&dir, 7, "179.art");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert_eq!(read_checkpoint(&dir, 7, "179.art", 42), None);
    }

    #[test]
    fn fingerprint_tracks_config_changes() {
        let off = FaultPlane::disabled();
        let a = LabelConfig::paper(SwpMode::Disabled);
        let mut b = a.clone();
        assert_eq!(
            config_fingerprint(&a, 3, &off),
            config_fingerprint(&b, 3, &off)
        );
        assert_ne!(
            config_fingerprint(&a, 3, &off),
            config_fingerprint(&a, 4, &off)
        );
        b.seed ^= 1;
        assert_ne!(
            config_fingerprint(&a, 3, &off),
            config_fingerprint(&b, 3, &off)
        );
        let c = LabelConfig::paper(SwpMode::Enabled);
        assert_ne!(
            config_fingerprint(&a, 3, &off),
            config_fingerprint(&c, 3, &off)
        );
    }

    #[test]
    fn changed_fault_spec_invalidates_the_checkpoint() {
        let cfg = LabelConfig::paper(SwpMode::Disabled);
        let clean = config_fingerprint(&cfg, 3, &FaultPlane::disabled());
        let chaos = config_fingerprint(&cfg, 3, &FaultPlane::new(0xC0FFEE, 0.1));
        let other_seed = config_fingerprint(&cfg, 3, &FaultPlane::new(0xC0FFEF, 0.1));
        let other_rate = config_fingerprint(&cfg, 3, &FaultPlane::new(0xC0FFEE, 0.2));
        assert_ne!(clean, chaos, "chaos checkpoints must not serve clean runs");
        assert_ne!(chaos, other_seed, "fault seed is part of the identity");
        assert_ne!(chaos, other_rate, "fault rate is part of the identity");

        // End to end: a checkpoint written under one plane is invisible
        // to a resume under another.
        let dir = std::env::temp_dir().join("loopml_ckpt_faultspec");
        let _ = std::fs::remove_dir_all(&dir);
        let o = outcome();
        write_checkpoint(&dir, &o, chaos).expect("write");
        assert_eq!(read_checkpoint(&dir, 7, "179.art", chaos), Some(o));
        assert_eq!(
            read_checkpoint(&dir, 7, "179.art", clean),
            None,
            "clean resume must relabel, not reuse chaos-era checkpoints"
        );
    }
}
