//! Reference outputs recorded for fixed seeds, and the comparisons that
//! turn a mismatch into a counted failure.
//!
//! A reference is a plain-text file under `perfbench/reference/`, one
//! entry per line, `#` lines being comments. `label` stores one digest
//! per attempted loop (or `-` when the paper's filters drop it); `tune`
//! and `tune_scaled` store the selected hyperparameters of each scored
//! family. References are recorded for [`RECORDED_SEEDS`]; other seeds
//! without a file report their reference check as skipped. A damaged,
//! unreadable or missing recorded reference never aborts the run and is
//! never skipped: every entry that does not match counts as one failure.

use std::io::ErrorKind;
use std::path::{Path, PathBuf};

use loopml::LabeledLoop;
use loopml_ir::Benchmark;
use loopml_ml::SweepReport;

/// Outcome of one reference check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// A reference exists and every entry matched.
    Passed,
    /// A reference exists and this many entries differed.
    Failed(u64),
    /// No reference is recorded for this seed.
    Skipped,
}

impl Check {
    /// Failures this check contributes.
    pub fn failures(self) -> u64 {
        match self {
            Check::Failed(n) => n,
            Check::Passed | Check::Skipped => 0,
        }
    }

    /// `passed`, `failed (n)` or `skipped`.
    pub fn describe(self) -> String {
        match self {
            Check::Passed => "passed".into(),
            Check::Failed(n) => format!("failed ({n})"),
            Check::Skipped => "skipped".into(),
        }
    }
}

/// Directory holding the recorded references.
pub fn dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/reference"))
}

/// Path of the reference for `workload` at `seed`.
pub fn path(workload: &str, seed: u64) -> PathBuf {
    dir().join(format!("{workload}-{seed}.txt"))
}

/// Seeds with recorded references: the historical corpus seed
/// (`0xC602005`) and one held-out seed.
pub const RECORDED_SEEDS: [u64; 2] = [0xC602005, 424242];

/// Reads the entries of the reference for `workload` at `seed`; `None`
/// (the check is skipped) only when there is none for a seed outside
/// [`RECORDED_SEEDS`].
pub fn load(workload: &str, seed: u64) -> Option<Vec<String>> {
    load_from(&path(workload, seed), RECORDED_SEEDS.contains(&seed))
}

/// Reads the reference at `path`. Bytes that are not UTF-8 become
/// replacement characters, so they mismatch instead of failing the read.
/// A file that cannot be read, or is missing although `recorded`, reads
/// as no entries, so every entry checked against it fails.
fn load_from(path: &Path, recorded: bool) -> Option<Vec<String>> {
    match std::fs::read(path) {
        Ok(bytes) => Some(entries(&String::from_utf8_lossy(&bytes))),
        Err(e) if e.kind() == ErrorKind::NotFound && !recorded => None,
        Err(_) => Some(Vec::new()),
    }
}

/// The non-comment lines of a reference text.
pub fn entries(text: &str) -> Vec<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// Writes a reference for `workload` at `seed`.
pub fn record(workload: &str, seed: u64, header: &str, lines: &[String]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir())?;
    let mut text = format!("# {header}\n");
    for l in lines {
        text.push_str(l);
        text.push('\n');
    }
    std::fs::write(path(workload, seed), text)
}

/// Compares `got` entry by entry with `reference` (when there is one).
/// Every position where the two differ, or only one has an entry, is
/// one failure.
pub fn compare(reference: Option<&[String]>, got: &[String]) -> Check {
    let Some(reference) = reference else {
        return Check::Skipped;
    };
    let failed = (0..reference.len().max(got.len()))
        .filter(|&i| reference.get(i) != got.get(i))
        .count() as u64;
    if failed == 0 {
        Check::Passed
    } else {
        Check::Failed(failed)
    }
}

/// One entry per attempted (unrollable) loop of `suite`, in suite
/// order: a digest of the kept example's label and runtimes, or `-`
/// when labeling dropped the loop. `labeled` is `label_suite`'s output
/// for the same suite.
pub fn label_entries(suite: &[Benchmark], labeled: &[LabeledLoop]) -> Vec<String> {
    let mut kept = labeled.iter().peekable();
    let mut out = Vec::new();
    for (bi, b) in suite.iter().enumerate() {
        for (_, w) in b.unrollable() {
            let hit = kept
                .next_if(|l| l.benchmark == bi && l.name == w.body.name)
                .map(digest);
            out.push(hit.unwrap_or_else(|| "-".to_string()));
        }
    }
    out
}

/// FNV-1a digest of an example's label and measured runtimes (bits).
fn digest(l: &LabeledLoop) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let words = std::iter::once(l.label as u64).chain(l.runtimes.iter().map(|r| r.to_bits()));
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Model families in the sweep's fixed tie-break order.
pub const FAMILIES: [&str; 5] = ["nn", "svm", "tree", "forest", "mlp"];

/// Grid cells a family scored in `r`.
pub fn cells(r: &SweepReport, family: &str) -> usize {
    match family {
        "nn" => r.nn_cells.len(),
        "svm" => r.svm_cells.len(),
        "tree" => r.tree_cells.len(),
        "forest" => r.forest_cells.len(),
        "mlp" => r.mlp_cells.len(),
        other => unreachable!("unknown family {other}"),
    }
}

/// LOGO accuracy of a family's selected cell in `r`.
pub fn accuracy(r: &SweepReport, family: &str) -> f64 {
    match family {
        "nn" => r.nn_accuracy,
        "svm" => r.svm_accuracy,
        "tree" => r.tree_accuracy,
        "forest" => r.forest_accuracy,
        "mlp" => r.mlp_accuracy,
        other => unreachable!("unknown family {other}"),
    }
}

/// One entry per family the sweep scored: its selected hyperparameters.
pub fn family_entries(r: &SweepReport) -> Vec<String> {
    FAMILIES
        .iter()
        .filter(|f| cells(r, f) > 0)
        .map(|&f| match f {
            "nn" => format!("nn radius={}", r.selected_radius),
            "svm" => format!("svm gamma={} c={}", r.selected_svm.gamma, r.selected_svm.c),
            "tree" => format!(
                "tree max_depth={} min_leaf={}",
                r.selected_tree.max_depth, r.selected_tree.min_leaf
            ),
            "forest" => format!("forest trees={}", r.selected_forest.trees),
            _ => format!(
                "mlp hidden={} lr={}",
                r.selected_mlp.hidden, r.selected_mlp.lr
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn got() -> Vec<String> {
        ["a1", "-", "b2", "c3"].map(String::from).to_vec()
    }

    #[test]
    fn matching_reference_passes_and_missing_one_is_skipped() {
        let g = got();
        assert_eq!(compare(Some(&g), &g), Check::Passed);
        assert_eq!(compare(None, &g), Check::Skipped);
        assert_eq!(Check::Skipped.failures(), 0);
    }

    #[test]
    fn corrupted_reference_counts_failures_instead_of_crashing() {
        let g = got();
        // A flipped entry, a truncated file, binary garbage, an empty
        // file: each costs failures, never a panic.
        let flipped = entries("# header\na1\n-\nb3\nc3\n");
        assert_eq!(compare(Some(&flipped), &g), Check::Failed(1));
        let truncated = entries("a1\n-\n");
        assert_eq!(compare(Some(&truncated), &g), Check::Failed(2));
        let extended = entries("a1\n-\nb2\nc3\nd4\n");
        assert_eq!(compare(Some(&extended), &g), Check::Failed(1));
        let garbage = entries("\u{0}\u{1}\u{fffd}zz\n\n#\n???");
        assert_eq!(compare(Some(&garbage), &g), Check::Failed(4));
        assert_eq!(compare(Some(&[]), &g), Check::Failed(4));
        assert_eq!(compare(Some(&[]), &g).failures(), 4);
    }

    #[test]
    fn unreadable_or_missing_recorded_references_count_failures() {
        let g = got();
        let dir = std::env::current_exe()
            .expect("test binary path")
            .with_file_name("perfbench-reference-test");
        std::fs::create_dir_all(&dir).expect("scratch directory beside the test binary");
        // Invalid UTF-8 is read lossily: the damaged entries mismatch.
        let corrupt = dir.join("not-utf8.txt");
        std::fs::write(&corrupt, b"# header\n\xff\xfe1\n-\n\xc3\x28\n").expect("write");
        let read = load_from(&corrupt, true).expect("a corrupt file is read, not skipped");
        assert_eq!(read.len(), 3);
        assert_eq!(compare(Some(&read), &g), Check::Failed(3));
        // A missing file is skipped only for an unrecorded seed.
        let missing = dir.join("missing.txt");
        assert_eq!(load_from(&missing, false), None);
        let recorded = load_from(&missing, true);
        assert_eq!(compare(recorded.as_deref(), &g), Check::Failed(4));
        // Any other read error (here: the path is a directory) fails.
        let unreadable = load_from(&dir, false);
        assert_eq!(compare(unreadable.as_deref(), &g), Check::Failed(4));
        // The recorded seeds' references are present and readable.
        for seed in RECORDED_SEEDS {
            for workload in ["label", "tune", "tune_scaled"] {
                assert!(
                    std::fs::read(path(workload, seed)).is_ok(),
                    "{workload}-{seed}"
                );
            }
        }
    }
}
