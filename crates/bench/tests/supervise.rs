//! End-to-end supervisor runs against the real `repro` binary: a shard
//! killed mid-run is restarted and the merged labels are byte-identical
//! to a single-process run; corrupt and duplicated shard documents are
//! rejected with the documented exit codes.

use std::path::Path;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn supervised_chaos_kill_recovers_to_byte_identical_labels() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("supervise_e2e");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Single-process reference run.
    let single = dir.join("single.json");
    let single_deg = dir.join("single_deg.json");
    let status = repro()
        .args(["label", "--smoke", "--out"])
        .arg(&single)
        .arg("--degradation")
        .arg(&single_deg)
        .status()
        .expect("spawn repro label");
    assert!(status.success(), "reference labeling failed");

    // Supervised 3-shard run with shard 1 chaos-killed after its first
    // heartbeat (or chaos-failed once if it finished before the first
    // supervisor poll — either way the recovery path runs).
    let merged = dir.join("merged.json");
    let merged_deg = dir.join("merged_deg.json");
    let shards = dir.join("shards");
    let output = repro()
        .args(["label-supervise", "3", "--smoke", "--chaos-kill", "1:1"])
        .arg("--dir")
        .arg(&shards)
        .arg("--out")
        .arg(&merged)
        .arg("--degradation")
        .arg(&merged_deg)
        .output()
        .expect("spawn repro label-supervise");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "supervisor failed:\n{stderr}");
    assert!(
        stderr.contains("chaos"),
        "the kill hook never fired:\n{stderr}"
    );
    assert!(
        stderr.contains("restart 1/"),
        "no restart happened:\n{stderr}"
    );

    assert_eq!(
        read(&merged),
        read(&single),
        "supervised labels must be byte-identical to the single-process run"
    );
    assert_eq!(
        read(&merged_deg),
        read(&single_deg),
        "merged degradation report must be byte-identical"
    );

    // The shard documents the supervisor left behind drive the merge
    // exit-code contract: a duplicated shard set is a usage error (2)...
    let shard = |i: usize| shards.join(format!("shard_{i}.json"));
    let status = repro()
        .arg("label-merge")
        .arg(shard(0))
        .arg(shard(0))
        .arg(shard(1))
        .arg("--out")
        .arg(dir.join("dup.json"))
        .status()
        .expect("spawn repro label-merge");
    assert_eq!(status.code(), Some(2), "duplicate shard set must exit 2");

    // ...an incomplete one too...
    let status = repro()
        .arg("label-merge")
        .arg(shard(0))
        .arg("--out")
        .arg(dir.join("incomplete.json"))
        .status()
        .expect("spawn repro label-merge");
    assert_eq!(status.code(), Some(2), "incomplete shard set must exit 2");

    // ...while a corrupt shard document is a failed run (1), caught by
    // the payload fingerprint.
    let pristine = read(&shard(2));
    std::fs::write(shard(2), pristine.replacen("\"label\":", "\"label\":9", 1)).unwrap();
    let output = repro()
        .arg("label-merge")
        .arg(shard(0))
        .arg(shard(1))
        .arg(shard(2))
        .arg("--out")
        .arg(dir.join("corrupt.json"))
        .output()
        .expect("spawn repro label-merge");
    assert_eq!(output.status.code(), Some(1), "corrupt shard must exit 1");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("fingerprint"),
        "diagnostic must name the fingerprint:\n{stderr}"
    );
    std::fs::write(shard(2), pristine).unwrap();
}

#[test]
fn supervise_usage_errors_exit_2_without_spawning() {
    for args in [
        &["label-supervise"][..],
        &["label-supervise", "zero"][..],
        &["label-supervise", "0"][..],
        &["label-supervise", "2", "--chaos-kill", "nope"][..],
        &["label-supervise", "2", "--max-restarts", "many"][..],
        &["label", "--smoke", "--resume"][..],
        &["label", "--smoke", "--retries", "x"][..],
        &["label", "--smoke", "--shard", "3/3"][..],
    ] {
        let status = repro().args(args).status().expect("spawn repro");
        assert_eq!(status.code(), Some(2), "{args:?} must be a usage error");
    }
}
