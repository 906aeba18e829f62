//! End-to-end smoke tests of the `repro` binary: it must regenerate
//! Table 2 on the reduced corpus — corpus synthesis, parallel labeling,
//! feature selection, LOOCV for both classifiers and the ORC adapter,
//! and the report renderer, all in one offline run — and `repro label`
//! must keep its usage contract.

use std::process::Command;

#[test]
fn repro_quick_table2_runs_end_to_end() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "table2"])
        .output()
        .expect("repro binary launches");
    assert!(
        out.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("Table 2. Accuracy of predictions"),
        "missing table header in:\n{stdout}"
    );
    for column in ["NN", "SVM", "ORC"] {
        assert!(
            stdout.contains(column),
            "missing {column} column:\n{stdout}"
        );
    }
}

#[test]
fn repro_quick_table2_is_deterministic_across_runs() {
    // The seed-determinism contract holds through the binary boundary:
    // two separate processes produce byte-identical reports, regardless
    // of how many worker threads each labeling run used.
    let run = |threads: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--quick", "table2"])
            .env("LOOPML_THREADS", threads)
            .output()
            .expect("repro binary launches");
        assert!(out.status.success());
        out.stdout
    };
    let serial = run("1");
    assert_eq!(serial, run("4"), "thread count changed the result");
}

#[test]
fn label_usage_errors_exit_2_without_writing_labels() {
    // Labeling is one in-process run: options and subcommands of the
    // retired multi-process labeler are usage errors (exit 2), rejected
    // before any labels file is written.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("label_usage");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("labels.json");
    for args in [
        &["label", "--smoke", "--shard", "0/3"][..],
        &["label", "--smoke", "--resume"][..],
        &["label", "--smoke", "--ckpt-dir", "D"][..],
        &["label", "--smoke", "--retries", "3"][..],
        &["label-merge", "a.json"][..],
        &["label-supervise", "3"][..],
    ] {
        let status = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .arg("--out")
            .arg(&out)
            .status()
            .expect("repro binary launches");
        assert_eq!(status.code(), Some(2), "{args:?} must be a usage error");
        assert!(!out.exists(), "{args:?} wrote a labels file");
    }
}
