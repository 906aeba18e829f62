//! Sweep determinism and single-distance-build guarantees.
//!
//! Lives in its own integration-test binary on purpose: the
//! [`loopml_ml::distance_builds`] counter is process-global, and the unit
//! tests build distance matrices freely. Here the only builders are these
//! tests, serialized by a mutex, so counter deltas are exact.

use std::sync::Mutex;

use loopml_ml::{distance_builds, sweep, Dataset, SvmGrid, SweepConfig};
use loopml_rt::with_threads;

static COUNTER_LOCK: Mutex<()> = Mutex::new(());

/// Four "benchmarks", each contributing loops from every class — a
/// deterministic, LOGO-friendly corpus with enough examples that the
/// parallel job queue actually interleaves.
fn corpus() -> (Dataset, Vec<usize>) {
    let mut x = Vec::new();
    let mut y = Vec::new();
    let mut group = Vec::new();
    let centers = [(0.0, 0.0), (8.0, 0.0), (0.0, 8.0), (8.0, 8.0)];
    for (c, &(cx, cy)) in centers.iter().enumerate() {
        for k in 0..12 {
            // Deterministic jitter; k % 4 spreads each class over all
            // four benchmarks.
            x.push(vec![
                cx + (k % 3) as f64 * 0.4,
                cy + (k / 3) as f64 * 0.4,
                (k as f64).sin(),
            ]);
            y.push(c);
            group.push(k % 4);
        }
    }
    let n = x.len();
    let data = Dataset::new(
        x,
        y,
        4,
        vec!["a".into(), "b".into(), "c".into()],
        (0..n).map(|i| format!("e{i}")).collect(),
    );
    (data, group)
}

#[test]
fn sweep_is_bit_identical_across_thread_counts() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let (data, group) = corpus();
    let cfg = SweepConfig::default();
    let serial = with_threads(1, || sweep(&data, &group, &cfg));
    // 5 workers split the 48 rows into ragged blocks.
    for threads in [2, 4, 5, 8] {
        let par = with_threads(threads, || sweep(&data, &group, &cfg));
        // PartialEq over every cell accuracy, selected params and
        // counters: bit-identical, not approximately equal.
        assert_eq!(serial, par, "sweep diverged at {threads} threads");
    }
}

#[test]
fn sweep_builds_exactly_one_distance_matrix() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let (data, group) = corpus();
    // A bigger-than-default grid: the build count must stay 1 no matter
    // how many gammas, Cs and radii are swept — and the distance-free
    // families (tree/forest/MLP, swept at their defaults here) must not
    // add any.
    let cfg = SweepConfig {
        svm: SvmGrid {
            gammas: vec![0.1, 0.25, 1.0, 4.0],
            cs: vec![0.5, 1.0, 10.0, 100.0],
            ..SvmGrid::default()
        },
        radii: vec![0.1, 0.15, 0.3, 0.45, 0.6, 1.0],
        ..SweepConfig::default()
    };
    let before = distance_builds();
    let report = with_threads(4, || sweep(&data, &group, &cfg));
    assert_eq!(
        distance_builds() - before,
        1,
        "sweep must compute pairwise distances exactly once"
    );
    assert_eq!(report.distance_builds, 1, "report must carry the proof");
    assert_eq!(report.svm_cells.len(), 16);
    assert_eq!(report.nn_cells.len(), 6);
}

#[test]
fn counter_is_monotonic_across_sweeps() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let (data, group) = corpus();
    let cfg = SweepConfig::default();
    let before = distance_builds();
    let (a, b) = with_threads(2, || {
        (sweep(&data, &group, &cfg), sweep(&data, &group, &cfg))
    });
    assert_eq!(distance_builds() - before, 2, "one build per sweep");
    assert_eq!(a, b, "same inputs, same report");
}

#[test]
fn distance_free_families_never_advance_the_build_counter() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    // Only tree/forest/MLP grids: the sweep still performs its one
    // distance pass (shared infrastructure), and the family scoring adds
    // zero further builds.
    let (data, group) = corpus();
    let cfg = SweepConfig {
        svm: SvmGrid {
            gammas: vec![],
            cs: vec![],
            ..SvmGrid::default()
        },
        radii: vec![],
        ..SweepConfig::default()
    };
    let before = distance_builds();
    let r = with_threads(1, || sweep(&data, &group, &cfg));
    assert_eq!(distance_builds() - before, 1);
    assert_eq!(r.distance_builds, 1);
    assert!(r.svm_cells.is_empty() && r.nn_cells.is_empty());
    assert!(!r.tree_cells.is_empty());
    // With NN and SVM unscored, the winner comes from the new families —
    // the separable corpus scores well for all of them.
    assert!(["tree", "forest", "mlp"].contains(&r.winner_family.as_str()));
    assert!(r.winner_accuracy >= 0.9, "{}", r.winner_accuracy);
}
