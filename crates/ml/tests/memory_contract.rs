//! The memory contract of the pairwise-distance and kernel paths.
//!
//! Lives in its own integration-test binary on purpose: the
//! `LOOPML_TILE_BYTES` budget and the peak-byte counters are
//! process-global, so no test outside this file may run beside these,
//! and these take [`COUNTERS`] so they never run beside each other.

use std::sync::Mutex;

use loopml_ml::{
    greedy_forward_nn, peak_distance_bytes, peak_kernel_bytes, reset_distance_bytes,
    reset_kernel_bytes, sweep, Classifier, Dataset, ForestGrid, MlpGrid, MulticlassSvm, SvmGrid,
    SvmParams, SweepConfig, TreeGrid,
};
use loopml_rt::{with_threads, Json, Rng};

/// Serializes the tests that reset and read the peak-byte counters.
static COUNTERS: Mutex<()> = Mutex::new(());

/// `n` examples over 6 features in 3 classes, spread over 6 groups.
fn dataset(n: usize) -> (Dataset, Vec<usize>) {
    let mut rng = Rng::seed_from_u64(0x3E3);
    let x: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..6).map(|_| rng.gen_range(-10.0..10.0)).collect())
        .collect();
    let y: Vec<usize> = (0..n).map(|_| rng.gen_range(0..3usize)).collect();
    let data = Dataset::new(
        x,
        y,
        3,
        (0..6).map(|j| format!("f{j}")).collect(),
        (0..n).map(|i| format!("e{i}")).collect(),
    );
    (data, (0..n).map(|i| i % 6).collect())
}

#[test]
fn distances_stay_in_budget_and_kernels_at_one_per_gamma() {
    let _guard = COUNTERS.lock().unwrap();
    let n = 300;
    let threads = 2;
    let (data, group) = dataset(n);
    let dense = (n * n * 8) as u64;
    let budget = dense / 4;
    std::env::set_var("LOOPML_TILE_BYTES", budget.to_string());

    // Greedy selection past the budget streams row strips that fit it.
    reset_distance_bytes();
    with_threads(threads, || greedy_forward_nn(&data, 3));
    let greedy_peak = peak_distance_bytes();
    assert!(greedy_peak > 0, "greedy registered no distance buffer");
    assert!(
        greedy_peak <= budget,
        "greedy peak {greedy_peak} exceeds the budget {budget}"
    );

    // The sweep holds one distance row per worker at any budget, and
    // exactly one n×n kernel per gamma.
    let cfg = SweepConfig {
        svm: SvmGrid {
            gammas: vec![0.5, 2.0],
            cs: vec![1.0],
            base: SvmParams {
                max_sweeps: 5,
                ..SvmParams::default()
            },
        },
        radii: vec![0.3],
        tree: TreeGrid {
            max_depths: vec![],
            min_leafs: vec![],
        },
        forest: ForestGrid {
            sizes: vec![],
            ..ForestGrid::default()
        },
        mlp: MlpGrid {
            hiddens: vec![],
            lrs: vec![],
            ..MlpGrid::default()
        },
    };
    reset_distance_bytes();
    reset_kernel_bytes();
    let report = with_threads(threads, || sweep(&data, &group, &cfg));
    assert_eq!(report.svm_cells.len(), 2);
    let distance_peak = peak_distance_bytes();
    let row_bound = (threads * n * 8) as u64;
    assert!(
        distance_peak <= row_bound,
        "sweep distance peak {distance_peak} exceeds workers·n·8 = {row_bound}"
    );
    let kernel_peak = peak_kernel_bytes();
    assert!(
        kernel_peak <= 2 * dense,
        "sweep kernel peak {kernel_peak} exceeds G × dense = {}",
        2 * dense
    );
}

#[test]
fn svm_fit_holds_one_kernel_and_load_builds_none() {
    let _guard = COUNTERS.lock().unwrap();
    let n = 200;
    let (data, _) = dataset(n);
    let dense = (n * n * 8) as u64;
    let params = SvmParams {
        max_sweeps: 5,
        ..SvmParams::default()
    };

    // Fitting builds its n×n kernel directly, with no distance matrix.
    reset_distance_bytes();
    reset_kernel_bytes();
    let first = MulticlassSvm::fit(&data, params);
    assert_eq!(peak_kernel_bytes(), dense, "fit holds one n×n kernel");
    assert_eq!(peak_distance_bytes(), 0, "fit builds no distance buffer");

    // The fitted machine keeps no kernel: a second fit while the first
    // machine is alive still peaks at one kernel.
    let _second = MulticlassSvm::fit(&data, params);
    assert_eq!(
        peak_kernel_bytes(),
        dense,
        "a fitted machine keeps no kernel"
    );

    // Loading a saved machine builds no kernel at all, and the loaded
    // machine answers like the one that was saved.
    let state = Json::parse(&first.save().to_string()).expect("saved state parses");
    reset_distance_bytes();
    reset_kernel_bytes();
    let mut loaded = MulticlassSvm::new(params);
    loaded.load(&state).expect("saved state loads");
    assert_eq!(peak_kernel_bytes(), 0, "load registers no kernel bytes");
    assert_eq!(peak_distance_bytes(), 0, "load registers no distance bytes");
    assert_eq!(loaded.predict_batch(&data.x), first.predict_batch(&data.x));
}
