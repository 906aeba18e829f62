//! Feature selection: score all 38 loop features by mutual information
//! and by greedy forward selection, then show how a reduced feature set
//! affects NN accuracy (the paper's §7 and Tables 3/4).
//!
//! ```text
//! cargo run --release --example feature_selection
//! ```

use loopml::{label_suite, to_dataset, LabelConfig};
use loopml_corpus::{synthesize, SuiteConfig, ROSTER};
use loopml_machine::{NoiseModel, SwpMode};
use loopml_ml::{greedy_forward, loocv_nn, mutual_information, nn1_training_error, DEFAULT_RADIUS};

fn main() {
    // Label a mid-sized corpus.
    let cfg = LabelConfig {
        noise: NoiseModel::exact(),
        ..LabelConfig::paper(SwpMode::Disabled)
    };
    let suite_cfg = SuiteConfig {
        min_loops: 30,
        max_loops: 35,
        ..SuiteConfig::default()
    };
    let suite: Vec<_> = ROSTER
        .iter()
        .take(16)
        .map(|e| synthesize(e, &suite_cfg))
        .collect();
    let data = to_dataset(&label_suite(&suite, &cfg));
    println!("{} labeled loops, {} features\n", data.len(), data.dims());

    // Mutual information (Table 3).
    println!("top features by mutual information:");
    let mis = mutual_information(&data);
    for (rank, f) in mis.iter().take(5).enumerate() {
        println!("  {}. {:<34} {:.3} bits", rank + 1, f.name, f.score);
    }

    // Greedy forward selection with the 1-NN criterion (Table 4).
    println!("\ngreedy forward selection (1-NN training error):");
    let trace = greedy_forward(&data, 5, nn1_training_error);
    for (rank, step) in trace.iter().enumerate() {
        println!("  {}. {:<34} error {:.2}", rank + 1, step.name, step.error);
    }

    // Accuracy: reduced set vs all features (the paper's point: a well
    // chosen subset classifies better than all 38).
    let union: Vec<usize> = {
        let mut cols: Vec<usize> = mis.iter().take(5).map(|f| f.index).collect();
        for s in &trace {
            if !cols.contains(&s.index) {
                cols.push(s.index);
            }
        }
        cols
    };
    let reduced = data.select_features(&union);
    let acc_all = loocv_nn(&data, DEFAULT_RADIUS).accuracy;
    let acc_reduced = loocv_nn(&reduced, DEFAULT_RADIUS).accuracy;
    println!(
        "\nLOOCV accuracy, all 38 features:      {:.1}%",
        acc_all * 100.0
    );
    println!(
        "LOOCV accuracy, {:>2} selected features: {:.1}%",
        union.len(),
        acc_reduced * 100.0
    );
}
