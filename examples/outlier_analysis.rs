//! Outlier triage with NN confidence (paper §5.1: "One can imagine a tool
//! that automatically detects outliers by setting low confidence examples
//! aside. An engineer could then visually inspect outlier loops…").
//!
//! Classifies every labeled loop with its leave-one-out near-neighbor
//! prediction, buckets them by vote confidence, and prints the
//! lowest-confidence loops for inspection.
//!
//! ```text
//! cargo run --release --example outlier_analysis
//! ```

use loopml::{label_suite, to_dataset, LabelConfig};
use loopml_corpus::{synthesize, SuiteConfig, ROSTER};
use loopml_machine::{NoiseModel, SwpMode};
use loopml_ml::{NearNeighbors, DEFAULT_RADIUS};

fn main() {
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
        .take(12)
        .map(|e| synthesize(e, &suite_cfg))
        .collect();
    let labeled = label_suite(&suite, &cfg);
    let data = to_dataset(&labeled);
    let nn = NearNeighbors::fit(&data, DEFAULT_RADIUS);

    // Leave-one-out predictions with confidences.
    let mut buckets = [[0usize; 2]; 3]; // [bucket][correct?]
    let mut outliers = Vec::new();
    for (i, l) in labeled.iter().enumerate() {
        let p = nn.predict_excluding(&data.x[i], i);
        let correct = usize::from(p.label == l.label);
        let bucket = if p.confidence >= 0.75 {
            0
        } else if p.confidence > 0.0 {
            1
        } else {
            2
        };
        buckets[bucket][correct] += 1;
        if bucket == 2 {
            outliers.push((i, p));
        }
    }

    println!("confidence vs accuracy ({} loops):", labeled.len());
    let names = ["high (>=0.75 vote)", "medium", "no consensus (1-NN)"];
    for (b, name) in names.iter().enumerate() {
        let total = buckets[b][0] + buckets[b][1];
        if total == 0 {
            continue;
        }
        println!(
            "  {:<20} {:>5} loops, {:>5.1}% correct",
            name,
            total,
            100.0 * buckets[b][1] as f64 / total as f64
        );
    }

    println!("\nlowest-confidence loops (candidates for manual inspection):");
    for (i, p) in outliers.iter().take(10) {
        let l = &labeled[*i];
        println!(
            "  {:<42} best factor {}, {} in-radius neighbors",
            l.name,
            l.best_factor(),
            p.neighbors
        );
    }
    println!(
        "\n{} of {} loops had no in-radius consensus — the paper's proposed\n\
         triage set for an engineer to look at.",
        outliers.len(),
        labeled.len()
    );
}
