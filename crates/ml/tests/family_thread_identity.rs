//! Per-family fit determinism: training any zoo member with 1 and with
//! 4 workers must produce bit-identical serialized state.

use loopml_ml::{
    BaggedForest, Classifier, Dataset, DecisionTree, ForestParams, Mlp, MlpParams, MulticlassSvm,
    NearNeighbors, SvmParams, TreeParams, DEFAULT_RADIUS,
};
use loopml_rt::with_threads;

/// A deterministic four-class corpus big enough that a parallel fit
/// would actually interleave if a family ever consulted the pool.
fn corpus() -> Dataset {
    let mut x = Vec::new();
    let mut y = Vec::new();
    let centers = [(0.0, 0.0), (8.0, 0.0), (0.0, 8.0), (8.0, 8.0)];
    for (c, &(cx, cy)) in centers.iter().enumerate() {
        for k in 0..12 {
            x.push(vec![
                cx + (k % 3) as f64 * 0.4,
                cy + (k / 3) as f64 * 0.4,
                (k as f64).sin(),
            ]);
            y.push(c);
        }
    }
    let n = x.len();
    Dataset::new(
        x,
        y,
        4,
        vec!["a".into(), "b".into(), "c".into()],
        (0..n).map(|i| format!("e{i}")).collect(),
    )
}

fn zoo() -> Vec<Box<dyn Classifier>> {
    vec![
        Box::new(NearNeighbors::new(DEFAULT_RADIUS)),
        Box::new(MulticlassSvm::new(SvmParams::default())),
        Box::new(DecisionTree::new(TreeParams::default())),
        Box::new(BaggedForest::new(ForestParams::default())),
        Box::new(Mlp::new(MlpParams::default())),
    ]
}

#[test]
fn every_family_fits_bit_identically_at_1_and_4_threads() {
    let data = corpus();
    for template in zoo() {
        let mut states = Vec::new();
        for threads in [1, 4] {
            let mut m = template.fresh();
            with_threads(threads, || m.fit(&data));
            // Serialized text covers every learned weight/threshold, so
            // string equality is bit-identity of the whole model.
            states.push(m.save().to_string());
        }
        assert_eq!(
            states[0],
            states[1],
            "{} fit diverged between 1 and 4 threads",
            template.name()
        );
    }
}
