//! `repro sweep` — LOGO-driven hyperparameter selection as a CLI target.
//!
//! Builds the paper's pipeline at the requested scale, runs the
//! [`loopml_ml::sweep`] subsystem (SVM gamma × C grid plus NN radii,
//! plus the distance-free tree / forest / MLP grids, every cell scored
//! by leave-one-benchmark-out accuracy over exactly one streamed
//! distance pass), and emits a machine-readable `loopml/sweep/v1`
//! document to stdout and `SWEEP_ml.json`. The document carries every family's
//! grid, the selected point per family, the cross-family winner,
//! wall-time, and the distance-build counter — the CLI exits nonzero if
//! that counter is not exactly 1 or if fewer than two families were
//! scored, so the single-build and real-comparison guarantees are
//! enforced on every CI run, not just in unit tests.

use std::time::Instant;

use loopml_ml::{SweepConfig, SweepReport};
use loopml_rt::json::{escape, Json};

use crate::cli::Scale;

/// Schema tag stamped into every sweep report.
pub const SWEEP_SCHEMA: &str = "loopml/sweep/v1";

/// A sweep run plus the run-level metadata the JSON document carries.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRun {
    /// Scale the corpus was built at.
    pub scale: Scale,
    /// Worker threads the runtime used (`LOOPML_THREADS` honored).
    pub threads: usize,
    /// Wall-clock milliseconds for the sweep itself (pipeline build
    /// excluded — labeling time is perfbench's business).
    pub wall_ms: f64,
    /// The sweep result.
    pub report: SweepReport,
}

impl SweepRun {
    /// Serializes to the `loopml/sweep/v1` document.
    pub fn to_json(&self) -> String {
        let scale = match self.scale {
            Scale::Full => "full",
            Scale::Quick => "quick",
        };
        let r = &self.report;
        let svm_cells: Vec<String> = r
            .svm_cells
            .iter()
            .map(|c| {
                format!(
                    r#"{{"gamma":{},"c":{},"accuracy":{:.6}}}"#,
                    c.gamma, c.c, c.accuracy
                )
            })
            .collect();
        let nn_cells: Vec<String> = r
            .nn_cells
            .iter()
            .map(|c| format!(r#"{{"radius":{},"accuracy":{:.6}}}"#, c.radius, c.accuracy))
            .collect();
        let tree_cells: Vec<String> = r
            .tree_cells
            .iter()
            .map(|c| {
                format!(
                    r#"{{"max_depth":{},"min_leaf":{},"accuracy":{:.6}}}"#,
                    c.max_depth, c.min_leaf, c.accuracy
                )
            })
            .collect();
        let forest_cells: Vec<String> = r
            .forest_cells
            .iter()
            .map(|c| format!(r#"{{"trees":{},"accuracy":{:.6}}}"#, c.trees, c.accuracy))
            .collect();
        let mlp_cells: Vec<String> = r
            .mlp_cells
            .iter()
            .map(|c| {
                format!(
                    r#"{{"hidden":{},"lr":{},"accuracy":{:.6}}}"#,
                    c.hidden, c.lr, c.accuracy
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"schema\":{schema},\"scale\":\"{scale}\",",
                "\"threads\":{threads},\"n_examples\":{n},\"n_groups\":{g},",
                "\"distance_builds\":{builds},\"wall_ms\":{wall:.3},",
                "\"svm\":{{\"cells\":[{svm_cells}],",
                "\"selected\":{{\"gamma\":{gamma},\"c\":{c},\"accuracy\":{sacc:.6}}}}},",
                "\"nn\":{{\"cells\":[{nn_cells}],",
                "\"selected\":{{\"radius\":{radius},\"accuracy\":{nacc:.6}}}}},",
                "\"tree\":{{\"cells\":[{tree_cells}],",
                "\"selected\":{{\"max_depth\":{t_depth},\"min_leaf\":{t_leaf},",
                "\"accuracy\":{tacc:.6}}}}},",
                "\"forest\":{{\"cells\":[{forest_cells}],",
                "\"selected\":{{\"trees\":{f_trees},\"accuracy\":{facc:.6}}}}},",
                "\"mlp\":{{\"cells\":[{mlp_cells}],",
                "\"selected\":{{\"hidden\":{m_hidden},\"lr\":{m_lr},",
                "\"accuracy\":{macc:.6}}}}},",
                "\"winner\":{{\"family\":{w_family},\"accuracy\":{w_acc:.6}}}}}"
            ),
            schema = escape(SWEEP_SCHEMA),
            scale = scale,
            threads = self.threads,
            n = r.n_examples,
            g = r.n_groups,
            builds = r.distance_builds,
            wall = self.wall_ms,
            svm_cells = svm_cells.join(","),
            gamma = r.selected_svm.gamma,
            c = r.selected_svm.c,
            sacc = r.svm_accuracy,
            nn_cells = nn_cells.join(","),
            radius = r.selected_radius,
            nacc = r.nn_accuracy,
            tree_cells = tree_cells.join(","),
            t_depth = r.selected_tree.max_depth,
            t_leaf = r.selected_tree.min_leaf,
            tacc = r.tree_accuracy,
            forest_cells = forest_cells.join(","),
            f_trees = r.selected_forest.trees,
            facc = r.forest_accuracy,
            mlp_cells = mlp_cells.join(","),
            m_hidden = r.selected_mlp.hidden,
            m_lr = r.selected_mlp.lr,
            macc = r.mlp_accuracy,
            w_family = escape(&r.winner_family),
            w_acc = r.winner_accuracy,
        )
    }

    /// Families the sweep actually scored (non-empty cell grids). The
    /// CLI requires at least two, so the cross-family winner is a real
    /// comparison and not a walkover.
    pub fn families_scored(&self) -> usize {
        let r = &self.report;
        usize::from(!r.nn_cells.is_empty())
            + usize::from(!r.svm_cells.is_empty())
            + usize::from(!r.tree_cells.is_empty())
            + usize::from(!r.forest_cells.is_empty())
            + usize::from(!r.mlp_cells.is_empty())
    }
}

/// Validates a parsed `SWEEP_ml.json` document; returns the
/// distance-build count (the thing CI asserts is 1).
pub fn validate(doc: &Json) -> Result<u64, String> {
    if doc.get("schema").and_then(Json::as_str) != Some(SWEEP_SCHEMA) {
        return Err(format!("schema is not {SWEEP_SCHEMA:?}"));
    }
    match doc.get("scale").and_then(Json::as_str) {
        Some("full") | Some("quick") => {}
        other => return Err(format!("bad scale {other:?}")),
    }
    for key in ["threads", "n_examples", "n_groups"] {
        match doc.get(key).and_then(Json::as_num) {
            Some(v) if v.is_finite() && v >= 1.0 => {}
            other => return Err(format!("bad {key}: {other:?}")),
        }
    }
    for (section, cell_key, sel_key) in [
        ("svm", "gamma", "c"),
        ("nn", "radius", "radius"),
        ("tree", "max_depth", "max_depth"),
        ("forest", "trees", "trees"),
        ("mlp", "hidden", "hidden"),
    ] {
        let s = doc
            .get(section)
            .ok_or_else(|| format!("missing {section}"))?;
        let cells = s
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{section}.cells is not an array"))?;
        for c in cells {
            for key in [cell_key, "accuracy"] {
                match c.get(key).and_then(Json::as_num) {
                    Some(v) if v.is_finite() => {}
                    other => return Err(format!("bad {section} cell {key}: {other:?}")),
                }
            }
            if let Some(acc) = c.get("accuracy").and_then(Json::as_num) {
                if !(0.0..=1.0).contains(&acc) {
                    return Err(format!("{section} accuracy {acc} outside [0, 1]"));
                }
            }
        }
        let sel = s
            .get("selected")
            .ok_or_else(|| format!("missing {section}.selected"))?;
        match sel.get(sel_key).and_then(Json::as_num) {
            Some(v) if v.is_finite() => {}
            other => return Err(format!("bad {section}.selected.{sel_key}: {other:?}")),
        }
    }
    let winner = doc.get("winner").ok_or("missing winner")?;
    match winner.get("family").and_then(Json::as_str) {
        Some("nn") | Some("svm") | Some("tree") | Some("forest") | Some("mlp") => {}
        other => return Err(format!("bad winner.family: {other:?}")),
    }
    match winner.get("accuracy").and_then(Json::as_num) {
        Some(v) if (0.0..=1.0).contains(&v) => {}
        other => return Err(format!("bad winner.accuracy: {other:?}")),
    }
    match doc.get("distance_builds").and_then(Json::as_num) {
        Some(v) if v.is_finite() && v >= 0.0 => Ok(v as u64),
        other => Err(format!("bad distance_builds: {other:?}")),
    }
}

/// Builds the pipeline at `scale` over a `--corpus-scale` multiplied
/// corpus and sweeps the default grid. The returned run carries
/// everything `repro sweep` prints and checks.
pub fn run_sweep_scaled(scale: Scale, corpus_scale: usize) -> SweepRun {
    let cfg = SweepConfig::default();
    eprintln!("[sweep] building pipeline ({scale:?}, corpus x{corpus_scale})...");
    let p = scale.builder(corpus_scale).build();
    eprintln!(
        "[sweep] {} examples, {} benchmarks; grid {}x{} + {} radii...",
        p.len(),
        p.suite.len(),
        cfg.svm.gammas.len(),
        cfg.svm.cs.len(),
        cfg.radii.len()
    );
    let t = Instant::now();
    let report = loopml_ml::sweep(&p.dataset, &p.groups, &cfg);
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "[sweep] selected gamma={} C={} (LOGO {:.3}); radius={} (LOGO {:.3}); \
         {} distance build(s), {:.0} ms",
        report.selected_svm.gamma,
        report.selected_svm.c,
        report.svm_accuracy,
        report.selected_radius,
        report.nn_accuracy,
        report.distance_builds,
        wall_ms
    );
    eprintln!(
        "[sweep] tree depth={} leaf={} (LOGO {:.3}); forest trees={} (LOGO {:.3}); \
         mlp hidden={} lr={} (LOGO {:.3}); winner: {} (LOGO {:.3})",
        report.selected_tree.max_depth,
        report.selected_tree.min_leaf,
        report.tree_accuracy,
        report.selected_forest.trees,
        report.forest_accuracy,
        report.selected_mlp.hidden,
        report.selected_mlp.lr,
        report.mlp_accuracy,
        report.winner_family,
        report.winner_accuracy
    );
    SweepRun {
        scale,
        threads: loopml_rt::num_threads(),
        wall_ms,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopml_ml::{
        ForestCell, ForestParams, MlpCell, MlpParams, RadiusCell, SvmCell, SvmParams, TreeCell,
        TreeParams,
    };

    fn sample_run() -> SweepRun {
        SweepRun {
            scale: Scale::Quick,
            threads: 4,
            wall_ms: 123.456,
            report: SweepReport {
                svm_cells: vec![
                    SvmCell {
                        gamma: 0.25,
                        c: 1.0,
                        accuracy: 0.5,
                    },
                    SvmCell {
                        gamma: 1.0,
                        c: 10.0,
                        accuracy: 0.625,
                    },
                ],
                nn_cells: vec![RadiusCell {
                    radius: 0.3,
                    accuracy: 0.75,
                }],
                selected_svm: SvmParams {
                    gamma: 1.0,
                    c: 10.0,
                    ..SvmParams::default()
                },
                svm_accuracy: 0.625,
                selected_radius: 0.3,
                nn_accuracy: 0.75,
                tree_cells: vec![TreeCell {
                    max_depth: 6,
                    min_leaf: 2,
                    accuracy: 0.7,
                }],
                selected_tree: TreeParams {
                    max_depth: 6,
                    min_leaf: 2,
                },
                tree_accuracy: 0.7,
                forest_cells: vec![ForestCell {
                    trees: 8,
                    accuracy: 0.725,
                }],
                selected_forest: ForestParams {
                    trees: 8,
                    ..ForestParams::default()
                },
                forest_accuracy: 0.725,
                mlp_cells: vec![MlpCell {
                    hidden: 8,
                    lr: 0.05,
                    accuracy: 0.65,
                }],
                selected_mlp: MlpParams {
                    hidden: 8,
                    lr: 0.05,
                    ..MlpParams::default()
                },
                mlp_accuracy: 0.65,
                winner_family: "nn".into(),
                winner_accuracy: 0.75,
                distance_builds: 1,
                n_examples: 40,
                n_groups: 4,
            },
        }
    }

    #[test]
    fn sweep_run_serializes_to_valid_json() {
        let run = sample_run();
        let doc = Json::parse(&run.to_json()).expect("parses");
        assert_eq!(validate(&doc), Ok(1));
        assert_eq!(
            doc.get("svm")
                .and_then(|s| s.get("selected"))
                .and_then(|s| s.get("gamma"))
                .and_then(Json::as_num),
            Some(1.0)
        );
        assert_eq!(
            doc.get("nn")
                .and_then(|s| s.get("cells"))
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(doc.get("n_groups").and_then(Json::as_num), Some(4.0));
        assert_eq!(
            doc.get("winner")
                .and_then(|w| w.get("family"))
                .and_then(Json::as_str),
            Some("nn")
        );
        assert_eq!(
            doc.get("forest")
                .and_then(|s| s.get("selected"))
                .and_then(|s| s.get("trees"))
                .and_then(Json::as_num),
            Some(8.0)
        );
        assert_eq!(sample_run().families_scored(), 5);
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        let good = sample_run().to_json();
        let cases = [
            good.replace(SWEEP_SCHEMA, "something/else"),
            good.replace("\"n_groups\":4", "\"n_groups\":0"),
            good.replace("\"accuracy\":0.750000", "\"accuracy\":1.5"),
            good.replace("\"distance_builds\":1,", ""),
            // The family sections and the cross-family winner are
            // required; the winner must name a known family.
            good.replace("\"mlp\":{", "\"mlp_was\":{"),
            good.replace("\"winner\":{", "\"winner_was\":{"),
            good.replace("\"family\":\"nn\"", "\"family\":\"perceptron\""),
        ];
        for bad in cases {
            let doc = Json::parse(&bad).expect("still JSON");
            assert!(validate(&doc).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn validate_surfaces_the_build_counter() {
        let two = sample_run()
            .to_json()
            .replace("\"distance_builds\":1", "\"distance_builds\":2");
        let doc = Json::parse(&two).unwrap();
        // validate reports, the CLI enforces: a count of 2 is structurally
        // valid JSON but `repro sweep` exits nonzero on it.
        assert_eq!(validate(&doc), Ok(2));
    }
}
