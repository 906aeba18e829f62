//! The served model: one loaded artifact answering batched queries.

use std::path::Path;

use loopml::{extract, LearnedHeuristic, ModelArtifact, MAX_UNROLL, NUM_FEATURES};
use loopml_ir::Loop;

/// A model artifact reconstructed for serving.
///
/// Predictions are bit-identical to the [`LearnedHeuristic`] the
/// artifact was trained from, at any `LOOPML_THREADS`: the batch path
/// goes through [`loopml_ml::Classifier::predict_batch`], whose
/// contract is exact agreement with per-query `predict`.
#[derive(Debug)]
pub struct ServeModel {
    artifact: ModelArtifact,
    heuristic: LearnedHeuristic,
}

impl ServeModel {
    /// Wraps an already-parsed artifact.
    pub fn from_artifact(artifact: ModelArtifact) -> Result<Self, String> {
        let heuristic = artifact.to_heuristic()?;
        Ok(ServeModel {
            artifact,
            heuristic,
        })
    }

    /// Loads an artifact file. Every defect — missing file, truncation,
    /// schema or kind mismatch — is a loud error: a serving daemon has
    /// no corpus to fall back to.
    pub fn load(path: &Path) -> Result<Self, String> {
        Self::from_artifact(ModelArtifact::read(path)?)
    }

    /// The artifact this model was loaded from.
    pub fn artifact(&self) -> &ModelArtifact {
        &self.artifact
    }

    /// The in-process heuristic equivalent of this served model.
    pub fn heuristic(&self) -> &LearnedHeuristic {
        &self.heuristic
    }

    /// Display name of the model ("NN", "SVM", …).
    pub fn name(&self) -> &str {
        &self.artifact.name
    }

    /// The artifact fingerprint in the `0x`-prefixed 16-digit hex form
    /// used by `repro train` output and the serve-stats document.
    pub fn fingerprint_hex(&self) -> String {
        format!("{:#018x}", self.artifact.fingerprint)
    }

    /// Number of features a projected query row must have.
    fn subset_dims(&self) -> usize {
        match &self.artifact.feature_subset {
            Some(cols) => cols.len(),
            None => NUM_FEATURES,
        }
    }

    /// Predicts one unroll factor in `1..=8` per feature row.
    ///
    /// Rows may be full 38-feature vectors (projected onto the model's
    /// subset here, exactly as [`LearnedHeuristic::choose`] projects)
    /// or already projected to the subset's dimensionality. Raw feature
    /// rows carry no unrollability information, so the class → factor
    /// mapping is applied unconditionally; send whole loops (see
    /// [`choose_loops`](Self::choose_loops)) to get the `1` answer for
    /// non-unrollable bodies.
    pub fn predict_rows(&self, rows: &[Vec<f64>]) -> Result<Vec<u32>, String> {
        let subset = self.artifact.feature_subset.as_deref();
        let dims = self.subset_dims();
        let projected: Vec<Vec<f64>> = rows
            .iter()
            .map(|row| {
                if row.len() == dims {
                    Ok(row.clone())
                } else if row.len() == NUM_FEATURES {
                    // Full vector: project like the in-process heuristic.
                    let cols = subset.expect("dims != NUM_FEATURES implies a subset");
                    Ok(cols.iter().map(|&c| row[c]).collect())
                } else {
                    Err(format!(
                        "feature row has {} values; expected {dims} (projected) or \
                         {NUM_FEATURES} (full)",
                        row.len()
                    ))
                }
            })
            .collect::<Result<_, String>>()?;
        Ok(self
            .heuristic
            .classifier()
            .predict_batch(&projected)
            .into_iter()
            .map(|class| (class as u32 + 1).min(MAX_UNROLL))
            .collect())
    }

    /// Chooses one unroll factor in `1..=8` per loop, bit-identical to
    /// calling [`LearnedHeuristic::choose`] on each — non-unrollable
    /// loops answer 1 without consulting the classifier — but with
    /// feature extraction batched and per-batch model setup (SVM
    /// normalization, support-vector lists) amortized.
    pub fn choose_loops(&self, loops: &[Loop]) -> Vec<u32> {
        let subset = self.artifact.feature_subset.as_deref();
        let mut rows = Vec::new();
        let mut unrollable = Vec::new();
        for (i, l) in loops.iter().enumerate() {
            if l.is_unrollable() {
                let full = extract(l);
                rows.push(match subset {
                    Some(cols) => cols.iter().map(|&c| full[c]).collect(),
                    None => full,
                });
                unrollable.push(i);
            }
        }
        let mut factors = vec![1u32; loops.len()];
        let classes = self.heuristic.classifier().predict_batch(&rows);
        for (&i, class) in unrollable.iter().zip(classes) {
            factors[i] = (class as u32 + 1).min(MAX_UNROLL);
        }
        factors
    }
}
