//! Versioned model artifacts: train once, serve many.
//!
//! The paper's end goal is a classifier a compiler consults at
//! optimization time — which means a *shipped* trained model, not a
//! retrain-from-corpus on every run. A [`ModelArtifact`] packages a
//! trained [`Classifier`]'s saved state (weights, normalizer,
//! hyperparameters), the feature subset it was trained on, and a config
//! fingerprint under the `loopml/model/v1` schema, written atomically
//! (temp file + rename).
//!
//! A stale or corrupt artifact must fail *loudly*: the consumer (the
//! `loopml-serve` daemon, a compiler) has no corpus to fall back to,
//! and serving predictions from the wrong model is a correctness bug,
//! not a performance one. Every mismatch here is an `Err`, never a
//! silent default.
//!
//! The fingerprint covers everything a trained model's *identity*
//! depends on that is knowable without the weights: the training
//! dataset (all feature bits and labels), the feature subset, the model
//! kind, and its hyperparameters. [`Pipeline::load_artifact`] recomputes
//! it from the current pipeline and rejects any artifact trained under
//! a different configuration.
//!
//! [`Pipeline::load_artifact`]: crate::builder::Pipeline::load_artifact

use std::collections::BTreeMap;
use std::path::Path;

use loopml_ml::{
    BaggedForest, Classifier, Constant, Dataset, DecisionTree, ForestParams, Mlp, MlpParams,
    MulticlassSvm, NearNeighbors, SvmParams, TreeParams, DEFAULT_RADIUS,
};
use loopml_rt::{fault_key, Json};

use crate::features::NUM_FEATURES;
use crate::heuristics::{LearnedHeuristic, OrcClassifier};

/// Schema tag stamped into every model artifact file.
pub const MODEL_SCHEMA: &str = "loopml/model/v1";

/// Fingerprint of a training dataset: every feature bit, every label,
/// and the shape. Two corpora that differ in any example — or the same
/// corpus filtered or featurized differently — fingerprint differently.
pub fn dataset_fingerprint(data: &Dataset) -> u64 {
    let mut words = Vec::with_capacity(3 + data.len() * (data.dims() + 1));
    words.push(data.len() as u64);
    words.push(data.dims() as u64);
    words.push(data.classes as u64);
    for (row, &y) in data.x.iter().zip(&data.y) {
        words.push(y as u64);
        words.extend(row.iter().map(|v| v.to_bits()));
    }
    fault_key(&words)
}

/// Hashes a string through the same mixer as the numeric fingerprints.
fn hash_str(s: &str) -> u64 {
    fault_key(&s.bytes().map(u64::from).collect::<Vec<u64>>())
}

/// The hyperparameter portion of a saved classifier state — the part of
/// the model's identity that is knowable without training. Weights are
/// deliberately excluded: the loader must be able to recompute the
/// fingerprint from configuration alone.
fn hyperparams_of_state(state: &Json) -> Json {
    match state.get("kind").and_then(Json::as_str) {
        Some("SVM") | Some("Tree") | Some("Forest") | Some("MLP") => {
            state.get("params").cloned().unwrap_or(Json::Null)
        }
        Some("NN") => state.get("radius").cloned().unwrap_or(Json::Null),
        Some("constant") => state.get("class").cloned().unwrap_or(Json::Null),
        _ => Json::Null,
    }
}

/// Fingerprint of everything a trained model's identity depends on:
/// the training corpus (via [`dataset_fingerprint`] of the *full*
/// 38-feature dataset), the feature subset the model actually sees, the
/// model kind, and its hyperparameters (extracted from the saved
/// `state`, never the weights). An artifact whose stored fingerprint
/// disagrees with the loader's recomputation was trained under a
/// different configuration and is rejected.
pub fn model_fingerprint(dataset_fp: u64, feature_subset: Option<&[usize]>, state: &Json) -> u64 {
    let kind = state.get("kind").and_then(Json::as_str).unwrap_or("");
    let mut words = vec![
        dataset_fp,
        hash_str(kind),
        hash_str(&hyperparams_of_state(state).to_string()),
    ];
    match feature_subset {
        Some(cols) => {
            words.push(1 + cols.len() as u64);
            words.extend(cols.iter().map(|&c| c as u64));
        }
        None => words.push(0),
    }
    fault_key(&words)
}

/// An unfitted classifier of the named kind, ready for
/// [`Classifier::load`]. The constructor hyperparameters are
/// placeholders — `load` replaces them with the saved ones.
pub fn classifier_for_kind(kind: &str) -> Result<Box<dyn Classifier>, String> {
    match kind {
        "NN" => Ok(Box::new(NearNeighbors::new(DEFAULT_RADIUS))),
        "SVM" => Ok(Box::new(MulticlassSvm::new(SvmParams::default()))),
        "Tree" => Ok(Box::new(DecisionTree::new(TreeParams::default()))),
        "Forest" => Ok(Box::new(BaggedForest::new(ForestParams::default()))),
        "MLP" => Ok(Box::new(Mlp::new(MlpParams::default()))),
        "ORC" => Ok(Box::new(OrcClassifier)),
        "constant" => Ok(Box::new(Constant::new(0))),
        other => Err(format!("unknown model kind {other:?}")),
    }
}

/// A versioned, fingerprinted package of one trained model: the
/// classifier's saved state, the feature projection it expects, and a
/// display name, under the [`MODEL_SCHEMA`] schema.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelArtifact {
    /// Heuristic display name ("NN", "SVM", …).
    pub name: String,
    /// Columns of the 38-feature vector the model sees (`None` = all).
    pub feature_subset: Option<Vec<usize>>,
    /// [`model_fingerprint`] computed at train time.
    pub fingerprint: u64,
    state: Json,
}

impl ModelArtifact {
    /// Packages a trained classifier. `fingerprint` should come from
    /// [`model_fingerprint`] (or [`Pipeline::train_artifact`], which
    /// computes it for you).
    ///
    /// [`Pipeline::train_artifact`]: crate::builder::Pipeline::train_artifact
    pub fn new(
        name: impl Into<String>,
        feature_subset: Option<Vec<usize>>,
        fingerprint: u64,
        state: Json,
    ) -> Self {
        ModelArtifact {
            name: name.into(),
            feature_subset,
            fingerprint,
            state,
        }
    }

    /// The saved classifier state (the document [`Classifier::save`]
    /// produced).
    pub fn state(&self) -> &Json {
        &self.state
    }

    /// The model kind tag recorded in the state ("NN", "SVM", "ORC", …).
    pub fn kind(&self) -> &str {
        self.state
            .get("kind")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
    }

    /// Serializes the artifact document.
    pub fn to_json(&self) -> Json {
        let mut m = BTreeMap::new();
        m.insert("schema".into(), Json::Str(MODEL_SCHEMA.into()));
        m.insert(
            "fingerprint".into(),
            Json::Str(format!("{:#018x}", self.fingerprint)),
        );
        m.insert("name".into(), Json::Str(self.name.clone()));
        m.insert(
            "feature_subset".into(),
            match &self.feature_subset {
                Some(cols) => Json::from_usizes(cols),
                None => Json::Null,
            },
        );
        m.insert("classifier".into(), self.state.clone());
        Json::Obj(m)
    }

    /// Parses an artifact document, validating the schema version.
    /// Every defect — wrong schema, malformed fingerprint, missing
    /// fields — is a loud error naming what is wrong.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        match doc.get("schema").and_then(Json::as_str) {
            Some(s) if s == MODEL_SCHEMA => {}
            Some(s) => {
                return Err(format!(
                    "artifact schema is {s:?}, expected {MODEL_SCHEMA:?}"
                ))
            }
            None => return Err("artifact has no schema tag".into()),
        }
        let fp_text = doc
            .get("fingerprint")
            .and_then(Json::as_str)
            .ok_or("artifact has no fingerprint")?;
        let fingerprint = fp_text
            .strip_prefix("0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("artifact fingerprint {fp_text:?} is not 0x-hex"))?;
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or("artifact has no name")?
            .to_string();
        let feature_subset = match doc.get("feature_subset") {
            Some(Json::Null) => None,
            Some(v) => Some(
                v.as_usizes()
                    .ok_or("artifact feature_subset is not an index array")?,
            ),
            None => return Err("artifact has no feature_subset field".into()),
        };
        let state = doc
            .get("classifier")
            .ok_or("artifact has no classifier state")?
            .clone();
        Ok(ModelArtifact {
            name,
            feature_subset,
            fingerprint,
            state,
        })
    }

    /// Reconstructs the deployable heuristic: an unfitted classifier of
    /// the recorded kind, loaded with the saved state, behind the saved
    /// feature projection. Predicts bit-identically to the heuristic the
    /// artifact was trained from. A projection column outside the 38
    /// features is an error naming the column: such a model could only
    /// panic at its first query.
    pub fn to_heuristic(&self) -> Result<LearnedHeuristic, String> {
        let cols = self.feature_subset.as_deref().unwrap_or(&[]);
        if let Some(c) = cols.iter().find(|&&c| c >= NUM_FEATURES) {
            return Err(format!(
                "artifact feature_subset index {c} is out of range: \
                 loops have {NUM_FEATURES} features"
            ));
        }
        let mut classifier = classifier_for_kind(self.kind())?;
        classifier.load(&self.state)?;
        Ok(LearnedHeuristic::new(
            self.name.clone(),
            self.feature_subset.clone(),
            classifier,
        ))
    }

    /// Writes the artifact atomically (temp file + rename): a kill
    /// mid-write leaves the old file or none, never a torn document.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, format!("{}\n", self.to_json()))?;
        std::fs::rename(&tmp, path)
    }

    /// Reads and validates an artifact file. Missing files, truncation,
    /// invalid JSON and schema mismatches are all loud errors.
    pub fn read(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read artifact {}: {e}", path.display()))?;
        let doc = Json::parse(&text)
            .map_err(|e| format!("artifact {} is not valid JSON: {e}", path.display()))?;
        Self::from_json(&doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(
            vec![
                vec![0.0, 1.0],
                vec![0.2, 0.9],
                vec![5.0, -2.0],
                vec![5.2, -2.2],
            ],
            vec![0, 0, 1, 1],
            2,
            vec!["a".into(), "b".into()],
            (0..4).map(|i| format!("e{i}")).collect(),
        )
    }

    #[test]
    fn dataset_fingerprint_tracks_every_bit() {
        let a = toy();
        let mut b = toy();
        assert_eq!(dataset_fingerprint(&a), dataset_fingerprint(&b));
        b.x[2][1] = -2.0000000001;
        assert_ne!(dataset_fingerprint(&a), dataset_fingerprint(&b));
        let mut c = toy();
        c.y[0] = 1;
        assert_ne!(dataset_fingerprint(&a), dataset_fingerprint(&c));
    }

    #[test]
    fn model_fingerprint_tracks_subset_kind_and_hyperparams() {
        let dfp = dataset_fingerprint(&toy());
        let nn = {
            let mut m = NearNeighbors::new(0.3);
            Classifier::fit(&mut m, &toy());
            Classifier::save(&m)
        };
        let base = model_fingerprint(dfp, None, &nn);
        assert_eq!(base, model_fingerprint(dfp, None, &nn), "deterministic");
        assert_ne!(base, model_fingerprint(dfp ^ 1, None, &nn), "corpus");
        assert_ne!(base, model_fingerprint(dfp, Some(&[0, 1]), &nn), "subset");
        let other_radius = {
            let mut m = NearNeighbors::new(0.7);
            Classifier::fit(&mut m, &toy());
            Classifier::save(&m)
        };
        assert_ne!(base, model_fingerprint(dfp, None, &other_radius), "hyper");
        let svm = Classifier::save(&MulticlassSvm::new(SvmParams::default()));
        assert_ne!(base, model_fingerprint(dfp, None, &svm), "kind");
    }

    #[test]
    fn artifact_round_trips_through_text() {
        let mut m = NearNeighbors::new(0.45);
        Classifier::fit(&mut m, &toy());
        let state = Classifier::save(&m);
        let fp = model_fingerprint(dataset_fingerprint(&toy()), Some(&[0, 1]), &state);
        let a = ModelArtifact::new("NN", Some(vec![0, 1]), fp, state);
        let text = a.to_json().to_string();
        let back = ModelArtifact::from_json(&Json::parse(&text).unwrap()).expect("parse");
        assert_eq!(back, a);
        assert_eq!(back.kind(), "NN");
        let h = back.to_heuristic().expect("reconstruct");
        for x in &toy().x {
            assert_eq!(h.classifier().predict(x), Classifier::predict(&m, x));
        }
    }

    #[test]
    fn wrong_schema_and_garbage_fail_loudly() {
        let a = ModelArtifact::new("ORC", None, 7, Classifier::save(&OrcClassifier));
        let tampered = a
            .to_json()
            .to_string()
            .replace(MODEL_SCHEMA, "loopml/model/v0");
        let err = ModelArtifact::from_json(&Json::parse(&tampered).unwrap()).unwrap_err();
        assert!(err.contains("schema"), "{err}");
        assert!(ModelArtifact::from_json(&Json::Null).is_err());
        assert!(classifier_for_kind("RandomForest").is_err());
    }

    #[test]
    fn file_round_trip_and_truncation() {
        let dir = std::env::temp_dir().join("loopml_artifact_unit");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("model.json");
        let a = ModelArtifact::new("ORC", None, 42, Classifier::save(&OrcClassifier));
        a.write(&path).expect("write");
        assert_eq!(ModelArtifact::read(&path), Ok(a));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        let err = ModelArtifact::read(&path).unwrap_err();
        assert!(err.contains("not valid JSON"), "{err}");
        assert!(ModelArtifact::read(&dir.join("absent.json")).is_err());
    }
}
