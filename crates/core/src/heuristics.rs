//! Unroll-factor heuristics: the hand-written ORC-style baselines the
//! learned classifiers are compared against, and the learned-classifier
//! adapter itself.

use loopml_ir::{Loop, TripCount};
use loopml_machine::MachineConfig;
use loopml_ml::{Classifier, Dataset};

use crate::features::extract;
use crate::label::MAX_UNROLL;

/// Anything that can pick an unroll factor for a loop at compile time.
pub trait UnrollHeuristic {
    /// Chooses a factor in `1..=8` for the loop.
    fn choose(&self, l: &Loop) -> u32;

    /// Heuristic name for reporting.
    fn name(&self) -> &str;
}

/// A hand-tuned heuristic in the spirit of ORC's non-SWP unroller:
/// body-size buckets pick an aggressiveness level, small known trip
/// counts unroll fully, non-divisible factors are rounded to avoid
/// remainder loops, and unknown trip counts are handled cautiously
/// (every intermediate boundary needs an exit check).
#[derive(Debug, Clone, Default)]
pub struct OrcHeuristic;

/// The ORC rule shared by [`OrcHeuristic`] and [`OrcClassifier`]: the
/// factor for a body of `ops` instructions with trip count `known_trip`
/// (`None` when unknown).
fn orc_factor(ops: u32, known_trip: Option<u64>) -> u32 {
    // Code-size bucket: aim for an unrolled body of ~48 instructions.
    let mut u: u32 = match ops {
        0..=11 => 8,
        12..=23 => 4,
        24..=47 => 2,
        _ => 1,
    };
    match known_trip {
        Some(t) => {
            // Tiny known trips: unroll completely.
            if t <= u64::from(MAX_UNROLL) {
                return (t as u32).max(1);
            }
            // Avoid remainder iterations: shrink to a divisor.
            while u > 1 && !t.is_multiple_of(u64::from(u)) {
                u /= 2;
            }
        }
        // Boundary exits are expensive; stay modest.
        None => u = u.min(4),
    }
    u.max(1)
}

impl UnrollHeuristic for OrcHeuristic {
    fn choose(&self, l: &Loop) -> u32 {
        if !l.is_unrollable() {
            return 1;
        }
        let known_trip = match l.trip_count {
            TripCount::Known(t) => Some(t),
            TripCount::Unknown { .. } => None,
        };
        orc_factor(l.len() as u32, known_trip)
    }

    fn name(&self) -> &str {
        "ORC"
    }
}

/// A hand-tuned heuristic in the spirit of ORC's SWP-era unroller (the
/// "205 lines of C++", reworked in every ORC release): it consults the
/// same scheduler machinery the pipeliner uses — the resource- and
/// recurrence-constrained initiation-interval bounds of the *actually
/// unrolled and optimized* body — and picks the smallest factor
/// minimizing the projected cycles per original iteration, with a
/// register-pressure guard, a crude (half-strength) cache-stall estimate,
/// and per-entry overheads amortized over the static trip estimate. The
/// *residual* — everything the projection gets wrong about the real
/// machine — is what the learned classifiers pick up.
#[derive(Debug, Clone)]
pub struct OrcSwpHeuristic {
    machine: MachineConfig,
}

impl OrcSwpHeuristic {
    /// Creates the heuristic for a machine description.
    pub fn new(machine: MachineConfig) -> Self {
        OrcSwpHeuristic { machine }
    }
}

impl Default for OrcSwpHeuristic {
    fn default() -> Self {
        OrcSwpHeuristic::new(MachineConfig::itanium2())
    }
}

impl UnrollHeuristic for OrcSwpHeuristic {
    fn choose(&self, l: &Loop) -> u32 {
        use loopml_ir::{DepGraph, Opcode};
        use loopml_machine::{list_schedule, max_live, rec_mii, res_mii};
        use loopml_opt::{unroll_and_optimize, OptConfig};

        if !l.is_unrollable() {
            return 1;
        }
        let opt = OptConfig::default();
        // Static trip estimate: the compiler sees known counts; unknown
        // counts get the traditional "assume ~100 iterations" default.
        let trips = match l.trip_count {
            TripCount::Known(t) => t as f64,
            TripCount::Unknown { .. } => 100.0,
        };
        let mut rolled_per_iter = 0.0;
        let mut best = (1u32, f64::INFINITY);
        for u in 1..=MAX_UNROLL {
            if let TripCount::Known(t) = l.trip_count {
                if t < u64::from(u) {
                    break;
                }
            }
            let un = unroll_and_optimize(l, u, &opt);
            if un.body.len() > self.machine.swp_body_limit {
                break;
            }
            let g = DepGraph::analyze(&un.body);
            let eligible =
                !un.body.has_call() && !un.body.body.iter().any(|i| i.opcode == Opcode::BrExit);
            let s = list_schedule(&un.body, &g, &self.machine);
            let kernel = if eligible {
                // Projected pipelined kernel: the MII bounds (the real
                // scheduler usually achieves them on these bodies).
                res_mii(&un.body, &self.machine).max(rec_mii(&un.body, &g, &self.machine))
            } else {
                s.iter_interval
            };
            // Register-pressure guard: reject factors that would spill.
            let pressure = max_live(&un.body, &g, &s.starts, kernel.max(1));
            if pressure.spilled(&self.machine) > 0 {
                continue;
            }
            // Steady-state projection: kernel plus memory stalls (ORC's
            // heuristic was tuned empirically, which bakes in first-order
            // cache behaviour even though no one wrote a cache model).
            // The hand model's cache estimate is crude: it sees only
            // half of the memory-level-parallelism benefit the machine
            // actually delivers (the paper's point about how hard the
            // secondary effects are to model by hand).
            let stall = 0.5 * loopml_machine::dcache_stall_per_iter(&un.body, &self.machine);
            let steady = (f64::from(kernel) + stall) / f64::from(u);
            if u == 1 {
                rolled_per_iter = steady;
            }
            // Per-entry overheads, amortized over the static trip
            // estimate: pipeline fill/drain, cold instruction fetch, and
            // the remainder loop of non-divisible known trip counts.
            let stages = s.length.div_ceil(kernel.max(1));
            let fill_drain = if eligible {
                2.0 * f64::from(stages.saturating_sub(1)) * f64::from(kernel)
            } else {
                0.0
            };
            let lines = un.body.code_bytes().div_ceil(self.machine.icache_line) as f64;
            let ifetch = lines * self.machine.ifetch_penalty * 0.5;
            let remainder = match l.trip_count {
                TripCount::Known(t) => (t % u64::from(u)) as f64 * rolled_per_iter,
                TripCount::Unknown { .. } => 0.0,
            };
            let per_orig = steady + (fill_drain + ifetch + remainder) / trips;
            // Conservative selection, as hand heuristics are: only move to
            // a *larger* factor for a clear (>5%) projected win. Code
            // growth is never free, and the projection is known to be
            // approximate.
            if per_orig < best.1 * 0.95 {
                best = (u, per_orig);
            }
        }
        best.0
    }

    fn name(&self) -> &str {
        "ORC-SWP"
    }
}

/// The ORC-style baseline behind the [`Classifier`] interface: a
/// stateless adapter recomputing [`OrcHeuristic`]'s decision from the
/// 38-feature vector alone (`# ops in loop body`, the tripcount pair).
/// `fit` is a no-op — there is nothing to train — which makes the
/// baseline interchangeable with NN and SVM anywhere a
/// `&mut dyn Classifier` is expected (LOOCV tables, rank distributions).
#[derive(Debug, Clone, Default)]
pub struct OrcClassifier;

/// Column of `# ops in loop body` in the full feature vector.
const F_OPS: usize = 1;
/// Column of `tripcount (-1 unknown)`.
const F_TRIP: usize = 19;
/// Column of the `known tripcount` indicator.
const F_KNOWN: usize = 25;

impl Classifier for OrcClassifier {
    fn fit(&mut self, _data: &Dataset) {}

    fn predict(&self, x: &[f64]) -> usize {
        let known_trip = (x[F_KNOWN] >= 0.5).then(|| x[F_TRIP].max(0.0) as u64);
        (orc_factor(x[F_OPS] as u32, known_trip) - 1) as usize
    }

    fn name(&self) -> &str {
        "ORC"
    }

    fn fresh(&self) -> Box<dyn Classifier> {
        Box::new(OrcClassifier)
    }

    fn save(&self) -> loopml_rt::Json {
        // Stateless: the kind tag is the whole state.
        loopml_rt::Json::obj([("kind", loopml_rt::Json::Str("ORC".into()))])
    }

    fn load(&mut self, state: &loopml_rt::Json) -> Result<(), String> {
        match state.get("kind").and_then(loopml_rt::Json::as_str) {
            Some("ORC") => Ok(()),
            Some(k) => Err(format!("state is for model kind {k:?}, not \"ORC\"")),
            None => Err("state has no \"kind\" tag".into()),
        }
    }
}

/// A learned heuristic: a trained [`Classifier`] behind the compile-time
/// interface. The classifier receives the loop's 38 raw features (or the
/// subset it was trained on, selected by `feature_subset`).
pub struct LearnedHeuristic {
    classifier: Box<dyn Classifier>,
    feature_subset: Option<Vec<usize>>,
    name: String,
}

impl std::fmt::Debug for LearnedHeuristic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LearnedHeuristic({})", self.name)
    }
}

impl LearnedHeuristic {
    /// Wraps an already-fitted classifier predicting classes `0..8`
    /// (factor − 1). If `feature_subset` is given, the classifier sees
    /// only those columns of the 38-feature vector, in order — it must
    /// have been trained on the matching projection.
    pub fn new(
        name: impl Into<String>,
        feature_subset: Option<Vec<usize>>,
        classifier: Box<dyn Classifier>,
    ) -> Self {
        LearnedHeuristic {
            classifier,
            feature_subset,
            name: name.into(),
        }
    }

    /// Fits `classifier` on `data` (already restricted to
    /// `feature_subset`, if any) and wraps it.
    pub fn fit(
        name: impl Into<String>,
        feature_subset: Option<Vec<usize>>,
        mut classifier: Box<dyn Classifier>,
        data: &Dataset,
    ) -> Self {
        classifier.fit(data);
        LearnedHeuristic::new(name, feature_subset, classifier)
    }

    /// The wrapped classifier.
    pub fn classifier(&self) -> &dyn Classifier {
        self.classifier.as_ref()
    }
}

impl UnrollHeuristic for LearnedHeuristic {
    fn choose(&self, l: &Loop) -> u32 {
        if !l.is_unrollable() {
            return 1;
        }
        let full = extract(l);
        let x: Vec<f64> = match &self.feature_subset {
            Some(cols) => cols.iter().map(|&c| full[c]).collect(),
            None => full,
        };
        (self.classifier.predict(&x) as u32 + 1).min(MAX_UNROLL)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopml_ir::{ArrayId, Inst, LoopBuilder, MemRef, Opcode};

    fn loop_of_size(n: usize, trip: TripCount) -> Loop {
        let mut b = LoopBuilder::new("l", trip);
        for k in 0..n {
            let r = b.fp_reg();
            b.load(r, MemRef::affine(ArrayId(k as u32), 8, 0, 8));
        }
        b.build()
    }

    #[test]
    fn orc_unrolls_small_bodies_more() {
        let h = OrcHeuristic;
        let small = loop_of_size(1, TripCount::Known(1024));
        let big = loop_of_size(60, TripCount::Known(1024));
        assert!(h.choose(&small) > h.choose(&big));
        assert_eq!(h.choose(&big), 1);
    }

    #[test]
    fn orc_fully_unrolls_tiny_trips() {
        let h = OrcHeuristic;
        let l = loop_of_size(2, TripCount::Known(5));
        assert_eq!(h.choose(&l), 5);
    }

    #[test]
    fn orc_avoids_remainders() {
        let h = OrcHeuristic;
        // 1030 = 2 * 5 * 103: 8 and 4 leave remainders, 2 divides.
        let l = loop_of_size(2, TripCount::Known(1030));
        assert_eq!(h.choose(&l), 2);
    }

    #[test]
    fn orc_caps_unknown_trips() {
        let h = OrcHeuristic;
        let l = loop_of_size(2, TripCount::Unknown { estimate: 1024 });
        assert!(h.choose(&l) <= 4);
    }

    #[test]
    fn orc_swp_considers_unknown_trips_via_the_scheduler() {
        // Unrolling an unknown-trip loop disables pipelining; the
        // heuristic compares the pipelined rolled kernel against the
        // list-scheduled unrolled one and picks whichever projects
        // faster. Either way the answer is a valid factor.
        let h = OrcSwpHeuristic::default();
        let l = loop_of_size(3, TripCount::Unknown { estimate: 1024 });
        assert!((1..=8).contains(&h.choose(&l)));
    }

    #[test]
    fn orc_swp_captures_fractional_ii() {
        let h = OrcSwpHeuristic::default();
        // 8 instructions on a 6-wide machine: ceil(8/6)=2 rolled (waste),
        // unroll 3 -> ceil(24/6)/3 = 4/3 per iteration: better.
        let l = loop_of_size(5, TripCount::Known(1200)); // 8 insts with control
        assert!(h.choose(&l) > 1, "chose {}", h.choose(&l));
    }

    #[test]
    fn heuristics_never_unroll_call_loops() {
        let mut b = LoopBuilder::new("c", TripCount::Known(64));
        b.call();
        let l = b.build();
        assert_eq!(OrcHeuristic.choose(&l), 1);
        assert_eq!(OrcSwpHeuristic::default().choose(&l), 1);
    }

    #[test]
    fn learned_heuristic_maps_class_to_factor() {
        let h = LearnedHeuristic::new("const-3", None, Box::new(loopml_ml::Constant::new(3)));
        let l = loop_of_size(2, TripCount::Known(100));
        assert_eq!(h.choose(&l), 4);
        assert_eq!(h.name(), "const-3");
    }

    #[test]
    fn learned_heuristic_selects_features() {
        /// Predicts the dimensionality it was queried with — a probe for
        /// the feature projection.
        #[derive(Debug)]
        struct DimProbe;
        impl Classifier for DimProbe {
            fn fit(&mut self, _data: &Dataset) {}
            fn predict(&self, x: &[f64]) -> usize {
                x.len() // 1 feature -> class 1 -> factor 2
            }
            fn name(&self) -> &str {
                "probe"
            }
            fn fresh(&self) -> Box<dyn Classifier> {
                Box::new(DimProbe)
            }
            fn save(&self) -> loopml_rt::Json {
                loopml_rt::Json::obj([("kind", loopml_rt::Json::Str("probe".into()))])
            }
            fn load(&mut self, _state: &loopml_rt::Json) -> Result<(), String> {
                Ok(())
            }
        }
        let h = LearnedHeuristic::new("first-feature", Some(vec![0]), Box::new(DimProbe));
        let mut b = LoopBuilder::new("l", TripCount::Known(10));
        let r = b.fp_reg();
        b.inst(Inst::new(Opcode::FAdd, vec![r], vec![r, r]));
        assert_eq!(h.choose(&b.build()), 2);
    }

    #[test]
    fn orc_classifier_matches_orc_heuristic() {
        // The feature-space adapter must agree with the loop-space
        // heuristic on every unrollable corpus loop.
        use loopml_corpus::{synthesize, SuiteConfig, ROSTER};
        let adapted = LearnedHeuristic::new("ORC", None, Box::new(OrcClassifier));
        let mut checked = 0;
        for entry in ROSTER.iter().take(6) {
            let b = synthesize(
                entry,
                &SuiteConfig {
                    min_loops: 12,
                    max_loops: 14,
                    ..SuiteConfig::default()
                },
            );
            for (_, w) in b.unrollable() {
                assert_eq!(
                    adapted.choose(&w.body),
                    OrcHeuristic.choose(&w.body),
                    "diverged on {}",
                    w.body.name
                );
                checked += 1;
            }
        }
        assert!(checked >= 20, "only {checked} loops compared");
    }

    #[test]
    fn orc_classifier_needs_no_fit() {
        let mut c = OrcClassifier;
        // Tiny body, known trip 1024 (divisible by 8): factor 8, class 7.
        let mut x = vec![0.0; crate::features::NUM_FEATURES];
        x[1] = 4.0;
        x[19] = 1024.0;
        x[25] = 1.0;
        assert_eq!(c.predict(&x), 7);
        // Unknown trip count caps at factor 4.
        x[19] = -1.0;
        x[25] = 0.0;
        assert_eq!(c.predict(&x), 3);
        // fit is a no-op and must not disturb predictions.
        let d = Dataset::new(
            vec![x.clone()],
            vec![0],
            8,
            (0..x.len()).map(|j| format!("f{j}")).collect(),
            vec!["e".into()],
        );
        c.fit(&d);
        assert_eq!(c.predict(&x), 3);
        assert_eq!(Classifier::name(&c), "ORC");
    }
}
