//! Whole-benchmark evaluation: turning per-loop unroll decisions into the
//! program-level speedups of Figures 4 and 5.
//!
//! A benchmark's runtime is the weighted sum of its loops' simulated
//! cycles plus a fixed non-loop share; loop weights are calibrated at the
//! rolled (factor 1) configuration, exactly like deriving per-loop
//! execution counts from a baseline profile. The instruction-cache entry
//! cost couples loops globally: unrolling one loop inflates the hot-code
//! footprint every loop contends with.

use loopml_ir::Benchmark;
use loopml_machine::{icache_entry_cost, MachineConfig, NoiseModel, SwpMode};
use loopml_opt::OptConfig;
use loopml_rt::fault::site;
use loopml_rt::{fault_key_str, FaultPlane, Rng};

use crate::heuristics::UnrollHeuristic;
use crate::label::{hot_footprint, variant_cycles, FACTORS, MAX_UNROLL};

/// Evaluation configuration (machine + measurement regime).
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Machine model.
    pub machine: MachineConfig,
    /// Post-unroll optimization pipeline.
    pub opt: OptConfig,
    /// Software pipelining regime.
    pub swp: SwpMode,
    /// Noise applied to whole-benchmark measurements (the paper uses the
    /// median of three `time` runs).
    pub noise: NoiseModel,
    /// Seed for the measurement stream.
    pub seed: u64,
    /// Fault-injection plane; [`measure_benchmark`] trips
    /// [`site::EVAL_BENCH`] (keyed by benchmark name), modelling a
    /// benchmark run that crashes under measurement. Callers isolate it
    /// with [`loopml_rt::par_map_result`].
    pub faults: FaultPlane,
}

impl EvalConfig {
    /// The paper's whole-program measurement regime.
    pub fn paper(swp: SwpMode) -> Self {
        EvalConfig {
            machine: MachineConfig::itanium2(),
            opt: OptConfig::default(),
            swp,
            noise: NoiseModel {
                sigma: 0.01,
                runs: 3,
            },
            seed: 0xE7A1,
            faults: FaultPlane::env_or_disabled(),
        }
    }

    /// Noise-free variant (for deterministic tests).
    pub fn exact(swp: SwpMode) -> Self {
        EvalConfig {
            noise: NoiseModel::exact(),
            ..EvalConfig::paper(swp)
        }
    }
}

/// Runs a benchmark with per-loop unroll `choices` and returns total
/// cycles (noise-free).
///
/// # Panics
///
/// Panics if `choices.len() != benchmark.len()` or a choice is outside
/// `1..=8`.
pub fn run_benchmark(b: &Benchmark, choices: &[u32], ec: &EvalConfig) -> f64 {
    assert_eq!(choices.len(), b.len(), "one choice per loop");
    assert!(
        choices.iter().all(|&c| (1..=MAX_UNROLL).contains(&c)),
        "factors must be 1..=8"
    );

    // Pass 1: per-loop costs at the chosen factor and at factor 1, and
    // the footprint induced by the choices.
    let mut rolled_cycles = Vec::with_capacity(b.len());
    let mut chosen_cycles = Vec::with_capacity(b.len());
    let mut code_bytes = Vec::with_capacity(b.len());
    for (w, &choice) in b.loops.iter().zip(choices) {
        let factor = if w.body.is_unrollable() { choice } else { 1 };
        let [(rolled, _), (chosen, bytes)] =
            variant_cycles(w, [1, factor], None, &ec.opt, &ec.machine, ec.swp);
        rolled_cycles.push(rolled);
        chosen_cycles.push(chosen);
        code_bytes.push(bytes);
    }
    let rolled_loop_bytes: u64 = b.iter().map(|w| w.body.code_bytes()).sum();
    let footprint: u64 = code_bytes.iter().sum::<u64>() + hot_footprint(b) - rolled_loop_bytes;

    // Pass 2: weight calibration at the rolled baseline. `scale[i]`
    // converts one simulated run of loop i into its share of the
    // program's loop time.
    let mut total = 0.0;
    let mut rolled_total = 0.0;
    for (i, w) in b.loops.iter().enumerate() {
        let scale = w.weight / rolled_cycles[i].max(1.0);
        let icache = icache_entry_cost(code_bytes[i], footprint, &ec.machine) * w.entries as f64;
        total += scale * (chosen_cycles[i] + icache);
        rolled_total += scale * rolled_cycles[i];
    }
    // Non-loop share, constant relative to the rolled loop time.
    let non_loop = rolled_total * b.non_loop_fraction / (1.0 - b.non_loop_fraction);
    total + non_loop
}

/// Measures a benchmark under a heuristic, through the observation-noise
/// model (median of N runs).
pub fn measure_benchmark(b: &Benchmark, h: &dyn UnrollHeuristic, ec: &EvalConfig) -> f64 {
    ec.faults.trip(site::EVAL_BENCH, fault_key_str(&b.name));
    let choices: Vec<u32> = b.loops.iter().map(|w| h.choose(&w.body)).collect();
    let truth = run_benchmark(b, &choices, ec);
    let mut rng = Rng::seed_from_u64(ec.seed ^ fnv(&b.name) ^ fnv(h.name()));
    ec.noise.measure(truth, &mut rng)
}

/// Oracle choices: per-loop exhaustive search under the same metric the
/// labels use — the noise-free cycles the labeler observes, loop cycles
/// plus the instruction-cache entry cost in the benchmark's rolled
/// footprint context (the paper's per-loop-independence assumption: each
/// loop is optimized as if the others stayed put). Ties keep the smaller
/// factor.
pub fn oracle_choices(b: &Benchmark, ec: &EvalConfig) -> Vec<u32> {
    let footprint = hot_footprint(b);
    b.loops
        .iter()
        .map(|w| {
            if !w.body.is_unrollable() {
                return 1;
            }
            let cycles = variant_cycles(w, FACTORS, Some(footprint), &ec.opt, &ec.machine, ec.swp);
            let mut best = (1u32, cycles[0].0);
            for (f, &(t, _)) in FACTORS.into_iter().zip(&cycles).skip(1) {
                if t < best.1 {
                    best = (f, t);
                }
            }
            best.0
        })
        .collect()
}

/// Measures a benchmark under the oracle's choices (noisy observation).
pub fn measure_oracle(b: &Benchmark, ec: &EvalConfig) -> f64 {
    let choices = oracle_choices(b, ec);
    let truth = run_benchmark(b, &choices, ec);
    let mut rng = Rng::seed_from_u64(ec.seed ^ fnv(&b.name) ^ fnv("oracle"));
    ec.noise.measure(truth, &mut rng)
}

/// Relative improvement of `new` over `base`: `base/new − 1` (so +0.05 is
/// a 5% speedup).
pub fn improvement(base: f64, new: f64) -> f64 {
    base / new - 1.0
}

fn fnv(name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::{LearnedHeuristic, OrcHeuristic};
    use loopml_corpus::{synthesize, SuiteConfig, ROSTER};

    fn bench() -> Benchmark {
        synthesize(
            &ROSTER[2],
            &SuiteConfig {
                min_loops: 8,
                max_loops: 10,
                ..SuiteConfig::default()
            },
        )
    }

    #[test]
    fn oracle_beats_or_ties_everything_noise_free() {
        let b = bench();
        let ec = EvalConfig::exact(SwpMode::Disabled);
        let oracle = run_benchmark(&b, &oracle_choices(&b, &ec), &ec);
        let orc: Vec<u32> = b
            .loops
            .iter()
            .map(|w| OrcHeuristic.choose(&w.body))
            .collect();
        let orc_t = run_benchmark(&b, &orc, &ec);
        let rolled = run_benchmark(&b, &vec![1; b.len()], &ec);
        assert!(oracle <= orc_t * 1.0001, "oracle {oracle} vs orc {orc_t}");
        assert!(
            oracle <= rolled * 1.0001,
            "oracle {oracle} vs rolled {rolled}"
        );
    }

    #[test]
    fn always_eight_can_lose_to_oracle() {
        let b = bench();
        let ec = EvalConfig::exact(SwpMode::Disabled);
        let eights = run_benchmark(&b, &vec![8; b.len()], &ec);
        let oracle = run_benchmark(&b, &oracle_choices(&b, &ec), &ec);
        assert!(oracle <= eights);
    }

    #[test]
    fn improvement_signs() {
        assert!(improvement(110.0, 100.0) > 0.0);
        assert!(improvement(100.0, 110.0) < 0.0);
        assert!((improvement(100.0, 100.0)).abs() < 1e-12);
    }

    #[test]
    fn run_is_deterministic() {
        let b = bench();
        let ec = EvalConfig::exact(SwpMode::Disabled);
        let c = vec![2; b.len()];
        assert_eq!(run_benchmark(&b, &c, &ec), run_benchmark(&b, &c, &ec));
    }

    #[test]
    fn measurement_noise_is_seeded() {
        let b = bench();
        let ec = EvalConfig::paper(SwpMode::Disabled);
        let h = OrcHeuristic;
        assert_eq!(
            measure_benchmark(&b, &h, &ec),
            measure_benchmark(&b, &h, &ec)
        );
    }

    #[test]
    fn learned_constant_one_matches_rolled() {
        let b = bench();
        let ec = EvalConfig::exact(SwpMode::Disabled);
        let h = LearnedHeuristic::new("rolled", None, Box::new(loopml_ml::Constant::new(0)));
        let choices: Vec<u32> = b.loops.iter().map(|w| h.choose(&w.body)).collect();
        let t = run_benchmark(&b, &choices, &ec);
        let rolled = run_benchmark(&b, &vec![1; b.len()], &ec);
        assert!((t - rolled).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "one choice per loop")]
    fn wrong_choice_count_rejected() {
        let b = bench();
        let ec = EvalConfig::exact(SwpMode::Disabled);
        let _ = run_benchmark(&b, &[1, 2], &ec);
    }
}
