//! The labeling pipeline: measuring every unroll factor for every loop
//! and deriving the training label (paper §4.4–§4.6).
//!
//! For each unrollable loop, the eight variants (factors 1..=8) are
//! compiled (unroll + scalar replacement + coalescing) and costed on the
//! machine model once, then observed through the measurement-noise model
//! (median of N runs, as the paper's instrumentation does), and the
//! fastest factor becomes the label. Loops are filtered like the
//! paper's: they must run at least 50,000 cycles, and the best factor
//! must beat the mean of all factors by at least 1.05x.

use std::collections::BTreeMap;

use loopml_ir::{Benchmark, WeightedLoop};
use loopml_lint::{validate_pipeline, LintLevel};
use loopml_machine::{icache_entry_cost, loop_cost, MachineConfig, NoiseModel, SwpMode};
use loopml_opt::{unroll_and_optimize, OptConfig};
use loopml_rt::fault::site;
use loopml_rt::{fault_key, par_map_result, FaultPlane, Rng};

use crate::fault::{
    BenchmarkOutcome, DegradationReport, LabelError, QuarantineEntry, QuarantineScope,
};
use crate::features::extract;

/// Largest unroll factor measured (factors beyond eight did not compile
/// in the paper's infrastructure, and the classifier inherits the limit).
pub const MAX_UNROLL: u32 = 8;

/// Every measured factor, `1..=MAX_UNROLL`.
pub(crate) const FACTORS: [u32; MAX_UNROLL as usize] = [1, 2, 3, 4, 5, 6, 7, 8];

/// Hot instruction footprint of a benchmark at its rolled configuration:
/// the loops themselves plus the surrounding non-loop code, estimated
/// from the benchmark's non-loop time share (branchy integer codes have
/// large instruction working sets; tight FP kernels small ones).
pub fn hot_footprint(b: &Benchmark) -> u64 {
    let loops: u64 = b.iter().map(|w| w.body.code_bytes()).sum();
    let base = 4096 + (b.non_loop_fraction * 48_000.0) as u64;
    loops + base
}

/// Configuration of the labeling run.
#[derive(Debug, Clone)]
pub struct LabelConfig {
    /// Machine model.
    pub machine: MachineConfig,
    /// Post-unroll optimizations.
    pub opt: OptConfig,
    /// Software pipelining regime.
    pub swp: SwpMode,
    /// Measurement noise applied to each observation.
    pub noise: NoiseModel,
    /// Minimum observed cycles for a loop to be used (paper: 50,000).
    pub min_cycles: f64,
    /// Required best-vs-mean advantage (paper: 1.05).
    pub min_benefit: f64,
    /// Seed for the measurement-noise stream.
    pub seed: u64,
    /// Transform-validation level: every unrolled variant that
    /// contributes a runtime is checked against the original loop
    /// (structural invariants plus the differential-execution oracle)
    /// before its measurement is trusted. `Off` (the default) skips
    /// validation entirely; see [`loopml_lint`].
    pub lint: LintLevel,
}

impl LabelConfig {
    /// The paper's configuration for a given pipelining regime.
    pub fn paper(swp: SwpMode) -> Self {
        LabelConfig {
            machine: MachineConfig::itanium2(),
            opt: OptConfig::default(),
            swp,
            noise: NoiseModel::paper(),
            min_cycles: 50_000.0,
            min_benefit: 1.05,
            seed: 0x51EED,
            lint: LintLevel::from_env(),
        }
    }
}

/// One labeled training example.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledLoop {
    /// Loop name (`benchmark/loopNNN_family`).
    pub name: String,
    /// Index of the source benchmark within the labeled suite.
    pub benchmark: usize,
    /// The 38 static features.
    pub features: Vec<f64>,
    /// Best factor minus one (class in `0..8`).
    pub label: usize,
    /// Measured cycles at factors 1..=8.
    pub runtimes: [f64; MAX_UNROLL as usize],
}

impl LabeledLoop {
    /// The best unroll factor (1..=8).
    pub fn best_factor(&self) -> u32 {
        self.label as u32 + 1
    }

    /// Runtimes sorted ascending, with their factors.
    pub fn ranked_factors(&self) -> Vec<(u32, f64)> {
        let mut v: Vec<(u32, f64)> = (0..MAX_UNROLL)
            .map(|k| (k + 1, self.runtimes[k as usize]))
            .collect();
        v.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite runtimes"));
        v
    }

    /// Rank (0 = optimal) of the given factor among the measured
    /// runtimes.
    pub fn rank_of(&self, factor: u32) -> usize {
        self.ranked_factors()
            .iter()
            .position(|&(f, _)| f == factor)
            .expect("factor in 1..=8")
    }
}

/// The costing rule for unroll variants, shared by labeling, the oracle
/// and whole-benchmark evaluation. Builds `w`'s rolled variant once and
/// costs each of `factors` with [`loop_cost`] against the rolled
/// per-iteration cycles (factor 1 is the rolled variant itself).
/// Returns, per factor, the noise-free cycles of all of `w`'s entries and
/// the variant's code bytes. With a `footprint`, the cycles include the
/// instruction-cache entry cost under that hot-code footprint; without
/// one, the caller adds it under a footprint of its own.
pub(crate) fn variant_cycles<const N: usize>(
    w: &WeightedLoop,
    factors: [u32; N],
    footprint: Option<u64>,
    opt: &OptConfig,
    machine: &MachineConfig,
    swp: SwpMode,
) -> [(f64, u64); N] {
    let rolled = unroll_and_optimize(&w.body, 1, opt);
    let rolled_cost = loop_cost(&rolled, 0.0, machine, swp);
    factors.map(|factor| {
        let (cost, trips) = if factor == 1 {
            (rolled_cost, rolled.body.trip_count.dynamic())
        } else {
            let u = unroll_and_optimize(&w.body, factor, opt);
            let c = loop_cost(&u, rolled_cost.per_iter, machine, swp);
            (c, u.body.trip_count.dynamic())
        };
        let mut cycles = cost.total(trips, w.entries);
        if let Some(footprint) = footprint {
            cycles += icache_entry_cost(cost.code_bytes, footprint, machine) * w.entries as f64;
        }
        (cycles, cost.code_bytes)
    })
}

/// The noise-stream seed for one labeling attempt. Attempt 0 uses the
/// `(seed, benchmark, loop)` formula, and each retry derives a fresh,
/// deterministic seed so a transiently-faulted measurement is genuinely
/// re-measured, never silently reused.
pub fn attempt_seed(cfg_seed: u64, benchmark_index: usize, loop_index: usize, attempt: u32) -> u64 {
    let base = cfg_seed ^ (benchmark_index as u64) << 32 ^ loop_index as u64;
    if attempt == 0 {
        base
    } else {
        fault_key(&[base, u64::from(attempt)])
    }
}

/// One labeling attempt of one loop: observes its noise-free cycles at
/// all eight factors (`truth`) through the noise model and applies the
/// paper's filters. `Ok(None)` means the loop was dropped by the filters
/// (not a failure); `Err` reports an injected fault from `faults` (site
/// [`site::LABEL_MEASURE`], keyed by `(benchmark, loop, factor,
/// attempt)`) or a non-finite measurement.
///
/// The noise stream is seeded by [`attempt_seed`] alone, so every loop's
/// measurements are independent of which other loops are labeled — and
/// of the order or thread they are labeled on. That per-loop
/// independence is what makes labeling bit-identical at any worker
/// count.
fn label_attempt(
    w: &WeightedLoop,
    loop_index: usize,
    benchmark_index: usize,
    truth: &[f64; MAX_UNROLL as usize],
    cfg: &LabelConfig,
    faults: &FaultPlane,
    attempt: u32,
) -> Result<Option<LabeledLoop>, LabelError> {
    let mut rng = Rng::seed_from_u64(attempt_seed(cfg.seed, benchmark_index, loop_index, attempt));
    let mut runtimes = [0.0f64; MAX_UNROLL as usize];
    for (f, &cycles) in FACTORS.into_iter().zip(truth) {
        faults
            .check(
                site::LABEL_MEASURE,
                fault_key(&[
                    benchmark_index as u64,
                    loop_index as u64,
                    u64::from(f),
                    u64::from(attempt),
                ]),
            )
            .map_err(|fault| LabelError::Injected {
                site: fault.site,
                attempt,
            })?;
        let measured = cfg.noise.measure(cycles, &mut rng);
        if !measured.is_finite() {
            return Err(LabelError::NonFinite { factor: f });
        }
        runtimes[(f - 1) as usize] = measured;
    }
    let (best_idx, &best) = runtimes
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .expect("eight runtimes");

    // Paper filters: enough cycles to measure, and a meaningful win.
    if best < cfg.min_cycles {
        return Ok(None);
    }
    let mean: f64 = runtimes.iter().sum::<f64>() / runtimes.len() as f64;
    if mean / best < cfg.min_benefit {
        return Ok(None);
    }

    Ok(Some(LabeledLoop {
        name: w.body.name.clone(),
        benchmark: benchmark_index,
        features: extract(&w.body),
        label: best_idx,
        runtimes,
    }))
}

/// Additional attempts a transiently-faulted loop gets before it is
/// quarantined, so a quarantined loop records `RETRY_BUDGET + 1`
/// attempts.
pub const RETRY_BUDGET: u32 = 3;

/// The result of a labeling run: the surviving corpus plus the
/// degradation accounting that says what it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelRun {
    /// Labeled loops, in suite order.
    pub labeled: Vec<LabeledLoop>,
    /// Attempt index each labeled loop succeeded on, aligned with
    /// `labeled` (0 = clean first try; anything else was re-measured
    /// under a retry seed and may legitimately differ from a fault-free
    /// run — see `DESIGN.md` §9).
    pub attempts: Vec<u32>,
    /// What was retried and quarantined.
    pub report: DegradationReport,
}

/// Labels every unrollable loop of a benchmark, applying the paper's
/// filters. `benchmark_index` is recorded in each example for the
/// leave-one-benchmark-out protocol. Each loop's eight variants are
/// validated first (under [`LabelConfig::lint`]), then costed once;
/// every attempt observes those cycles through fresh noise. Transient
/// faults at [`site::LABEL_MEASURE`] consume the loop's [`RETRY_BUDGET`]
/// (each retry re-measures under a fresh deterministic seed — see
/// [`attempt_seed`]); a loop that exhausts it is quarantined, not
/// fatal. The [`site::LABEL_LOOP`] injection site (keyed by benchmark
/// index) trips *here*, as a panic, modelling a benchmark whose labeling
/// process crashes outright — the suite-level isolation in
/// [`label_suite_resilient`] catches it and quarantines the whole
/// benchmark.
pub fn label_benchmark(
    b: &Benchmark,
    benchmark_index: usize,
    cfg: &LabelConfig,
    faults: &FaultPlane,
) -> BenchmarkOutcome {
    faults.trip(site::LABEL_LOOP, benchmark_index as u64);
    let footprint = hot_footprint(b);
    let mut outcome = BenchmarkOutcome {
        labeled: Vec::new(),
        attempts: Vec::new(),
        quarantined: Vec::new(),
        fault_sites: BTreeMap::new(),
    };
    'loops: for (li, w) in b.unrollable() {
        if cfg.lint.is_enabled() {
            for f in FACTORS {
                validate_pipeline(&w.body, f, &cfg.opt).enforce(cfg.lint, &w.body.name);
            }
        }
        let truth = variant_cycles(w, FACTORS, Some(footprint), &cfg.opt, &cfg.machine, cfg.swp)
            .map(|(cycles, _)| cycles);
        let mut last = None;
        for attempt in 0..=RETRY_BUDGET {
            match label_attempt(w, li, benchmark_index, &truth, cfg, faults, attempt) {
                Ok(labeled) => {
                    if let Some(l) = labeled {
                        outcome.labeled.push(l);
                        outcome.attempts.push(attempt);
                    }
                    continue 'loops;
                }
                Err(e) => {
                    *outcome
                        .fault_sites
                        .entry(e.site_key().to_string())
                        .or_insert(0) += 1;
                    last = Some(e);
                }
            }
        }
        let last = last.expect("at least one attempt ran");
        outcome.quarantined.push(QuarantineEntry {
            scope: QuarantineScope::Loop,
            benchmark: benchmark_index,
            name: w.body.name.clone(),
            reason: last.to_string(),
            site: last.site().map(str::to_string),
            attempts: RETRY_BUDGET + 1,
        });
    }
    outcome
}

/// Labels a whole suite fault-tolerantly under `faults`: benchmarks run
/// in parallel under panic isolation ([`loopml_rt::par_map_result`]),
/// and a benchmark whose labeling panics is quarantined whole. The
/// surviving labels come back in suite order, bit-identical at any
/// thread count.
pub fn label_suite_resilient(
    suite: &[Benchmark],
    cfg: &LabelConfig,
    faults: &FaultPlane,
) -> LabelRun {
    let indexed: Vec<(usize, &Benchmark)> = suite.iter().enumerate().collect();
    let results = par_map_result(&indexed, |&(bi, b)| label_benchmark(b, bi, cfg, faults));

    // Aggregate in suite order so output order never depends on
    // scheduling or on which benchmarks crashed.
    let mut labeled = Vec::new();
    let mut attempts = Vec::new();
    let mut quarantined = Vec::new();
    let mut retry_histogram: BTreeMap<u32, usize> = BTreeMap::new();
    let mut fault_sites: BTreeMap<String, usize> = BTreeMap::new();
    let mut completed = 0usize;
    for ((bi, b), result) in indexed.into_iter().zip(results) {
        match result {
            Ok(outcome) => {
                completed += 1;
                for &a in &outcome.attempts {
                    *retry_histogram.entry(a).or_insert(0) += 1;
                }
                for (k, v) in outcome.fault_sites {
                    *fault_sites.entry(k).or_insert(0) += v;
                }
                labeled.extend(outcome.labeled);
                attempts.extend(outcome.attempts);
                quarantined.extend(outcome.quarantined);
            }
            Err(err) => {
                *fault_sites
                    .entry(err.injected.unwrap_or("panic").to_string())
                    .or_insert(0) += 1;
                quarantined.push(QuarantineEntry {
                    scope: QuarantineScope::Benchmark,
                    benchmark: bi,
                    name: b.name.clone(),
                    reason: err.message,
                    site: err.injected.map(str::to_string),
                    attempts: 1,
                });
            }
        }
    }
    let report = DegradationReport {
        benchmarks: suite.len(),
        completed,
        labeled: labeled.len(),
        quarantined,
        retry_histogram,
        fault_sites,
    };
    LabelRun {
        labeled,
        attempts,
        report,
    }
}

/// Re-raises the first benchmark crash that no fault plane injected
/// ([`DegradationReport::uninjected_crash`]): a bug, or a
/// transform-validation deny under [`LintLevel::Deny`].
/// [`label_suite_resilient`] isolates every crash so `repro label` can
/// write and account for it before failing; in-process callers
/// ([`label_suite`], `PipelineBuilder::build`) fail fast instead, so a
/// miscompiled or crashing benchmark never goes silently missing from
/// their corpus.
///
/// # Panics
///
/// Panics with the benchmark's name and the recorded panic message.
pub(crate) fn fail_on_crash(report: &DegradationReport) {
    if let Some(e) = report.uninjected_crash() {
        panic!("labeling {} crashed: {}", e.name, e.reason);
    }
}

/// Unpredicates the latch of `b`'s first unrollable loop. Transform
/// validation denies that loop, so under [`LintLevel::Deny`] labeling
/// `b` panics with no fault injected.
#[cfg(test)]
pub(crate) fn break_first_latch(b: &mut Benchmark) {
    let (li, _) = b.unrollable().next().expect("an unrollable loop");
    let body = &mut b.loops[li].body.body;
    let latch = body.iter_mut().find(|i| i.opcode == loopml_ir::Opcode::Br);
    latch.expect("a latch").predicate = None;
}

/// The fault-free view of [`label_suite_resilient`]: the whole suite
/// with fault injection disabled, keeping only the labeled loops.
///
/// # Panics
///
/// Panics if a benchmark's labeling crashes, with the benchmark's name
/// and the panic message: a crash here is a bug or a transform-validation
/// deny under [`LintLevel::Deny`], since no fault is injected.
pub fn label_suite(suite: &[Benchmark], cfg: &LabelConfig) -> Vec<LabeledLoop> {
    let run = label_suite_resilient(suite, cfg, &FaultPlane::disabled());
    fail_on_crash(&run.report);
    run.labeled
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopml_corpus::{synthesize, SuiteConfig, ROSTER};
    use loopml_rt::with_threads;

    fn quick_cfg() -> LabelConfig {
        LabelConfig {
            noise: NoiseModel::exact(),
            ..LabelConfig::paper(SwpMode::Disabled)
        }
    }

    fn small_benchmark() -> Benchmark {
        synthesize(
            &ROSTER[2], // 171.swim
            &SuiteConfig {
                min_loops: 10,
                max_loops: 12,
                ..SuiteConfig::default()
            },
        )
    }

    /// One benchmark's labels at suite index 0, through the fault-free
    /// entry point.
    fn labeled(b: &Benchmark, cfg: &LabelConfig) -> Vec<LabeledLoop> {
        label_suite(std::slice::from_ref(b), cfg)
    }

    #[test]
    fn labels_are_valid_classes() {
        let b = small_benchmark();
        let labeled = labeled(&b, &quick_cfg());
        assert!(!labeled.is_empty(), "some loops must survive the filters");
        for l in &labeled {
            assert!(l.label < 8);
            assert_eq!(l.features.len(), crate::features::NUM_FEATURES);
            assert!(l.runtimes.iter().all(|r| *r > 0.0));
        }
    }

    #[test]
    fn label_is_argmin_of_runtimes() {
        let b = small_benchmark();
        for l in labeled(&b, &quick_cfg()) {
            let min = l.runtimes.iter().cloned().fold(f64::INFINITY, f64::min);
            assert_eq!(l.runtimes[l.label], min);
            assert_eq!(l.rank_of(l.best_factor()), 0);
        }
    }

    #[test]
    fn filters_drop_indifferent_loops() {
        let b = small_benchmark();
        let strict = LabelConfig {
            min_benefit: 1.5,
            ..quick_cfg()
        };
        let lax = LabelConfig {
            min_benefit: 1.0,
            min_cycles: 0.0,
            ..quick_cfg()
        };
        let ns = labeled(&b, &strict).len();
        let nl = labeled(&b, &lax).len();
        assert!(ns <= nl, "stricter filter keeps fewer loops: {ns} vs {nl}");
    }

    #[test]
    fn labeling_is_deterministic() {
        let b = small_benchmark();
        let a = labeled(&b, &quick_cfg());
        let c = labeled(&b, &quick_cfg());
        assert_eq!(a, c);
    }

    #[test]
    fn ranked_factors_are_sorted() {
        let b = small_benchmark();
        for l in labeled(&b, &quick_cfg()) {
            let ranked = l.ranked_factors();
            for w in ranked.windows(2) {
                assert!(w[0].1 <= w[1].1);
            }
        }
    }

    #[test]
    fn noise_changes_measurements_not_structure() {
        let b = small_benchmark();
        let noisy = LabelConfig {
            noise: NoiseModel::paper(),
            ..quick_cfg()
        };
        let l1 = labeled(&b, &noisy);
        let l2 = labeled(&b, &noisy);
        assert_eq!(l1, l2, "same seed, same labels");
    }

    fn suite() -> Vec<Benchmark> {
        ROSTER[..3]
            .iter()
            .map(|r| {
                synthesize(
                    r,
                    &SuiteConfig {
                        min_loops: 6,
                        max_loops: 8,
                        ..SuiteConfig::default()
                    },
                )
            })
            .collect()
    }

    /// [`label_suite_resilient`] over the whole suite under `faults` on
    /// `threads` workers.
    fn run_on(
        threads: usize,
        suite: &[Benchmark],
        cfg: &LabelConfig,
        faults: FaultPlane,
    ) -> LabelRun {
        with_threads(threads, || label_suite_resilient(suite, cfg, &faults))
    }

    #[test]
    fn fault_free_runs_are_thread_invariant() {
        let suite = suite();
        let cfg = LabelConfig::paper(SwpMode::Disabled);
        let run = |threads| run_on(threads, &suite, &cfg, FaultPlane::disabled());
        let reference = run(1);
        assert!(!reference.labeled.is_empty());
        assert!(reference.attempts.iter().all(|&a| a == 0));
        assert!(reference.report.quarantined.is_empty());
        assert_eq!(reference.report.completed, suite.len());
        assert_eq!(reference.report.labeled, reference.labeled.len());
        assert!(reference.report.fault_sites.is_empty());
        for threads in [2, 5] {
            assert_eq!(run(threads), reference, "diverged at {threads} threads");
        }
        assert_eq!(label_suite(&suite, &cfg), reference.labeled);
    }

    #[test]
    fn retry_seeds_are_distinct_and_attempt_zero_is_legacy() {
        assert_eq!(attempt_seed(0x51EED, 3, 7, 0), 0x51EED ^ (3u64 << 32) ^ 7);
        let seeds: Vec<u64> = (0..5).map(|a| attempt_seed(0x51EED, 3, 7, a)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(
            uniq.len(),
            seeds.len(),
            "attempt seeds must differ: {seeds:?}"
        );
    }

    #[test]
    fn transient_measure_faults_are_retried() {
        // Rate 1.0 restricted to attempt-0 keys would be ideal, but the
        // key mixes the attempt index, so a full-rate plane faults every
        // attempt: everything unrollable must end up quarantined...
        let suite = suite();
        let cfg = LabelConfig::paper(SwpMode::Disabled);
        let all = FaultPlane::new(1, 1.0).at_site(site::LABEL_MEASURE);
        let run = run_on(1, &suite, &cfg, all);
        assert!(run.labeled.is_empty());
        assert!(!run.report.quarantined.is_empty());
        assert!(run
            .report
            .quarantined
            .iter()
            .all(|q| q.scope == QuarantineScope::Loop
                && q.attempts == RETRY_BUDGET + 1
                && q.site.as_deref() == Some(site::LABEL_MEASURE)));
        assert_eq!(
            run.report.completed,
            suite.len(),
            "benchmarks still complete"
        );

        // ...while a moderate rate lets retries succeed: some loops need
        // more than one attempt, and the run still labels loops. (A loop
        // makes eight faultable measurements per attempt, so even a 10%
        // rate faults most first attempts.)
        let some = FaultPlane::new(7, 0.1).at_site(site::LABEL_MEASURE);
        let run = run_on(1, &suite, &cfg, some);
        assert!(!run.labeled.is_empty());
        assert!(run.attempts.iter().any(|&a| a > 0), "some retries expected");
        assert!(run.report.fault_sites.contains_key(site::LABEL_MEASURE));
    }

    #[test]
    fn chaos_runs_are_thread_invariant_and_reproducible() {
        let suite = suite();
        let cfg = LabelConfig::paper(SwpMode::Disabled);
        let plane = || FaultPlane::new(0xC4A05, 0.25);
        let reference = run_on(1, &suite, &cfg, plane());
        for threads in [2, 4] {
            let run = run_on(threads, &suite, &cfg, plane());
            assert_eq!(run, reference, "chaos diverged at {threads} threads");
        }
    }

    #[test]
    fn crashed_benchmark_quarantines_whole_benchmark() {
        let suite = suite();
        let cfg = LabelConfig::paper(SwpMode::Disabled);
        let plane = FaultPlane::new(0, 1.0)
            .at_site(site::LABEL_LOOP)
            .only_keys(vec![1]);
        let run = run_on(4, &suite, &cfg, plane);
        let bench_q: Vec<_> = run
            .report
            .quarantined
            .iter()
            .filter(|q| q.scope == QuarantineScope::Benchmark)
            .collect();
        assert_eq!(bench_q.len(), 1);
        assert_eq!(bench_q[0].benchmark, 1);
        assert_eq!(bench_q[0].name, suite[1].name);
        assert_eq!(bench_q[0].site.as_deref(), Some(site::LABEL_LOOP));
        assert_eq!(run.report.completed, suite.len() - 1);
        // Survivors are untouched: bit-identical to labeling them alone.
        assert!(run.labeled.iter().all(|l| l.benchmark != 1));
        let alone: Vec<LabeledLoop> = [0usize, 2]
            .into_iter()
            .flat_map(|bi| label_benchmark(&suite[bi], bi, &cfg, &FaultPlane::disabled()).labeled)
            .collect();
        assert_eq!(run.labeled, alone);
    }

    #[test]
    fn uninjected_crash_is_quarantined_by_the_engine_and_fails_label_suite() {
        let mut suite = suite();
        break_first_latch(&mut suite[1]);
        let cfg = LabelConfig {
            lint: LintLevel::Deny,
            ..quick_cfg()
        };
        // The engine isolates the crash and records it, as `repro label`
        // reports it...
        let run = run_on(2, &suite, &cfg, FaultPlane::disabled());
        let q = &run.report.quarantined;
        assert_eq!(q.len(), 1, "{q:?}");
        assert_eq!(q[0].scope, QuarantineScope::Benchmark);
        assert_eq!((q[0].benchmark, q[0].site.as_deref()), (1, None));
        // ...while the fault-free view fails fast with the reason.
        let err = std::panic::catch_unwind(|| label_suite(&suite, &cfg))
            .expect_err("label_suite must not drop a crashed benchmark");
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        let name = &suite[1].name;
        assert!(msg.contains(&format!("labeling {name} crashed")), "{msg}");
        assert!(msg.contains("deny"), "{msg}");
    }
}
