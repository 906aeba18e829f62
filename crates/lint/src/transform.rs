//! Layer 2: transform validation.
//!
//! Post-pass checkers for the unroller and its follow-on optimizations
//! (scalar replacement, copy propagation, DCE, coalescing):
//!
//! * [`validate_unroll`] — structural invariants of a *raw*
//!   [`unroll`] result: factor/trip/remainder metadata, body
//!   replication counts, register-renaming discipline and memory-
//!   reference advancement;
//! * [`validate_transformed`] — semantic invariants of any transformed
//!   body (raw or optimized): the output re-verifies, optimizations did
//!   not add memory traffic or change the bytes stored, and the
//!   differential-execution oracle agrees;
//! * [`validate_pipeline`] — the one-call wrapper labeling uses: runs
//!   both of the above on the raw unroll and the optimized result.
//!
//! The differential oracle interprets original and transformed loops
//! over matching iteration spans ([`interp::execute`]) and compares the
//! final memory states cell by cell. Branches are interpreter no-ops, so
//! the oracle is exact for early-exit loops: both variants replay the
//! same branch-free semantics. The one blind spot is *indirect*
//! addressing (gathers/scatters): the interpreter models every address
//! as `stride·iter + offset`, but an indirect reference's real address
//! is data-dependent — `MemRef::advanced` is deliberately the identity
//! for it while unrolling still scales the stride, so the affine
//! pretend-addresses of original and unrolled bodies diverge even though
//! the transform is correct by construction. [`validate_transformed`]
//! therefore skips the oracle (not the structural checks) for loops
//! containing indirect references.

use std::collections::BTreeMap;

use loopml_ir::{Loop, Opcode, Reg, TripCount};
use loopml_opt::{interp, unroll, unroll_and_optimize, OptConfig, Unrolled};

use crate::legality::{self, Verdict};
use crate::{rules, verify::verify_loop, Diagnostic, Report};

/// Trip counts the differential oracle runs by default (each is executed
/// at `trip × factor` original iterations).
pub const DIFF_TRIPS: &[u64] = &[0, 1, 2, 5];

/// Fingerprint of a memory descriptor for multiset comparison.
type MemKey = (u32, i64, i64, u8, bool, bool);

fn mem_multiset(l: &Loop) -> Vec<MemKey> {
    let mut v: Vec<MemKey> = l
        .body
        .iter()
        .filter_map(|i| i.mem)
        .map(|m| {
            (
                m.base.0,
                m.stride,
                m.offset,
                m.width,
                m.indirect,
                m.ambiguous,
            )
        })
        .collect();
    v.sort_unstable();
    v
}

fn store_bytes(l: &Loop) -> u64 {
    l.body
        .iter()
        .filter(|i| i.is_store())
        .map(|i| i.mem.map_or(0, |m| u64::from(m.width)))
        .sum()
}

fn mem_ops(l: &Loop) -> usize {
    l.count_ops(|i| i.opcode.is_mem())
}

/// Structural validation of a raw [`unroll`] result against its
/// original. The original is assumed to be well-formed (run
/// [`verify_loop`] first — [`validate_pipeline`] does).
pub fn validate_unroll(original: &Loop, factor: u32, u: &Unrolled) -> Report {
    let mut out = Report::new();
    let loc = u.body.name.clone();
    let f = u64::from(factor);

    if u.factor != factor {
        out.push(Diagnostic::deny(
            rules::XF_FACTOR,
            loc.clone(),
            format!("metadata says factor {}, requested {factor}", u.factor),
        ));
    }

    // Trip-count arithmetic, remainder and boundary exits.
    let (want_trip, want_rem, want_exits) = match original.trip_count {
        TripCount::Known(n) => (TripCount::Known(n / f), n % f, 0),
        TripCount::Unknown { estimate } => (
            TripCount::Unknown {
                estimate: (estimate / f).max(1),
            },
            0,
            factor.saturating_sub(1),
        ),
    };
    if u.body.trip_count != want_trip || u.remainder_iters != want_rem {
        out.push(Diagnostic::deny(
            rules::XF_TRIP,
            loc.clone(),
            format!(
                "trip {} remainder {} (expected {} remainder {want_rem} from {} / {factor})",
                u.body.trip_count, u.remainder_iters, want_trip, original.trip_count
            ),
        ));
    }
    let got_inserted = u
        .body
        .count_ops(|i| i.opcode == Opcode::BrExit)
        .saturating_sub(original.early_exits() * factor as usize);
    if u.inserted_exits != want_exits || got_inserted != want_exits as usize {
        out.push(Diagnostic::deny(
            rules::XF_EXITS,
            loc.clone(),
            format!(
                "{} boundary exits recorded, {got_inserted} in the body, expected {want_exits}",
                u.inserted_exits
            ),
        ));
    }

    // Replication: every real operation appears factor times; loop
    // control folds to a single copy. `Cmp` is counted separately since
    // the loop-close compare folds for known trip counts but is
    // re-emitted once per copy (feeding the boundary exits) for unknown
    // ones, while early-exit compares always replicate.
    let replicated = |l: &Loop| -> BTreeMap<Opcode, usize> {
        let mut m = BTreeMap::new();
        for i in &l.body {
            let control =
                i.induction || matches!(i.opcode, Opcode::Br | Opcode::BrExit | Opcode::Cmp);
            if !control {
                *m.entry(i.opcode).or_insert(0) += 1;
            }
        }
        m
    };
    let want: BTreeMap<Opcode, usize> = replicated(original)
        .into_iter()
        .map(|(op, c)| (op, c * factor as usize))
        .collect();
    let got = replicated(&u.body);
    if got != want {
        out.push(Diagnostic::deny(
            rules::XF_REPLICATION,
            loc.clone(),
            format!("replicated opcode counts {got:?}, expected {want:?}"),
        ));
    }
    let has_close_cmp = original
        .body
        .iter()
        .find(|i| i.opcode == Opcode::Br)
        .and_then(|br| br.predicate)
        .is_some_and(|p| {
            original
                .body
                .iter()
                .any(|i| i.opcode == Opcode::Cmp && i.defs.first() == Some(&p))
        });
    let orig_cmps = original.count_ops(|i| i.opcode == Opcode::Cmp);
    let want_cmps = if has_close_cmp {
        let close_copies = match original.trip_count {
            TripCount::Known(_) => 1,
            TripCount::Unknown { .. } => factor as usize,
        };
        (orig_cmps - 1) * factor as usize + close_copies
    } else {
        orig_cmps * factor as usize
    };
    let got_cmps = u.body.count_ops(|i| i.opcode == Opcode::Cmp);
    if got_cmps != want_cmps {
        out.push(Diagnostic::deny(
            rules::XF_REPLICATION,
            loc.clone(),
            format!("{got_cmps} compare(s) in unrolled body, expected {want_cmps}"),
        ));
    }
    if u.body.count_ops(|i| i.opcode == Opcode::Br) != 1 {
        out.push(Diagnostic::deny(
            rules::XF_REPLICATION,
            loc.clone(),
            "unrolled body must keep exactly one backward branch",
        ));
    }
    if u.body.count_ops(|i| i.induction) != original.count_ops(|i| i.induction) {
        out.push(Diagnostic::deny(
            rules::XF_REPLICATION,
            loc.clone(),
            "induction update not folded to a single copy",
        ));
    }

    // Renaming discipline: registers of the original keep their original
    // definition count (restored on the last copy); every fresh register
    // introduced by renaming is defined exactly once.
    let mut orig_def_count: BTreeMap<Reg, usize> = BTreeMap::new();
    let mut orig_regs: std::collections::HashSet<Reg> = std::collections::HashSet::new();
    for i in &original.body {
        for d in &i.defs {
            *orig_def_count.entry(*d).or_insert(0) += 1;
        }
        orig_regs.extend(i.defs.iter().copied().chain(i.reads()));
    }
    let mut got_def_count: BTreeMap<Reg, usize> = BTreeMap::new();
    for i in &u.body.body {
        for d in &i.defs {
            *got_def_count.entry(*d).or_insert(0) += 1;
        }
    }
    for (r, &c) in &got_def_count {
        if orig_regs.contains(r) {
            let want = orig_def_count.get(r).copied().unwrap_or(0);
            if c != want {
                out.push(Diagnostic::deny(
                    rules::XF_REMAP,
                    loc.clone(),
                    format!("original register {r} defined {c} time(s), expected {want}"),
                ));
            }
        } else if c != 1 {
            out.push(Diagnostic::deny(
                rules::XF_REMAP,
                loc.clone(),
                format!("fresh register {r} defined {c} time(s), expected exactly 1"),
            ));
        }
    }

    // Memory advancement: each original reference must appear once per
    // copy, advanced by the copy index and with its stride scaled.
    let mut want_mem: Vec<MemKey> = Vec::new();
    for i in &original.body {
        if let Some(m) = i.mem {
            for copy in 0..factor {
                let a = m.advanced(i64::from(copy));
                want_mem.push((
                    a.base.0,
                    a.stride * i64::from(factor),
                    a.offset,
                    a.width,
                    a.indirect,
                    a.ambiguous,
                ));
            }
        }
    }
    want_mem.sort_unstable();
    let got_mem = mem_multiset(&u.body);
    if got_mem != want_mem {
        out.push(Diagnostic::deny(
            rules::XF_MEMREF,
            loc.clone(),
            format!(
                "memory descriptors not advanced/scaled correctly: got {} refs, expected {}",
                got_mem.len(),
                want_mem.len()
            ),
        ));
    }

    out
}

/// Differential-execution oracle: interprets `original` for
/// `trip × factor` iterations and `transformed` for `trip` iterations at
/// each trip count in `trips`, then compares final memory states
/// exactly. Returns one diagnostic per diverging trip (with sample
/// cells).
pub fn differential_check(
    original: &Loop,
    factor: u32,
    transformed: &Loop,
    trips: &[u64],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for &t in trips {
        let reference = interp::execute(original, t * u64::from(factor), interp::Memory::new());
        let got = interp::execute(transformed, t, interp::Memory::new());
        let mut bad: Vec<String> = Vec::new();
        for (k, v) in &reference {
            match got.get(k) {
                Some(g) if g == v => {}
                Some(g) => bad.push(format!("cell {k:?}: {v} vs {g}")),
                None => bad.push(format!("cell {k:?}: {v} vs <unwritten>")),
            }
        }
        for k in got.keys() {
            if !reference.contains_key(k) {
                bad.push(format!("cell {k:?}: <unwritten> vs written"));
            }
        }
        if !bad.is_empty() {
            bad.sort();
            bad.truncate(3);
            out.push(Diagnostic::deny(
                rules::XF_DIFF_EXEC,
                transformed.name.clone(),
                format!(
                    "memory diverges from {} at factor {factor}, trip {t}: {}",
                    original.name,
                    bad.join("; ")
                ),
            ));
            break; // one failing trip is enough evidence per variant
        }
    }
    out
}

/// Whether the differential oracle is gated by the legality prover.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OracleMode {
    /// The prover decides: `Refuted` denies statically, `Proven` runs
    /// the oracle only on the deterministic cross-check sample
    /// ([`legality::cross_check_sample`]), `Unknown` falls back to the
    /// oracle (except indirect loops, which are recorded as
    /// unverified).
    #[default]
    ProverGated,
    /// Pre-prover behavior: the oracle runs on every non-indirect
    /// (loop, factor) pair. Kept as the reference the prover-gated scan
    /// is tested against, and as a belt-and-braces mode.
    Always,
}

/// What the legality gate did for one transformed variant.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleOutcome {
    /// The prover's verdict for the (loop, factor, variant) triple.
    pub verdict: Verdict,
    /// `true` when a `Proven` verdict was sampled for an oracle
    /// cross-check under [`OracleMode::ProverGated`].
    pub cross_checked: bool,
    /// `true` when the differential oracle actually executed.
    pub oracle_ran: bool,
}

/// Semantic validation of a transformed body (raw unroll output or the
/// optimized pipeline result) against its original at `factor`:
/// re-verifies the output IR, checks that optimization did not add
/// memory operations or change the bytes stored per unrolled iteration,
/// then applies the legality gate: statically refuted transforms deny
/// without interpretation, proven ones skip the oracle (modulo the
/// cross-check sample), unknown ones run it, and indirect loops are
/// recorded as unverified instead of silently skipped.
fn validate_transformed_with(
    original: &Loop,
    factor: u32,
    transformed: &Loop,
    mode: OracleMode,
) -> (Report, OracleOutcome) {
    let mut out = verify_loop(transformed);
    let loc = transformed.name.clone();

    let want_bytes = store_bytes(original) * u64::from(factor);
    let got_bytes = store_bytes(transformed);
    if got_bytes != want_bytes {
        out.push(Diagnostic::deny(
            rules::XF_OPT_STORES,
            loc.clone(),
            format!(
                "stores {got_bytes} bytes per iteration, original×{factor} stores {want_bytes}"
            ),
        ));
    }
    let max_mem = mem_ops(original) * factor as usize;
    let got_mem = mem_ops(transformed);
    if got_mem > max_mem {
        out.push(Diagnostic::deny(
            rules::XF_OPT_MEM,
            loc.clone(),
            format!("{got_mem} memory operations, naive unroll has only {max_mem}"),
        ));
    }

    let verdict = legality::check_transform(original, factor, transformed);
    let mut cross_checked = false;
    let run_oracle = match (&verdict, mode) {
        (Verdict::Unknown(legality::UnknownReason::Indirect), _) => {
            out.push(Diagnostic::warning(
                rules::XF_INDIRECT_UNVERIFIED,
                loc.clone(),
                format!(
                    "indirect references defeat both the legality prover and the \
                     differential oracle; factor {factor} is unverified"
                ),
            ));
            false
        }
        (Verdict::Refuted(w), m) => {
            out.push(Diagnostic::deny(
                rules::XF_LEGALITY_REFUTED,
                loc.clone(),
                format!("statically refuted: {w}"),
            ));
            m == OracleMode::Always
        }
        (Verdict::Unknown(_), _) => true,
        (Verdict::Proven(_), OracleMode::Always) => true,
        (Verdict::Proven(_), OracleMode::ProverGated) => {
            cross_checked = legality::cross_check_sample(&original.name, factor);
            cross_checked
        }
    };
    if run_oracle {
        let diags = differential_check(original, factor, transformed, DIFF_TRIPS);
        if verdict.is_proven() && !diags.is_empty() {
            out.push(Diagnostic::deny(
                rules::XF_LEGALITY_DISAGREE,
                loc,
                format!(
                    "legality prover proved factor {factor} but the differential \
                     oracle found a divergence — prover or oracle is wrong"
                ),
            ));
        }
        out.extend(diags);
    }
    (
        out,
        OracleOutcome {
            verdict,
            cross_checked,
            oracle_ran: run_oracle,
        },
    )
}

/// [`validate_transformed_with`] under the default
/// [`OracleMode::ProverGated`], discarding the gate outcome.
pub fn validate_transformed(original: &Loop, factor: u32, transformed: &Loop) -> Report {
    validate_transformed_with(original, factor, transformed, OracleMode::default()).0
}

/// Everything [`validate_pipeline_full`] learned about one (loop,
/// factor) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineValidation {
    /// All diagnostics from the verifier, structural checks, legality
    /// gate and (where it ran) the differential oracle.
    pub report: Report,
    /// Combined verdict over both transformed variants: the first
    /// refutation if either variant was refuted, otherwise the shared
    /// prover verdict for the original. `None` when validation stopped
    /// before transforming (malformed original, or factor > 1 on a
    /// non-unrollable loop).
    pub verdict: Option<Verdict>,
    /// Whether a `Proven` verdict was oracle cross-checked.
    pub cross_checked: bool,
    /// Number of differential-oracle executions performed (0–2).
    pub oracle_runs: usize,
}

/// Full validation of the unroll-and-optimize pipeline at one factor
/// under an explicit [`OracleMode`]: verifies the original,
/// structurally validates the raw unroll, then semantically validates
/// both the raw and the optimized bodies through the legality gate.
///
/// Returns early (with the verifier findings and no verdict) when the
/// original itself is malformed, and skips unrolling entirely for
/// non-unrollable loops at factors above one.
pub fn validate_pipeline_full(
    original: &Loop,
    factor: u32,
    opt: &OptConfig,
    mode: OracleMode,
) -> PipelineValidation {
    let mut out = verify_loop(original);
    if out.deny_count() > 0 || (factor > 1 && !original.is_unrollable()) {
        return PipelineValidation {
            report: out,
            verdict: None,
            cross_checked: false,
            oracle_runs: 0,
        };
    }

    let raw = unroll(original, factor);
    out.merge(validate_unroll(original, factor, &raw));
    let (r1, o1) = validate_transformed_with(original, factor, &raw.body, mode);
    out.merge(r1);

    let optimized = unroll_and_optimize(original, factor, opt);
    let (r2, o2) = validate_transformed_with(original, factor, &optimized.body, mode);
    out.merge(r2);

    let verdict = if o1.verdict.is_refuted() {
        o1.verdict
    } else {
        o2.verdict
    };
    PipelineValidation {
        report: out,
        verdict: Some(verdict),
        cross_checked: o1.cross_checked || o2.cross_checked,
        oracle_runs: usize::from(o1.oracle_ran) + usize::from(o2.oracle_ran),
    }
}

/// [`validate_pipeline_full`] under the default
/// [`OracleMode::ProverGated`], returning just the report.
pub fn validate_pipeline(original: &Loop, factor: u32, opt: &OptConfig) -> Report {
    validate_pipeline_full(original, factor, opt, OracleMode::default()).report
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopml_ir::{ArrayId, Inst, LoopBuilder, MemRef};

    fn stencil(trip: TripCount) -> Loop {
        let mut b = LoopBuilder::new("stencil", trip);
        let x = b.fp_reg();
        let y = b.fp_reg();
        let r = b.fp_reg();
        b.load(x, MemRef::affine(ArrayId(0), 8, 0, 8));
        b.load(y, MemRef::affine(ArrayId(0), 8, 8, 8));
        b.binop(Opcode::FAdd, r, x, y);
        b.store(r, MemRef::affine(ArrayId(1), 8, 0, 8));
        b.build()
    }

    #[test]
    fn honest_unroll_validates_at_every_factor() {
        for trip in [TripCount::Known(96), TripCount::Unknown { estimate: 50 }] {
            let l = stencil(trip);
            for f in 1..=8 {
                let r = validate_pipeline(&l, f, &OptConfig::default());
                assert_eq!(r.deny_count(), 0, "factor {f}, trip {trip}: {r}");
            }
        }
    }

    #[test]
    fn wrong_factor_metadata_detected() {
        let l = stencil(TripCount::Known(64));
        let mut u = unroll(&l, 4);
        u.factor = 3;
        assert!(validate_unroll(&l, 4, &u).has_rule(rules::XF_FACTOR));
    }

    #[test]
    fn wrong_trip_arithmetic_detected() {
        let l = stencil(TripCount::Known(64));
        let mut u = unroll(&l, 4);
        u.body.trip_count = TripCount::Known(17);
        assert!(validate_unroll(&l, 4, &u).has_rule(rules::XF_TRIP));
        let mut u2 = unroll(&l, 4);
        u2.remainder_iters = 2;
        assert!(validate_unroll(&l, 4, &u2).has_rule(rules::XF_TRIP));
    }

    #[test]
    fn wrong_exit_count_detected() {
        let l = stencil(TripCount::Unknown { estimate: 40 });
        let mut u = unroll(&l, 4);
        u.inserted_exits = 1;
        assert!(validate_unroll(&l, 4, &u).has_rule(rules::XF_EXITS));
    }

    #[test]
    fn dropped_copy_detected() {
        let l = stencil(TripCount::Known(64));
        let mut u = unroll(&l, 4);
        // Remove one replicated FAdd: the body no longer holds factor
        // copies of the work.
        let pos = u
            .body
            .body
            .iter()
            .position(|i| i.opcode == Opcode::FAdd)
            .unwrap();
        u.body.body.remove(pos);
        let r = validate_unroll(&l, 4, &u);
        assert!(r.has_rule(rules::XF_REPLICATION), "{r}");
    }

    #[test]
    fn bad_remap_detected() {
        let l = stencil(TripCount::Known(64));
        let mut u = unroll(&l, 4);
        // Clobber a fresh def with an original register name: the
        // original now has too many definitions.
        let orig_def = l.body[0].defs[0];
        let pos = u
            .body
            .body
            .iter()
            .position(|i| i.is_load() && i.defs[0] != orig_def)
            .expect("a renamed load copy");
        u.body.body[pos].defs[0] = orig_def;
        let r = validate_unroll(&l, 4, &u);
        assert!(r.has_rule(rules::XF_REMAP), "{r}");
    }

    #[test]
    fn bad_memref_advance_detected() {
        let l = stencil(TripCount::Known(64));
        let mut u = unroll(&l, 4);
        let pos = u.body.body.iter().position(|i| i.is_load()).unwrap();
        let mut m = u.body.body[pos].mem.unwrap();
        m.offset += 4; // forgot (or botched) the copy advancement
        u.body.body[pos].mem = Some(m);
        assert!(validate_unroll(&l, 4, &u).has_rule(rules::XF_MEMREF));
    }

    #[test]
    fn differential_oracle_catches_a_miscompile() {
        let l = stencil(TripCount::Known(64));
        let mut u = unroll(&l, 2);
        // Corrupt the second copy's load offset: the transformed loop
        // now reads the wrong cell.
        let pos = u
            .body
            .body
            .iter()
            .rposition(|i| i.is_load())
            .expect("a load");
        let mut m = u.body.body[pos].mem.unwrap();
        m.offset += 8;
        u.body.body[pos].mem = Some(m);
        let diags = differential_check(&l, 2, &u.body, DIFF_TRIPS);
        assert!(
            diags.iter().any(|d| d.rule_id == rules::XF_DIFF_EXEC),
            "{diags:?}"
        );
    }

    #[test]
    fn store_byte_change_detected() {
        let l = stencil(TripCount::Known(64));
        let mut u = unroll_and_optimize(&l, 2, &OptConfig::default());
        let pos = u.body.body.iter().position(|i| i.is_store()).unwrap();
        u.body.body.remove(pos);
        let r = validate_transformed(&l, 2, &u.body);
        assert!(r.has_rule(rules::XF_OPT_STORES), "{r}");
    }

    #[test]
    fn added_memory_op_detected() {
        let l = stencil(TripCount::Known(64));
        let mut u = unroll(&l, 2);
        // Duplicate a load: more memory traffic than the naive unroll.
        let ld = u.body.body.iter().find(|i| i.is_load()).unwrap().clone();
        u.body.body.insert(0, ld);
        let r = validate_transformed(&l, 2, &u.body);
        assert!(r.has_rule(rules::XF_OPT_MEM), "{r}");
    }

    #[test]
    fn predicated_store_kernel_validates() {
        // Clip kernel shape: compare + select + store, exercising the
        // predicate rules through the whole pipeline.
        let mut b = LoopBuilder::new("clip", TripCount::Known(32));
        let x = b.fp_reg();
        let lim = b.fp_reg();
        b.load(x, MemRef::affine(ArrayId(0), 8, 0, 8));
        let p = b.pred_reg();
        b.inst(Inst::new(Opcode::FCmp, vec![p], vec![x, lim]));
        let r = b.fp_reg();
        b.inst(Inst::new(Opcode::Select, vec![r], vec![p, x, lim]));
        b.store(r, MemRef::affine(ArrayId(1), 8, 0, 8));
        let l = b.build();
        for f in [1, 2, 3, 8] {
            let rep = validate_pipeline(&l, f, &OptConfig::default());
            assert_eq!(rep.deny_count(), 0, "factor {f}: {rep}");
        }
    }
}
