//! Layer 2½: the static unroll/SWP legality prover.
//!
//! The differential-execution oracle ([`crate::differential_check`])
//! interprets every loop at every factor, which dominates labeling cost
//! as the corpus grows. This module replaces most oracle runs with
//! static proofs over the affine access descriptors:
//!
//! * [`prove_factor`] analyzes every dependence-relevant reference pair
//!   of the *original* loop (see [`AliasClass`]) and returns
//!   [`Verdict::Proven`] with a [`Certificate`] — the disjointness and
//!   distance facts used — when every pair is exactly resolved, or
//!   [`Verdict::Unknown`] naming the blocker otherwise. It never
//!   refutes: the original loop is the semantics being preserved.
//! * [`check_transform`] additionally compares the statically expanded
//!   store-cell sets of original and transformed bodies and returns
//!   [`Verdict::Refuted`] with a [`Witness`] — a concrete iteration
//!   pair and memory cell that exactly one side writes — when the
//!   transform provably diverges.
//!
//! # Why `Proven` may skip the oracle
//!
//! A `Proven` certificate means every reference pair is fully analyzed:
//! non-indirect, non-ambiguous, and either on distinct bases, at an
//! exactly known same-stride distance, or GCD-disjoint. Under those
//! conditions every pass in the unroll-and-optimize pipeline is
//! semantics-preserving by construction: unrolling replicates bodies
//! and advances affine descriptors exactly, scalar replacement forwards
//! only between *identical* descriptors (killed across same-base
//! stores), and coalescing merges only provably adjacent accesses. The
//! oracle can therefore be skipped — except for a deterministic 1-in-[`CROSS_CHECK_DENOM`]
//! sample ([`cross_check_sample`]) kept as a cross-check, where any
//! prover/oracle disagreement is a hard deny
//! ([`crate::rules::XF_LEGALITY_DISAGREE`]). The structural checks
//! ([`crate::validate_unroll`], the verifier) still run on every loop.
//!
//! # Why a `Witness` is guaranteed to reproduce
//!
//! The interpreter writes exactly the cells of the stores it executes:
//! a store with `n` source registers writes `(base,
//! stride·iter + offset + (width/n)·k)` for `k < n`, and loads never
//! insert cells. The refuter expands those same cell sets statically
//! (affine loops only) and reports a divergence only when a cell from
//! an *unpredicated* store on one side is covered by *no* store —
//! predicated or not — on the other. Such a cell is a guaranteed
//! membership mismatch in [`crate::differential_check`]'s final-state
//! comparison, independent of the values stored. Predicated-store
//! differences are never grounds for refutation (their guards may be
//! false), and loops with indirect references skip the refuter
//! entirely: the interpreter models their addresses as affine
//! pretend-values, so honest transforms legitimately diverge there.

use std::collections::BTreeMap;
use std::fmt;

use loopml_ir::{AliasClass, Loop, MemRef, MAX_CARRIED_DISTANCE};

/// Trip counts the static refuter expands store-cell sets at (smallest
/// first, so witnesses name the earliest diverging span). Trip 0 is
/// omitted: both sides write nothing.
pub const REFUTE_TRIPS: &[u64] = &[1, 2, 5];

/// One in this many `Proven` (loop, factor) pairs is cross-checked
/// against the differential oracle (see [`cross_check_sample`]).
pub const CROSS_CHECK_DENOM: u64 = 8;

/// Alias-class histogram over a loop's dependence-relevant reference
/// pairs (pairs with at least one store; load-load pairs carry no
/// constraint).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AliasCounts {
    /// Pairs on provably distinct bases.
    pub distinct_bases: usize,
    /// Same-base same-stride pairs with an exactly known relation.
    pub exact_affine: usize,
    /// Mixed-stride pairs proven disjoint by the GCD test.
    pub gcd_disjoint: usize,
    /// Mixed-stride pairs the GCD test cannot separate.
    pub irregular_overlap: usize,
    /// Pairs involving an indirect (data-dependent) reference.
    pub indirect: usize,
    /// Pairs involving an unanalyzable (ambiguous) base.
    pub ambiguous: usize,
}

impl AliasCounts {
    /// Total dependence-relevant pairs.
    pub fn total(&self) -> usize {
        self.distinct_bases
            + self.exact_affine
            + self.gcd_disjoint
            + self.irregular_overlap
            + self.indirect
            + self.ambiguous
    }
}

/// One dependence fact recorded in a [`Certificate`]. `src`/`dst` index
/// the loop's memory-operation list (loads and stores in body order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fact {
    /// The pair lives on provably distinct base arrays.
    DistinctBases {
        /// First memory operation of the pair.
        src: usize,
        /// Second memory operation of the pair.
        dst: usize,
    },
    /// Same-base mixed-stride lattices proven disjoint by the GCD test.
    GcdDisjoint {
        /// First memory operation of the pair.
        src: usize,
        /// Second memory operation of the pair.
        dst: usize,
        /// The modulus `gcd(|stride_a|, |stride_b|)` that proves it.
        gcd: i64,
    },
    /// Same-base same-stride pair with a fully determined relation:
    /// `Some(d)` is the exact dependence distance from `src` to `dst`,
    /// `None` is proven independence (within the analysis horizon).
    AffineDistance {
        /// Source memory operation (executes `distance` iterations
        /// before `dst` touches the same address).
        src: usize,
        /// Destination memory operation.
        dst: usize,
        /// The dependence distance, `None` for proven independence.
        distance: Option<i64>,
    },
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fact::DistinctBases { src, dst } => write!(f, "mem{src}|mem{dst}: distinct bases"),
            Fact::GcdDisjoint { src, dst, gcd } => {
                write!(f, "mem{src}|mem{dst}: gcd({gcd})-disjoint")
            }
            Fact::AffineDistance {
                src,
                dst,
                distance: Some(d),
            } => write!(f, "mem{src}->mem{dst}: distance {d}"),
            Fact::AffineDistance { src, dst, .. } => {
                write!(f, "mem{src}->mem{dst}: independent")
            }
        }
    }
}

/// The facts a [`Verdict::Proven`] rests on. The dependence facts are a
/// property of the original loop and do not vary with the factor; the
/// factor is recorded because verdicts, sampling and stats are all
/// per-(loop, factor).
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// Unroll factor the verdict was issued for.
    pub factor: u32,
    /// Per-pair disjointness/distance facts (see [`Fact`]).
    pub facts: Vec<Fact>,
    /// Alias-class histogram of the dependence-relevant pairs.
    pub alias: AliasCounts,
    /// Minimum positive proven dependence distance, if any pair carries
    /// one.
    pub min_carried: Option<i64>,
}

/// A concrete conflict refuting a transform: a memory cell written by
/// exactly one side over a compared iteration span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Witness {
    /// Unroll factor under refutation.
    pub factor: u32,
    /// Transformed-loop trip count exposing the divergence (the
    /// original runs `trip × factor` iterations).
    pub trip: u64,
    /// Base array of the diverging cell.
    pub base: u32,
    /// Byte address of the diverging cell.
    pub addr: i64,
    /// Original-loop iteration at which an unpredicated store writes
    /// the cell (for extra cells: the representative `xform_iter ×
    /// factor`).
    pub orig_iter: u64,
    /// Transformed-loop iteration involved (for missing cells: the copy
    /// span `orig_iter / factor` that should have covered it).
    pub xform_iter: u64,
    /// `true`: the original writes the cell and the transformed never
    /// does. `false`: the transformed writes a cell the original never
    /// touches.
    pub missing_in_transformed: bool,
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cell (A{}, {}) {} at factor {}, trip {} (original iteration {}, transformed iteration {})",
            self.base,
            self.addr,
            if self.missing_in_transformed {
                "written by the original but never by the transform"
            } else {
                "written by the transform but never by the original"
            },
            self.factor,
            self.trip,
            self.orig_iter,
            self.xform_iter,
        )
    }
}

/// Why the prover could not resolve a loop (the oracle runs instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnknownReason {
    /// A data-dependent reference defeats affine analysis — and the
    /// interpreter cannot model it either, so these loops are recorded
    /// as unverified ([`crate::rules::XF_INDIRECT_UNVERIFIED`]) rather
    /// than silently skipped.
    Indirect,
    /// An unanalyzable base may alias any other access.
    Ambiguous,
    /// Same-base accesses whose differing strides the GCD test cannot
    /// separate: conflicts recur at irregular intervals.
    IrregularOverlap,
    /// The loop contains an opaque call; nothing is provable about its
    /// memory effects.
    OpaqueCall,
}

impl fmt::Display for UnknownReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UnknownReason::Indirect => "indirect reference",
            UnknownReason::Ambiguous => "ambiguous base",
            UnknownReason::IrregularOverlap => "irregular mixed-stride overlap",
            UnknownReason::OpaqueCall => "opaque call",
        })
    }
}

/// The legality lattice for one (loop, factor) pair.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Legal, with the facts that prove it; the oracle runs only on the
    /// deterministic cross-check sample.
    Proven(Certificate),
    /// Provably wrong, with a reproducing conflict; a hard deny.
    Refuted(Witness),
    /// Not statically resolvable; the oracle decides (or, for indirect
    /// loops, cannot — they are recorded as unverified).
    Unknown(UnknownReason),
}

impl Verdict {
    /// `true` for [`Verdict::Proven`].
    pub fn is_proven(&self) -> bool {
        matches!(self, Verdict::Proven(_))
    }

    /// `true` for [`Verdict::Refuted`].
    pub fn is_refuted(&self) -> bool {
        matches!(self, Verdict::Refuted(_))
    }

    /// Stable label for stats/reporting.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Proven(_) => "proven",
            Verdict::Refuted(_) => "refuted",
            Verdict::Unknown(UnknownReason::Indirect) => "unknown_indirect",
            Verdict::Unknown(UnknownReason::Ambiguous) => "unknown_ambiguous",
            Verdict::Unknown(UnknownReason::IrregularOverlap) => "unknown_irregular",
            Verdict::Unknown(UnknownReason::OpaqueCall) => "unknown_call",
        }
    }
}

/// The loop's memory operations (loads and stores) in body order, each
/// with its store-ness.
fn mem_ops(l: &Loop) -> Vec<(MemRef, bool)> {
    l.body
        .iter()
        .filter_map(|i| {
            let m = i.mem?;
            (i.is_load() || i.is_store()).then_some((m, i.is_store()))
        })
        .collect()
}

/// Shared pair analysis: facts, alias histogram, minimum proven carried
/// distance, and the severest blocker (if any pair is unresolved).
struct PairAnalysis {
    facts: Vec<Fact>,
    alias: AliasCounts,
    min_carried: Option<i64>,
    blocker: Option<UnknownReason>,
}

fn severity(r: UnknownReason) -> u8 {
    match r {
        UnknownReason::Indirect => 3,
        UnknownReason::Ambiguous => 2,
        UnknownReason::IrregularOverlap => 1,
        UnknownReason::OpaqueCall => 0,
    }
}

fn analyze_pairs(l: &Loop) -> PairAnalysis {
    let mems = mem_ops(l);
    let mut facts = Vec::new();
    let mut alias = AliasCounts::default();
    let mut min_carried: Option<i64> = None;
    let mut blocker: Option<UnknownReason> = None;
    let block = |cur: &mut Option<UnknownReason>, new: UnknownReason| {
        if cur.is_none_or(|c| severity(new) > severity(c)) {
            *cur = Some(new);
        }
    };
    let carried = |min: &mut Option<i64>, d: i64| {
        if d > 0 {
            *min = Some(min.map_or(d, |m| m.min(d)));
        }
    };
    for (a, &(ma, sa)) in mems.iter().enumerate() {
        for (off, &(mb, sb)) in mems[a + 1..].iter().enumerate() {
            let b = a + 1 + off;
            if !sa && !sb {
                continue; // load-load pairs carry no dependence
            }
            match ma.alias_class(mb) {
                AliasClass::DistinctBases => {
                    alias.distinct_bases += 1;
                    facts.push(Fact::DistinctBases { src: a, dst: b });
                }
                AliasClass::GcdDisjoint => {
                    alias.gcd_disjoint += 1;
                    let gcd = ma.gcd_disjoint(mb).expect("classified GcdDisjoint");
                    facts.push(Fact::GcdDisjoint {
                        src: a,
                        dst: b,
                        gcd,
                    });
                }
                AliasClass::ExactAffine => {
                    alias.exact_affine += 1;
                    let fwd = ma.dependence_distance(mb, MAX_CARRIED_DISTANCE);
                    facts.push(Fact::AffineDistance {
                        src: a,
                        dst: b,
                        distance: fwd,
                    });
                    if let Some(d) = fwd {
                        carried(&mut min_carried, d);
                    }
                    if let Some(d) = mb.dependence_distance(ma, MAX_CARRIED_DISTANCE) {
                        if d > 0 {
                            facts.push(Fact::AffineDistance {
                                src: b,
                                dst: a,
                                distance: Some(d),
                            });
                            carried(&mut min_carried, d);
                        }
                    }
                }
                AliasClass::IrregularOverlap => {
                    alias.irregular_overlap += 1;
                    block(&mut blocker, UnknownReason::IrregularOverlap);
                }
                AliasClass::Indirect => {
                    alias.indirect += 1;
                    block(&mut blocker, UnknownReason::Indirect);
                }
                AliasClass::Ambiguous => {
                    alias.ambiguous += 1;
                    block(&mut blocker, UnknownReason::Ambiguous);
                }
            }
        }
    }
    PairAnalysis {
        facts,
        alias,
        min_carried,
        blocker,
    }
}

/// `true` if any reference of `l` is indirect.
pub fn has_indirect(l: &Loop) -> bool {
    l.body.iter().any(|i| i.mem.is_some_and(|m| m.indirect))
}

/// Static legality proof for unrolling `l` by `factor`: [`Verdict::Proven`]
/// when every dependence-relevant pair is exactly resolved (see the
/// module docs for why that makes the whole pipeline sound),
/// [`Verdict::Unknown`] otherwise. Never [`Verdict::Refuted`] — the
/// original loop *is* the semantics; only a transform can be refuted
/// ([`check_transform`]).
///
/// Any indirect reference makes the whole loop `Unknown(Indirect)` even
/// when no pair involves it: the cross-check oracle cannot interpret
/// indirect addressing, so such loops must never enter the `Proven`
/// sample pool.
pub fn prove_factor(l: &Loop, factor: u32) -> Verdict {
    if l.has_call() {
        return Verdict::Unknown(UnknownReason::OpaqueCall);
    }
    if has_indirect(l) {
        return Verdict::Unknown(UnknownReason::Indirect);
    }
    let pa = analyze_pairs(l);
    match pa.blocker {
        Some(r) => Verdict::Unknown(r),
        None => Verdict::Proven(Certificate {
            factor,
            facts: pa.facts,
            alias: pa.alias,
            min_carried: pa.min_carried,
        }),
    }
}

/// Memory cell identity, exactly as the interpreter keys memory.
type Cell = (u32, i64);

/// Statically expands the cells the loop's stores write over `iters`
/// iterations, mirroring `interp::execute`'s store addressing: a store
/// with `n` source registers writes `(base, stride·iter + offset +
/// (width/n)·k)` for `k < n`. With `must_only`, predicated stores (which
/// the interpreter may skip) are excluded. Returns cell → earliest
/// writing iteration.
fn store_cells(l: &Loop, iters: u64, must_only: bool) -> BTreeMap<Cell, u64> {
    let mut cells = BTreeMap::new();
    for inst in &l.body {
        if !inst.is_store() || (must_only && inst.predicate.is_some()) {
            continue;
        }
        let m = inst.mem.expect("store has memref");
        let w = i64::from(m.width) / inst.uses.len().max(1) as i64;
        for iter in 0..iters as i64 {
            let addr = m.stride * iter + m.offset;
            for k in 0..inst.uses.len() as i64 {
                cells.entry((m.base.0, addr + w * k)).or_insert(iter as u64);
            }
        }
    }
    cells
}

/// Looks for a guaranteed store-set divergence at one trip count; see
/// the module docs for the soundness argument.
fn refute_at_trip(original: &Loop, factor: u32, transformed: &Loop, trip: u64) -> Option<Witness> {
    let orig_iters = trip * u64::from(factor);
    let must_orig = store_cells(original, orig_iters, true);
    let may_x = store_cells(transformed, trip, false);
    for (cell, &it) in &must_orig {
        if !may_x.contains_key(cell) {
            return Some(Witness {
                factor,
                trip,
                base: cell.0,
                addr: cell.1,
                orig_iter: it,
                xform_iter: it / u64::from(factor),
                missing_in_transformed: true,
            });
        }
    }
    let must_x = store_cells(transformed, trip, true);
    let may_orig = store_cells(original, orig_iters, false);
    for (cell, &it) in &must_x {
        if !may_orig.contains_key(cell) {
            return Some(Witness {
                factor,
                trip,
                base: cell.0,
                addr: cell.1,
                orig_iter: it * u64::from(factor),
                xform_iter: it,
                missing_in_transformed: false,
            });
        }
    }
    None
}

/// Static refutation of a transformed body against its original:
/// `Some(witness)` when the store-cell sets provably diverge at one of
/// [`REFUTE_TRIPS`]. `None` for loops with indirect references (the
/// cell expansion would model pretend-addresses).
pub fn refute(original: &Loop, factor: u32, transformed: &Loop) -> Option<Witness> {
    if has_indirect(original) || has_indirect(transformed) {
        return None;
    }
    REFUTE_TRIPS
        .iter()
        .find_map(|&t| refute_at_trip(original, factor, transformed, t))
}

/// Full per-(loop, factor) verdict for a transform: [`Verdict::Refuted`]
/// when the store-cell sets provably diverge, otherwise the
/// [`prove_factor`] verdict of the original.
pub fn check_transform(original: &Loop, factor: u32, transformed: &Loop) -> Verdict {
    if let Some(w) = refute(original, factor, transformed) {
        return Verdict::Refuted(w);
    }
    prove_factor(original, factor)
}

/// Deterministic, thread- and order-invariant cross-check sampling: a
/// pure FNV-1a hash of the loop name folded with the factor selects one
/// in [`CROSS_CHECK_DENOM`] `Proven` pairs for an oracle run. Loop
/// names are unique across the corpus, so the sample is a stable
/// property of the (loop, factor) pair — identical at any
/// `LOOPML_THREADS` and in any visit order.
pub fn cross_check_sample(loop_name: &str, factor: u32) -> bool {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in loop_name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= u64::from(factor);
    h = h.wrapping_mul(0x0000_0100_0000_01b3);
    h.is_multiple_of(CROSS_CHECK_DENOM)
}

/// Aggregated prover statistics over a set of (loop, factor) pairs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LegalityStats {
    /// Pairs resolved `Proven`.
    pub proven: usize,
    /// Pairs resolved `Refuted`.
    pub refuted: usize,
    /// Pairs `Unknown` due to indirect references.
    pub unknown_indirect: usize,
    /// Pairs `Unknown` due to ambiguous bases.
    pub unknown_ambiguous: usize,
    /// Pairs `Unknown` due to irregular mixed-stride overlap.
    pub unknown_irregular: usize,
    /// Pairs `Unknown` due to opaque calls.
    pub unknown_call: usize,
    /// `Proven` pairs the deterministic sample sent to the oracle.
    pub cross_checked: usize,
    /// Cross-checked pairs where prover and oracle disagreed (must be
    /// zero; each is a hard deny).
    pub disagreements: usize,
    /// Differential-oracle executions actually performed.
    pub oracle_runs: usize,
}

impl LegalityStats {
    /// Records one verdict.
    pub fn record(&mut self, v: &Verdict) {
        match v {
            Verdict::Proven(_) => self.proven += 1,
            Verdict::Refuted(_) => self.refuted += 1,
            Verdict::Unknown(UnknownReason::Indirect) => self.unknown_indirect += 1,
            Verdict::Unknown(UnknownReason::Ambiguous) => self.unknown_ambiguous += 1,
            Verdict::Unknown(UnknownReason::IrregularOverlap) => self.unknown_irregular += 1,
            Verdict::Unknown(UnknownReason::OpaqueCall) => self.unknown_call += 1,
        }
    }

    /// Folds another stats block into this one (order-independent).
    pub fn merge(&mut self, o: &LegalityStats) {
        self.proven += o.proven;
        self.refuted += o.refuted;
        self.unknown_indirect += o.unknown_indirect;
        self.unknown_ambiguous += o.unknown_ambiguous;
        self.unknown_irregular += o.unknown_irregular;
        self.unknown_call += o.unknown_call;
        self.cross_checked += o.cross_checked;
        self.disagreements += o.disagreements;
        self.oracle_runs += o.oracle_runs;
    }

    /// All recorded pairs.
    pub fn total(&self) -> usize {
        self.proven
            + self.refuted
            + self.unknown_indirect
            + self.unknown_ambiguous
            + self.unknown_irregular
            + self.unknown_call
    }

    /// Pairs resolved statically (`Proven` + `Refuted`).
    pub fn resolved(&self) -> usize {
        self.proven + self.refuted
    }

    /// Pairs on the affine corpus: everything except indirect-ref loops,
    /// which no static *or* dynamic check can currently decide.
    pub fn affine_total(&self) -> usize {
        self.total() - self.unknown_indirect
    }

    /// Statically resolved fraction of the affine corpus, in `[0, 1]`
    /// (1.0 when the affine corpus is empty).
    pub fn coverage(&self) -> f64 {
        if self.affine_total() == 0 {
            1.0
        } else {
            self.resolved() as f64 / self.affine_total() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopml_ir::{ArrayId, Inst, LoopBuilder, Opcode, TripCount};
    use loopml_opt::{interp, unroll, unroll_and_optimize, OptConfig};

    /// y[i] = x[i] + x[i+1] — distinct bases throughout.
    fn stencil() -> Loop {
        let mut b = LoopBuilder::new("stencil", TripCount::Known(64));
        let x = b.fp_reg();
        let y = b.fp_reg();
        let r = b.fp_reg();
        b.load(x, MemRef::affine(ArrayId(0), 8, 0, 8));
        b.load(y, MemRef::affine(ArrayId(0), 8, 8, 8));
        b.binop(Opcode::FAdd, r, x, y);
        b.store(r, MemRef::affine(ArrayId(1), 8, 0, 8));
        b.build()
    }

    /// a[i+2] = a[i] + a[i] — an exact carried distance of 2.
    fn carried() -> Loop {
        let mut b = LoopBuilder::new("carried", TripCount::Known(64));
        let x = b.fp_reg();
        let y = b.fp_reg();
        b.load(x, MemRef::affine(ArrayId(0), 8, 0, 8));
        b.binop(Opcode::FAdd, y, x, x);
        b.store(y, MemRef::affine(ArrayId(0), 8, 16, 8));
        b.build()
    }

    #[test]
    fn distinct_base_loop_is_proven_with_facts() {
        let l = stencil();
        for f in 1..=8 {
            match prove_factor(&l, f) {
                Verdict::Proven(c) => {
                    assert_eq!(c.factor, f);
                    assert_eq!(c.alias.distinct_bases, 2, "{:?}", c.alias);
                    assert_eq!(c.min_carried, None);
                    assert_eq!(c.facts.len(), 2);
                }
                v => panic!("expected Proven at factor {f}, got {v:?}"),
            }
        }
    }

    #[test]
    fn carried_loop_is_proven_with_exact_distance() {
        match prove_factor(&carried(), 4) {
            Verdict::Proven(c) => {
                assert_eq!(c.alias.exact_affine, 1);
                assert_eq!(c.min_carried, Some(2));
                assert!(c.facts.iter().any(|f| matches!(
                    f,
                    Fact::AffineDistance {
                        distance: Some(2),
                        ..
                    }
                )));
            }
            v => panic!("expected Proven, got {v:?}"),
        }
    }

    #[test]
    fn opaque_blockers_are_classified() {
        // Ambiguous store: may alias the load.
        let mut b = LoopBuilder::new("amb", TripCount::Known(32));
        let x = b.fp_reg();
        b.load(x, MemRef::affine(ArrayId(0), 8, 0, 8));
        b.store(x, MemRef::affine(ArrayId(1), 8, 0, 8).as_ambiguous());
        let amb = b.build();
        assert_eq!(
            prove_factor(&amb, 2),
            Verdict::Unknown(UnknownReason::Ambiguous)
        );

        // Indirect anywhere in the loop: Unknown even if no pair
        // involves it (here the scatter-side pair is same-base).
        let mut b = LoopBuilder::new("gather", TripCount::Known(32));
        let x = b.fp_reg();
        b.load(x, MemRef::indirect(ArrayId(0), 8, 8));
        b.store(x, MemRef::affine(ArrayId(1), 8, 0, 8));
        let gather = b.build();
        assert_eq!(
            prove_factor(&gather, 2),
            Verdict::Unknown(UnknownReason::Indirect)
        );

        // Irregular mixed strides on one base.
        let mut b = LoopBuilder::new("mix", TripCount::Known(32));
        let x = b.fp_reg();
        b.load(x, MemRef::affine(ArrayId(0), 16, 0, 8));
        b.store(x, MemRef::affine(ArrayId(0), 8, 0, 8));
        let mix = b.build();
        assert_eq!(
            prove_factor(&mix, 2),
            Verdict::Unknown(UnknownReason::IrregularOverlap)
        );

        // An opaque call.
        let mut b = LoopBuilder::new("call", TripCount::Known(32));
        let x = b.fp_reg();
        b.load(x, MemRef::affine(ArrayId(0), 8, 0, 8));
        b.inst(Inst::new(Opcode::Call, vec![], vec![x]));
        let call = b.build();
        assert_eq!(
            prove_factor(&call, 2),
            Verdict::Unknown(UnknownReason::OpaqueCall)
        );
    }

    #[test]
    fn gcd_disjoint_pairs_prove() {
        // Store 16j+4/w4 against load 8i/w4: gcd-disjoint.
        let mut b = LoopBuilder::new("gcd", TripCount::Known(32));
        let x = b.fp_reg();
        b.load(x, MemRef::affine(ArrayId(0), 8, 0, 4));
        b.store(x, MemRef::affine(ArrayId(0), 16, 4, 4));
        match prove_factor(&b.build(), 2) {
            Verdict::Proven(c) => {
                assert_eq!(c.alias.gcd_disjoint, 1);
                assert!(c
                    .facts
                    .iter()
                    .any(|f| matches!(f, Fact::GcdDisjoint { gcd: 8, .. })));
            }
            v => panic!("expected Proven, got {v:?}"),
        }
    }

    #[test]
    fn honest_transforms_are_never_refuted() {
        for l in [stencil(), carried()] {
            for f in 1..=8u32 {
                let raw = unroll(&l, f);
                assert_eq!(refute(&l, f, &raw.body), None, "raw factor {f}");
                let opt = unroll_and_optimize(&l, f, &OptConfig::default());
                assert_eq!(refute(&l, f, &opt.body), None, "opt factor {f}");
                assert!(check_transform(&l, f, &opt.body).is_proven());
            }
        }
    }

    #[test]
    fn dropped_store_yields_a_reproducing_witness() {
        let l = stencil();
        let mut u = unroll(&l, 2);
        let pos = u.body.body.iter().position(|i| i.is_store()).unwrap();
        u.body.body.remove(pos);
        let w = match check_transform(&l, 2, &u.body) {
            Verdict::Refuted(w) => w,
            v => panic!("expected Refuted, got {v:?}"),
        };
        assert!(w.missing_in_transformed);
        assert_eq!(w.base, 1);
        // The witness must reproduce under interpretation: the cell is
        // in the reference memory but not the transformed one.
        let reference = interp::execute(&l, w.trip * 2, interp::Memory::new());
        let got = interp::execute(&u.body, w.trip, interp::Memory::new());
        assert!(reference.contains_key(&(w.base, w.addr)));
        assert!(!got.contains_key(&(w.base, w.addr)));
    }

    #[test]
    fn extra_store_yields_a_reproducing_witness() {
        let l = stencil();
        let mut u = unroll(&l, 2);
        let pos = u.body.body.iter().position(|i| i.is_store()).unwrap();
        let mut extra = u.body.body[pos].clone();
        let mut m = extra.mem.unwrap();
        m.base = ArrayId(5); // a base the original never writes
        extra.mem = Some(m);
        u.body.body.insert(pos, extra);
        let w = match check_transform(&l, 2, &u.body) {
            Verdict::Refuted(w) => w,
            v => panic!("expected Refuted, got {v:?}"),
        };
        assert!(!w.missing_in_transformed);
        let reference = interp::execute(&l, w.trip * 2, interp::Memory::new());
        let got = interp::execute(&u.body, w.trip, interp::Memory::new());
        assert!(!reference.contains_key(&(w.base, w.addr)));
        assert!(got.contains_key(&(w.base, w.addr)));
    }

    #[test]
    fn predicated_stores_never_ground_a_refutation() {
        // Original with an unpredicated store; transform predicates it:
        // statically inconclusive (the guard may be true), not Refuted.
        let mut b = LoopBuilder::new("pred", TripCount::Known(32));
        let x = b.fp_reg();
        b.load(x, MemRef::affine(ArrayId(0), 8, 0, 8));
        b.store(x, MemRef::affine(ArrayId(1), 8, 0, 8));
        let l = b.build();
        let mut t = l.clone();
        let p = loopml_ir::Reg::pred(99);
        let pos = t.body.iter().position(|i| i.is_store()).unwrap();
        t.body[pos] = t.body[pos].clone().predicated(p);
        assert_eq!(refute(&l, 1, &t), None);
    }

    #[test]
    fn indirect_loops_are_never_refuted() {
        let mut b = LoopBuilder::new("scatter", TripCount::Known(32));
        let x = b.fp_reg();
        b.load(x, MemRef::affine(ArrayId(0), 8, 0, 8));
        b.store(x, MemRef::indirect(ArrayId(1), 8, 8));
        let l = b.build();
        let u = unroll(&l, 4);
        assert_eq!(refute(&l, 4, &u.body), None);
        assert_eq!(
            check_transform(&l, 4, &u.body),
            Verdict::Unknown(UnknownReason::Indirect)
        );
    }

    #[test]
    fn cross_check_sampling_is_deterministic_and_sparse() {
        let names: Vec<String> = (0..400).map(|i| format!("bench/loop{i:03}")).collect();
        let mut picked = 0;
        for n in &names {
            for f in 1..=8 {
                let a = cross_check_sample(n, f);
                assert_eq!(a, cross_check_sample(n, f), "unstable sample");
                picked += usize::from(a);
            }
        }
        let total = names.len() * 8;
        let expect = total / CROSS_CHECK_DENOM as usize;
        // A pure hash at denominator 8 should land near 1/8 of pairs.
        assert!(
            picked > expect / 2 && picked < expect * 2,
            "sample rate off: {picked}/{total}"
        );
        // And it must depend on the factor, not just the name.
        assert!(
            (1..=8)
                .map(|f| cross_check_sample("bench/loop000", f))
                .collect::<Vec<_>>()
                != vec![cross_check_sample("bench/loop000", 1); 8]
                || picked > 0
        );
    }

    #[test]
    fn stats_aggregate_and_cover() {
        let mut s = LegalityStats::default();
        s.record(&prove_factor(&stencil(), 2));
        s.record(&prove_factor(&carried(), 2));
        s.record(&Verdict::Unknown(UnknownReason::Indirect));
        s.record(&Verdict::Unknown(UnknownReason::Ambiguous));
        assert_eq!(s.total(), 4);
        assert_eq!(s.resolved(), 2);
        assert_eq!(s.affine_total(), 3);
        assert!((s.coverage() - 2.0 / 3.0).abs() < 1e-12);
        let mut t = LegalityStats::default();
        t.merge(&s);
        t.merge(&s);
        assert_eq!(t.total(), 8);
        assert_eq!(t.unknown_ambiguous, 2);
    }
}
