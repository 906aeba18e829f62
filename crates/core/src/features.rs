//! The 38-feature loop characterization (paper Table 1 plus the
//! additional features referenced by Tables 3 and 4).
//!
//! Feature extraction is purely static: everything is derived from the IR
//! of a single loop via dependence analysis, DAG summarization and
//! liveness — exactly the quantities ORC had "readily available" (§8).

use loopml_ir::{analyze_liveness, summarize, DepGraph, Loop, MemRef, OpClass, Opcode, Reg};

/// Number of features extracted per loop.
pub const NUM_FEATURES: usize = 38;

/// Names of the 38 features, aligned with [`extract`]'s output order.
/// The first 22 are the paper's Table 1; the rest are the additional
/// features its feature-selection tables reference.
pub const FEATURE_NAMES: [&str; NUM_FEATURES] = [
    "loop nest level",
    "# ops in loop body",
    "# floating point ops",
    "# branches",
    "# memory ops",
    "# operands",
    "# implicit instructions",
    "# unique predicates",
    "critical path latency",
    "est. cycle length of body",
    "language",
    "# parallel computations",
    "max dependence height",
    "max memory dependence height",
    "max control dependence height",
    "avg dependence height",
    "# indirect refs",
    "min mem-to-mem carried dep",
    "# mem-to-mem dependencies",
    "tripcount (-1 unknown)",
    "# uses",
    "# defs",
    "instruction fan-in in DAG",
    "avg instruction fan-in",
    "live range size",
    "known tripcount",
    "# integer ops",
    "# fp divides",
    "# integer multiplies",
    "# loads",
    "# stores",
    "memory op ratio",
    "fp op ratio",
    "# carried reg dependencies",
    "recurrence cycle latency",
    "# memory streams",
    "dominant stride",
    "# early exits",
];

/// Value reported for "min mem-to-mem carried dep" when the loop has no
/// carried memory dependence: one beyond the analysis horizon, so
/// dependence-free loops sit at a consistent extreme of the feature axis.
pub const NO_CARRIED_DEP: f64 = (loopml_ir::MAX_CARRIED_DISTANCE + 1) as f64;

/// Extracts the 38-dimensional feature vector of `l`.
pub fn extract(l: &Loop) -> Vec<f64> {
    let g = DepGraph::analyze(l);
    let dag = summarize(l, &g);
    let live = analyze_liveness(l);

    let count = |f: &dyn Fn(&loopml_ir::Inst) -> bool| l.body.iter().filter(|i| f(i)).count();
    let n_ops = l.len() as f64;
    let n_fp = count(&|i| i.opcode.is_fp()) as f64;
    let n_branches = count(&|i| i.opcode.is_branch()) as f64;
    let n_mem = count(&|i| i.opcode.is_mem()) as f64;
    let n_loads = count(&|i| i.is_load()) as f64;
    let n_stores = count(&|i| i.is_store()) as f64;
    let n_int = count(&|i| matches!(i.opcode.class(), OpClass::IntAlu | OpClass::IntMul)) as f64;
    let n_div = count(&|i| i.opcode.class() == OpClass::FpDiv) as f64;
    let n_mul = count(&|i| i.opcode == Opcode::Mul) as f64;
    let n_implicit = count(&|i| i.opcode.is_implicit()) as f64;
    let n_operands: usize = l.body.iter().map(|i| i.operand_count()).sum();
    let n_uses: usize = l.body.iter().map(|i| i.uses.len()).sum();
    let n_defs: usize = l.body.iter().map(|i| i.defs.len()).sum();

    let mut predicates: Vec<Reg> = l
        .body
        .iter()
        .filter_map(|i| i.predicate)
        .chain(l.body.iter().flat_map(|i| {
            i.defs
                .iter()
                .copied()
                .filter(|r| r.class() == loopml_ir::RegClass::Pred)
        }))
        .collect();
    predicates.sort_unstable();
    predicates.dedup();

    let n_indirect = l
        .body
        .iter()
        .filter(|i| matches!(i.mem, Some(MemRef { indirect: true, .. })))
        .count() as f64;

    let mut streams: Vec<u32> = l
        .body
        .iter()
        .filter(|i| i.is_load() || i.is_store())
        .filter_map(|i| i.mem.map(|m| m.base.0))
        .collect();
    streams.sort_unstable();
    streams.dedup();

    let dominant_stride = l
        .body
        .iter()
        .filter_map(|i| i.mem)
        .filter(|m| !m.indirect && m.stride != 0)
        .map(|m| m.stride.unsigned_abs())
        .min()
        .unwrap_or(0) as f64;

    vec![
        f64::from(l.nest_level),
        n_ops,
        n_fp,
        n_branches,
        n_mem,
        n_operands as f64,
        n_implicit,
        predicates.len() as f64,
        f64::from(dag.critical_path),
        f64::from(dag.resource_cycles),
        l.lang.feature_value(),
        dag.computations as f64,
        f64::from(dag.max_dependence_height),
        f64::from(dag.max_memory_height),
        f64::from(dag.max_control_height),
        dag.avg_dependence_height,
        n_indirect,
        g.min_carried_mem_distance()
            .map(f64::from)
            .unwrap_or(NO_CARRIED_DEP),
        g.mem_deps().count() as f64,
        l.trip_count.feature_value(),
        n_uses as f64,
        n_defs as f64,
        dag.max_fan_in as f64,
        dag.avg_fan_in,
        live.avg_live,
        f64::from(u8::from(l.trip_count.is_known())),
        n_int,
        n_div,
        n_mul,
        n_loads,
        n_stores,
        if n_ops > 0.0 { n_mem / n_ops } else { 0.0 },
        if n_ops > 0.0 { n_fp / n_ops } else { 0.0 },
        g.carried_reg_deps() as f64,
        f64::from(g.rec_mii(|d| d.latency)),
        streams.len() as f64,
        dominant_stride,
        l.early_exits() as f64,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopml_ir::{ArrayId, Inst, LoopBuilder, SourceLang, TripCount};

    fn daxpy() -> Loop {
        let mut b = LoopBuilder::new("daxpy", TripCount::Known(1000));
        b.lang(SourceLang::Fortran);
        b.nest_level(2);
        let x = b.fp_reg();
        let y = b.fp_reg();
        let r = b.fp_reg();
        b.load(x, MemRef::affine(ArrayId(0), 8, 0, 8));
        b.load(y, MemRef::affine(ArrayId(1), 8, 0, 8));
        b.inst(Inst::new(Opcode::Fma, vec![r], vec![x, y]));
        b.store(r, MemRef::affine(ArrayId(1), 8, 0, 8));
        b.build()
    }

    #[test]
    fn dimensions_and_names_agree() {
        let f = extract(&daxpy());
        assert_eq!(f.len(), NUM_FEATURES);
        assert_eq!(FEATURE_NAMES.len(), NUM_FEATURES);
    }

    #[test]
    fn basic_counts_correct() {
        let f = extract(&daxpy());
        let idx = |name: &str| {
            FEATURE_NAMES
                .iter()
                .position(|&n| n == name)
                .expect("known feature")
        };
        assert_eq!(f[idx("loop nest level")], 2.0);
        assert_eq!(f[idx("# ops in loop body")], 7.0); // 4 body + iv + cmp + br
        assert_eq!(f[idx("# floating point ops")], 1.0); // fma
        assert_eq!(f[idx("# memory ops")], 3.0);
        assert_eq!(f[idx("# loads")], 2.0);
        assert_eq!(f[idx("# stores")], 1.0);
        assert_eq!(f[idx("language")], SourceLang::Fortran.feature_value());
        assert_eq!(f[idx("tripcount (-1 unknown)")], 1000.0);
        assert_eq!(f[idx("known tripcount")], 1.0);
        assert_eq!(f[idx("# memory streams")], 2.0);
        assert_eq!(f[idx("dominant stride")], 8.0);
        assert_eq!(f[idx("# early exits")], 0.0);
    }

    #[test]
    fn unknown_trip_encodes_minus_one() {
        let mut b = LoopBuilder::new("u", TripCount::Unknown { estimate: 50 });
        let x = b.fp_reg();
        b.load(x, MemRef::affine(ArrayId(0), 8, 0, 8));
        let f = extract(&b.build());
        let idx = |name: &str| FEATURE_NAMES.iter().position(|&n| n == name).unwrap();
        assert_eq!(f[idx("tripcount (-1 unknown)")], -1.0);
        assert_eq!(f[idx("known tripcount")], 0.0);
    }

    #[test]
    fn carried_dep_feature_reports_distance() {
        let mut b = LoopBuilder::new("c", TripCount::Known(100));
        let x = b.fp_reg();
        b.load(x, MemRef::affine(ArrayId(0), 8, 0, 8));
        b.store(x, MemRef::affine(ArrayId(0), 8, 24, 8));
        let f = extract(&b.build());
        let idx = |name: &str| FEATURE_NAMES.iter().position(|&n| n == name).unwrap();
        assert_eq!(f[idx("min mem-to-mem carried dep")], 3.0);
        assert!(f[idx("# mem-to-mem dependencies")] >= 1.0);
    }

    #[test]
    fn no_carried_dep_uses_sentinel() {
        let f = extract(&daxpy());
        let idx = FEATURE_NAMES
            .iter()
            .position(|&n| n == "min mem-to-mem carried dep")
            .unwrap();
        // daxpy has a same-iteration load/store pair on A1 (distance 0)
        // but no carried dependence.
        assert_eq!(f[idx], NO_CARRIED_DEP);
    }

    #[test]
    fn all_features_finite() {
        let f = extract(&daxpy());
        assert!(f.iter().all(|v| v.is_finite()), "{f:?}");
    }
}
