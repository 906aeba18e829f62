//! Operation codes for the mid-level loop IR.
//!
//! The opcode set is deliberately close to what a compiler for an EPIC
//! machine (such as the Open Research Compiler targeting Itanium 2) sees at
//! the point where loop unrolling decisions are made: typed arithmetic,
//! explicit memory operations with optional *paired* (wide) variants
//! produced by memory-access coalescing, compares producing predicate
//! registers, and branches.

use std::fmt;

/// Functional classification of an [`Opcode`].
///
/// Machine models map each class to a functional-unit kind and issue
/// constraints; the IR itself only uses the class for feature extraction
/// and static estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// Simple integer ALU operation (add, logical, shift, compare).
    IntAlu,
    /// Integer multiply (and long-latency integer ops).
    IntMul,
    /// Floating-point add/sub/compare/convert.
    FpAlu,
    /// Floating-point multiply and fused multiply-add.
    FpMul,
    /// Floating-point divide and square root (long latency, unpipelined).
    FpDiv,
    /// Memory load (including paired/wide loads).
    Load,
    /// Memory store (including paired/wide stores).
    Store,
    /// Branch (backward loop branch, early exit, unconditional).
    Branch,
    /// Procedure call.
    Call,
    /// Register move / immediate materialization / select.
    Move,
    /// No-op (explicit scheduling filler).
    Nop,
}

impl OpClass {
    /// All classes, in a stable order (useful for resource accounting).
    pub const ALL: [OpClass; 11] = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::FpAlu,
        OpClass::FpMul,
        OpClass::FpDiv,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
        OpClass::Call,
        OpClass::Move,
        OpClass::Nop,
    ];
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Operation code of a single IR instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Opcode {
    // --- integer arithmetic ---
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Shift left.
    Shl,
    /// Arithmetic shift right.
    Shr,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Integer compare, defines a predicate register.
    Cmp,
    /// Sign/zero extension or truncation.
    Ext,

    // --- floating point ---
    /// Floating-point addition.
    FAdd,
    /// Floating-point subtraction.
    FSub,
    /// Floating-point multiplication.
    FMul,
    /// Fused multiply-add.
    Fma,
    /// Floating-point division.
    FDiv,
    /// Floating-point square root.
    FSqrt,
    /// Floating-point compare, defines a predicate register.
    FCmp,
    /// Int -> float conversion.
    CvtIf,
    /// Float -> int conversion.
    CvtFi,

    // --- memory ---
    /// Load a single element.
    Load,
    /// Wide load of two adjacent elements (produced by coalescing).
    LoadPair,
    /// Store a single element.
    Store,
    /// Wide store of two adjacent elements (produced by coalescing).
    StorePair,
    /// Software prefetch (no register result consumed by the loop).
    Prefetch,

    // --- control ---
    /// Backward loop branch (closes the loop).
    Br,
    /// Conditional early exit out of the loop.
    BrExit,
    /// Procedure call inside the loop body.
    Call,

    // --- data movement ---
    /// Register-to-register move.
    Mov,
    /// Immediate materialization.
    MovI,
    /// Predicated select between two registers.
    Select,
    /// Explicit no-op.
    Nop,
}

impl Opcode {
    /// Every opcode, in declaration order.
    pub const ALL: [Opcode; 31] = [
        Opcode::Add,
        Opcode::Sub,
        Opcode::Mul,
        Opcode::Shl,
        Opcode::Shr,
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Cmp,
        Opcode::Ext,
        Opcode::FAdd,
        Opcode::FSub,
        Opcode::FMul,
        Opcode::Fma,
        Opcode::FDiv,
        Opcode::FSqrt,
        Opcode::FCmp,
        Opcode::CvtIf,
        Opcode::CvtFi,
        Opcode::Load,
        Opcode::LoadPair,
        Opcode::Store,
        Opcode::StorePair,
        Opcode::Prefetch,
        Opcode::Br,
        Opcode::BrExit,
        Opcode::Call,
        Opcode::Mov,
        Opcode::MovI,
        Opcode::Select,
        Opcode::Nop,
    ];

    /// The opcode's lowercase name, as [`Display`](fmt::Display) writes
    /// it and the serving wire codec reads it.
    pub fn name(self) -> &'static str {
        use Opcode::*;
        match self {
            Add => "add",
            Sub => "sub",
            Mul => "mul",
            Shl => "shl",
            Shr => "shr",
            And => "and",
            Or => "or",
            Xor => "xor",
            Cmp => "cmp",
            Ext => "ext",
            FAdd => "fadd",
            FSub => "fsub",
            FMul => "fmul",
            Fma => "fma",
            FDiv => "fdiv",
            FSqrt => "fsqrt",
            FCmp => "fcmp",
            CvtIf => "cvtif",
            CvtFi => "cvtfi",
            Load => "load",
            LoadPair => "loadpair",
            Store => "store",
            StorePair => "storepair",
            Prefetch => "prefetch",
            Br => "br",
            BrExit => "brexit",
            Call => "call",
            Mov => "mov",
            MovI => "movi",
            Select => "select",
            Nop => "nop",
        }
    }

    /// Functional class of this opcode.
    pub fn class(self) -> OpClass {
        use Opcode::*;
        match self {
            Add | Sub | Shl | Shr | And | Or | Xor | Cmp | Ext => OpClass::IntAlu,
            Mul => OpClass::IntMul,
            FAdd | FSub | FCmp | CvtIf | CvtFi => OpClass::FpAlu,
            FMul | Fma => OpClass::FpMul,
            FDiv | FSqrt => OpClass::FpDiv,
            Load | LoadPair | Prefetch => OpClass::Load,
            Store | StorePair => OpClass::Store,
            Br | BrExit => OpClass::Branch,
            Call => OpClass::Call,
            Mov | MovI | Select => OpClass::Move,
            Nop => OpClass::Nop,
        }
    }

    /// `true` if the operation is a floating-point computation.
    pub fn is_fp(self) -> bool {
        matches!(
            self.class(),
            OpClass::FpAlu | OpClass::FpMul | OpClass::FpDiv
        )
    }

    /// `true` if the operation accesses memory.
    pub fn is_mem(self) -> bool {
        matches!(self.class(), OpClass::Load | OpClass::Store)
    }

    /// `true` if the operation is any branch.
    pub fn is_branch(self) -> bool {
        self.class() == OpClass::Branch
    }

    /// `true` for "implicit" instructions: moves, immediates, selects and
    /// nops that exist to glue real computation together. The count of
    /// implicit instructions is one of the paper's loop features.
    pub fn is_implicit(self) -> bool {
        matches!(self.class(), OpClass::Move | OpClass::Nop)
    }

    /// Compiler-internal static latency estimate in cycles.
    ///
    /// This is the estimate a compiler would use for critical-path features
    /// and scheduling priorities. A machine model is free to use different
    /// (more detailed) latencies.
    pub fn static_latency(self) -> u32 {
        use Opcode::*;
        match self {
            Add | Sub | Shl | Shr | And | Or | Xor | Cmp | Ext => 1,
            Mul => 3,
            FAdd | FSub | FCmp | CvtIf | CvtFi => 4,
            FMul | Fma => 4,
            FDiv => 24,
            FSqrt => 28,
            Load | LoadPair => 3,
            Prefetch => 1,
            Store | StorePair => 1,
            Br | BrExit => 1,
            Call => 8,
            Mov | MovI | Select => 1,
            Nop => 1,
        }
    }

    /// `true` if this opcode defines a predicate register.
    pub fn defines_predicate(self) -> bool {
        matches!(self, Opcode::Cmp | Opcode::FCmp)
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_consistent() {
        assert_eq!(Opcode::Add.class(), OpClass::IntAlu);
        assert_eq!(Opcode::Fma.class(), OpClass::FpMul);
        assert_eq!(Opcode::LoadPair.class(), OpClass::Load);
        assert_eq!(Opcode::StorePair.class(), OpClass::Store);
        assert_eq!(Opcode::BrExit.class(), OpClass::Branch);
    }

    #[test]
    fn fp_detection() {
        assert!(Opcode::FAdd.is_fp());
        assert!(Opcode::FDiv.is_fp());
        assert!(!Opcode::Load.is_fp());
        assert!(!Opcode::Add.is_fp());
    }

    #[test]
    fn mem_detection() {
        for op in [
            Opcode::Load,
            Opcode::Store,
            Opcode::LoadPair,
            Opcode::StorePair,
            Opcode::Prefetch,
        ] {
            assert!(op.is_mem(), "{op} should be a memory op");
        }
        assert!(!Opcode::Br.is_mem());
    }

    #[test]
    fn latencies_positive_and_divide_is_slow() {
        for class in OpClass::ALL {
            let _ = class; // exercise ALL
        }
        assert!(Opcode::FDiv.static_latency() > Opcode::FMul.static_latency());
        assert!(Opcode::Load.static_latency() > Opcode::Add.static_latency());
    }

    #[test]
    fn implicit_ops() {
        assert!(Opcode::Mov.is_implicit());
        assert!(Opcode::Nop.is_implicit());
        assert!(!Opcode::Add.is_implicit());
    }

    #[test]
    fn display_is_lowercase() {
        assert_eq!(Opcode::FAdd.to_string(), "fadd");
        assert_eq!(OpClass::IntAlu.to_string(), "IntAlu");
    }

    #[test]
    fn names_are_the_lowercased_variant_names() {
        // Wire documents and saved loops name opcodes by their
        // lowercased variant names, so the static names must be exactly
        // those strings.
        for op in Opcode::ALL {
            assert_eq!(op.name(), format!("{op:?}").to_lowercase());
            assert_eq!(op.to_string(), op.name());
        }
        for (i, op) in Opcode::ALL.into_iter().enumerate() {
            assert_eq!(op as usize, i, "ALL lists each opcode once, in order");
        }
    }
}
