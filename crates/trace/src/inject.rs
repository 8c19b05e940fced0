//! Instruction-injection rewriting — the paper's evasion framework (§5).
//!
//! The paper dynamically inserts instructions into malware through Pin:
//! either before every control-flow-altering instruction (*block level*) or
//! before every return (*function level*), without affecting the execution
//! state. We reproduce this as a structural rewrite of the program's DCFG:
//! the payload is appended to the end of the chosen blocks' bodies (i.e.
//! immediately before the terminator), flagged as injected, and given
//! scratch-stream memory operands so original address streams are untouched.

use crate::isa::{Instruction, Opcode};
use crate::program::{Program, SCRATCH_STREAM};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Where the payload is spliced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Placement {
    /// Before every control-flow-altering instruction (paper: "block level").
    EveryBlock,
    /// Before every return instruction (paper: "function level").
    BeforeReturn,
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Placement::EveryBlock => f.write_str("basic block"),
            Placement::BeforeReturn => f.write_str("function"),
        }
    }
}

/// A payload of opcodes to splice at each site.
///
/// # Examples
///
/// ```
/// use rhmd_trace::inject::{InjectionPlan, Placement};
/// use rhmd_trace::isa::Opcode;
///
/// let plan = InjectionPlan::new(vec![Opcode::Fpu, Opcode::Fpu], Placement::EveryBlock);
/// assert_eq!(plan.payload_len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectionPlan {
    payload: PayloadSpec,
    placement: Placement,
    /// Stride (bytes) between consecutive scratch accesses by injected
    /// memory instructions; steers the Memory-feature histogram.
    pub mem_delta: u32,
}

/// What gets spliced at each site.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
enum PayloadSpec {
    /// The same opcode sequence at every site (the reverse-engineering
    /// driven strategies).
    Fixed(Vec<Opcode>),
    /// Freshly sampled opcodes at every site (the paper's "random
    /// instruction injection" control, Fig 6).
    Random {
        pool: Vec<Opcode>,
        count: usize,
        seed: u64,
    },
}

impl InjectionPlan {
    /// Creates a plan injecting `payload` at each `placement` site.
    ///
    /// # Panics
    ///
    /// Panics if the payload contains a control-flow opcode (injection must
    /// preserve the control-flow graph, as in the paper).
    pub fn new(payload: Vec<Opcode>, placement: Placement) -> InjectionPlan {
        assert!(
            payload.iter().all(|op| op.is_injectable()),
            "cannot inject control-flow opcodes"
        );
        InjectionPlan {
            payload: PayloadSpec::Fixed(payload),
            placement,
            mem_delta: 64,
        }
    }

    /// Creates a plan that injects `count` opcodes at each site, freshly
    /// sampled from `pool` per site — the paper's random-injection control.
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty (with `count > 0`) or contains
    /// control-flow opcodes.
    pub fn random(pool: Vec<Opcode>, count: usize, placement: Placement, seed: u64) -> InjectionPlan {
        assert!(
            pool.iter().all(|op| op.is_injectable()),
            "cannot inject control-flow opcodes"
        );
        assert!(count == 0 || !pool.is_empty(), "random payload needs a pool");
        InjectionPlan {
            payload: PayloadSpec::Random { pool, count, seed },
            placement,
            mem_delta: 64,
        }
    }

    /// Sets the scratch-stream stride for injected memory operands.
    #[must_use]
    pub fn with_mem_delta(mut self, delta: u32) -> InjectionPlan {
        self.mem_delta = delta;
        self
    }

    /// Number of instructions injected at each site.
    pub fn payload_len(&self) -> usize {
        match &self.payload {
            PayloadSpec::Fixed(p) => p.len(),
            PayloadSpec::Random { count, .. } => *count,
        }
    }

    /// The opcodes injected at each site (fixed plans), or the sampling pool
    /// (random plans).
    pub fn payload(&self) -> &[Opcode] {
        match &self.payload {
            PayloadSpec::Fixed(p) => p,
            PayloadSpec::Random { pool, .. } => pool,
        }
    }

    /// The placement strategy.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    fn as_instruction(op: Opcode) -> Instruction {
        if op.is_memory() {
            Instruction::mem(op, SCRATCH_STREAM, 4).as_injected()
        } else {
            Instruction::reg(op).as_injected()
        }
    }
}

/// Static (text-size) cost of an injection, paper Fig 9's "static overhead".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StaticOverhead {
    /// Text bytes before injection.
    pub base_bytes: u64,
    /// Text bytes added by injection.
    pub added_bytes: u64,
    /// Number of sites the payload was spliced into.
    pub sites: u64,
}

impl StaticOverhead {
    /// Added bytes relative to the original text segment.
    pub fn ratio(&self) -> f64 {
        if self.base_bytes == 0 {
            0.0
        } else {
            self.added_bytes as f64 / self.base_bytes as f64
        }
    }
}

/// Applies `plan` to `program`, returning the rewritten program and its
/// static overhead.
///
/// The rewrite preserves semantics: the original instruction sequence, its
/// memory addresses, and all branch outcomes are unchanged (verified by
/// the [`crate::exec::OriginalFingerprint`] observer).
///
/// # Examples
///
/// ```
/// use rhmd_trace::generate::{malware_profile, MalwareFamily, ProgramGenerator};
/// use rhmd_trace::inject::{apply, InjectionPlan, Placement};
/// use rhmd_trace::isa::Opcode;
///
/// let base = ProgramGenerator::new(malware_profile(MalwareFamily::Spambot)).generate(1);
/// let plan = InjectionPlan::new(vec![Opcode::Nop], Placement::EveryBlock);
/// let (modified, overhead) = apply(&base, &plan);
/// assert!(overhead.ratio() > 0.0);
/// assert!(modified.injected_instruction_count() > 0);
/// ```
pub fn apply(program: &Program, plan: &InjectionPlan) -> (Program, StaticOverhead) {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    let mut modified = program.clone();
    modified.scratch_delta = plan.mem_delta;
    let base_bytes = program.text_bytes();
    let mut sites = 0u64;
    if plan.payload_len() > 0 {
        let mut site_rng = match &plan.payload {
            PayloadSpec::Random { seed, .. } => Some(SmallRng::seed_from_u64(*seed)),
            PayloadSpec::Fixed(_) => None,
        };
        for block in &mut modified.blocks {
            let is_site = match plan.placement {
                Placement::EveryBlock => true,
                Placement::BeforeReturn => {
                    matches!(block.terminator, crate::block::Terminator::Return)
                }
            };
            if is_site {
                match (&plan.payload, &mut site_rng) {
                    (PayloadSpec::Fixed(payload), _) => {
                        block
                            .body
                            .extend(payload.iter().map(|&op| InjectionPlan::as_instruction(op)));
                    }
                    (PayloadSpec::Random { pool, count, .. }, Some(rng)) => {
                        block.body.extend((0..*count).map(|_| {
                            InjectionPlan::as_instruction(pool[rng.gen_range(0..pool.len())])
                        }));
                    }
                    (PayloadSpec::Random { .. }, None) => unreachable!(),
                }
                sites += 1;
            }
        }
    }
    modified.relayout();
    if plan.payload_len() > 0 {
        modified.name = format!(
            "{}+{}x{}@{}",
            program.name,
            plan.payload_len(),
            sites,
            match plan.placement {
                Placement::EveryBlock => "bb",
                Placement::BeforeReturn => "fn",
            }
        );
    }
    let overhead = StaticOverhead {
        base_bytes,
        added_bytes: modified.text_bytes() - base_bytes,
        sites,
    };
    (modified, overhead)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Terminator;
    use crate::exec::{CountingSink, ExecLimits, OriginalFingerprint};
    use crate::generate::{benign_profile, malware_profile, BenignClass, MalwareFamily,
                          ProgramGenerator};
    use crate::isa::INSTR_BYTES;

    fn sample() -> Program {
        ProgramGenerator::new(malware_profile(MalwareFamily::ClickFraud)).generate(2)
    }

    #[test]
    fn block_level_adds_payload_everywhere() {
        let base = sample();
        let plan = InjectionPlan::new(vec![Opcode::Nop, Opcode::Add], Placement::EveryBlock);
        let (modified, overhead) = apply(&base, &plan);
        assert_eq!(overhead.sites, base.blocks.len() as u64);
        assert_eq!(
            overhead.added_bytes,
            base.blocks.len() as u64 * 2 * INSTR_BYTES
        );
        assert_eq!(
            modified.injected_instruction_count(),
            base.blocks.len() as u64 * 2
        );
        modified.validate().unwrap();
    }

    #[test]
    fn function_level_targets_only_returns() {
        let base = sample();
        let plan = InjectionPlan::new(vec![Opcode::Nop], Placement::BeforeReturn);
        let (modified, overhead) = apply(&base, &plan);
        let returns = base
            .blocks
            .iter()
            .filter(|b| matches!(b.terminator, Terminator::Return))
            .count() as u64;
        assert_eq!(overhead.sites, returns);
        assert!(overhead.added_bytes < base.text_bytes());
        modified.validate().unwrap();
    }

    #[test]
    fn injection_preserves_original_stream() {
        let base = sample();
        let mut sink = CountingSink::default();
        let limits = ExecLimits::instructions(30_000);
        let before = base.execute(limits, &mut sink);

        let plan =
            InjectionPlan::new(vec![Opcode::Load, Opcode::Xor, Opcode::Fpu], Placement::EveryBlock);
        let (modified, _) = apply(&base, &plan);
        let _ = before;
        let limits = ExecLimits::original_instructions(25_000);
        let mut fp_orig = OriginalFingerprint::default();
        let orig = base.execute(limits, &mut fp_orig);
        let mut fp_after = OriginalFingerprint::default();
        let after = modified.execute(limits, &mut fp_after);
        assert_eq!(fp_orig, fp_after);
        assert_eq!(orig.original_instructions, after.original_instructions);
        assert!(after.instructions > orig.instructions);
    }

    #[test]
    fn dynamic_overhead_scales_with_payload() {
        let base = ProgramGenerator::new(benign_profile(BenignClass::Browser)).generate(4);
        let limits = ExecLimits::original_instructions(20_000);
        let mut sink = CountingSink::default();
        let plan1 = InjectionPlan::new(vec![Opcode::Nop], Placement::EveryBlock);
        let (m1, _) = apply(&base, &plan1);
        let o1 = m1.execute(limits, &mut sink).dynamic_overhead();
        let plan5 = InjectionPlan::new(vec![Opcode::Nop; 5], Placement::EveryBlock);
        let (m5, _) = apply(&base, &plan5);
        let o5 = m5.execute(limits, &mut sink).dynamic_overhead();
        assert!(o5 > o1 && o1 > 0.0, "o1={o1} o5={o5}");
    }

    #[test]
    #[should_panic(expected = "control-flow")]
    fn control_flow_payload_rejected() {
        let _ = InjectionPlan::new(vec![Opcode::Jmp], Placement::EveryBlock);
    }

    #[test]
    fn empty_payload_is_identity() {
        let base = sample();
        let plan = InjectionPlan::new(vec![], Placement::EveryBlock);
        let (modified, overhead) = apply(&base, &plan);
        assert_eq!(modified, base);
        assert_eq!(overhead.added_bytes, 0);
        assert_eq!(overhead.ratio(), 0.0);
    }

    #[test]
    fn injected_memory_ops_use_scratch_stream() {
        let base = sample();
        let plan = InjectionPlan::new(vec![Opcode::Store], Placement::EveryBlock).with_mem_delta(256);
        let (modified, _) = apply(&base, &plan);
        assert_eq!(modified.scratch_delta, 256);
        let injected: Vec<_> = modified
            .blocks
            .iter()
            .flat_map(|b| &b.body)
            .filter(|i| i.injected)
            .collect();
        assert!(!injected.is_empty());
        assert!(injected
            .iter()
            .all(|i| i.mem.unwrap().stream == crate::program::SCRATCH_STREAM));
    }
}
