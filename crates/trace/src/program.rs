//! Whole-program representation and layout.

use crate::address::AddressStream;
use crate::block::{BasicBlock, BlockId, FuncId, Function};
use crate::isa::AddrPattern;
use serde::{Deserialize, Serialize};

/// Stream id reserved for injected instructions' scratch traffic.
pub const SCRATCH_STREAM: u8 = u8::MAX;

/// Base virtual address of the text segment.
pub const TEXT_BASE: u64 = 0x0040_0000;

/// Ground-truth class of a program (known to the experimenter, not to
/// detectors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProgramClass {
    /// A benign application.
    Benign,
    /// A malware sample.
    Malware,
}

impl ProgramClass {
    /// The 0/1 label detectors are trained against (1 = malware, as in the
    /// paper).
    #[inline]
    pub fn label(self) -> bool {
        matches!(self, ProgramClass::Malware)
    }
}

/// A complete synthetic program: functions over a flat basic-block arena,
/// plus the address-stream table that gives it a memory personality.
///
/// Programs are fully deterministic: executing the same program twice yields
/// the identical committed-instruction stream.
///
/// # Examples
///
/// ```
/// use rhmd_trace::generate::{benign_profile, BenignClass, ProgramGenerator};
///
/// let program = ProgramGenerator::new(benign_profile(BenignClass::TextEditor))
///     .generate(42);
/// assert!(program.static_instruction_count() > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// Human-readable name, e.g. `"spambot-017"`.
    pub name: String,
    /// Ground-truth class.
    pub class: ProgramClass,
    /// Generation family index (malware family or benign app class).
    pub family: u32,
    /// Deterministic seed controlling all dynamic behaviour.
    pub seed: u64,
    /// Functions; index 0 is `main`.
    pub functions: Vec<Function>,
    /// Flat block arena referenced by [`BlockId`].
    pub blocks: Vec<BasicBlock>,
    /// Address-stream patterns; memory operands index into this table.
    pub streams: Vec<AddrPattern>,
    /// Stride (bytes) between consecutive scratch accesses made by injected
    /// instructions.
    pub scratch_delta: u32,
}

impl Program {
    /// Recomputes the text layout, assigning each block its virtual address.
    ///
    /// Must be called after construction and after any rewriting (such as
    /// instruction injection) that changes block sizes.
    pub fn relayout(&mut self) {
        let mut addr = TEXT_BASE;
        for func in &self.functions {
            for &bid in &func.blocks {
                let block = &mut self.blocks[bid.index()];
                block.addr = addr;
                addr += block.byte_len();
            }
        }
    }

    /// Total size of the text segment in bytes.
    pub fn text_bytes(&self) -> u64 {
        self.blocks.iter().map(BasicBlock::byte_len).sum()
    }

    /// Total number of static instructions (bodies + terminators).
    pub fn static_instruction_count(&self) -> u64 {
        self.blocks.iter().map(|b| b.len() as u64).sum()
    }

    /// Number of statically injected instructions.
    pub fn injected_instruction_count(&self) -> u64 {
        self.blocks
            .iter()
            .flat_map(|b| &b.body)
            .filter(|i| i.injected)
            .count() as u64
    }

    /// The block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// The function with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// The entry point (`main`'s entry block).
    #[inline]
    pub fn entry(&self) -> BlockId {
        self.functions[0].entry
    }

    /// Builds the runtime address-stream table for one execution.
    pub(crate) fn build_streams(&self) -> Vec<AddressStream> {
        self.streams
            .iter()
            .enumerate()
            .map(|(i, &p)| AddressStream::new(p, i as u64))
            .collect()
    }

    /// Builds the scratch stream injected instructions use.
    pub(crate) fn build_scratch(&self) -> AddressStream {
        AddressStream::scratch(self.scratch_delta)
    }

    /// Validates structural invariants: every terminator target is in range,
    /// every memory operand references a valid stream (or the scratch
    /// stream), and the layout is consistent.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        use crate::block::Terminator;
        if self.functions.is_empty() {
            return Err("program has no functions".into());
        }
        let nblocks = self.blocks.len() as u32;
        let check_bid = |b: BlockId| -> Result<(), String> {
            if b.0 >= nblocks {
                Err(format!("block target {b} out of range ({nblocks} blocks)"))
            } else {
                Ok(())
            }
        };
        for block in &self.blocks {
            match block.terminator {
                Terminator::Jump { target } => check_bid(target)?,
                Terminator::Branch {
                    taken,
                    fallthrough,
                    taken_prob,
                    persistence,
                } => {
                    check_bid(taken)?;
                    check_bid(fallthrough)?;
                    if !(0.0..=1.0).contains(&taken_prob) || !(0.0..=1.0).contains(&persistence) {
                        return Err("branch probabilities out of [0,1]".into());
                    }
                }
                Terminator::Call { callee, return_to } => {
                    if callee.index() >= self.functions.len() {
                        return Err(format!("call target {callee} out of range"));
                    }
                    check_bid(return_to)?;
                }
                Terminator::Return | Terminator::Exit => {}
                Terminator::Syscall { next } => check_bid(next)?,
            }
            for instr in &block.body {
                if let Some(m) = instr.mem {
                    if m.stream != SCRATCH_STREAM && m.stream as usize >= self.streams.len() {
                        return Err(format!(
                            "instruction references stream {} but program has {}",
                            m.stream,
                            self.streams.len()
                        ));
                    }
                }
            }
        }
        // Layout consistency: blocks laid out in function order without gaps.
        let mut addr = TEXT_BASE;
        for func in &self.functions {
            for &bid in &func.blocks {
                let block = self.block(bid);
                if block.addr != addr {
                    return Err(format!(
                        "{bid} laid out at {:#x}, expected {addr:#x} (stale layout?)",
                        block.addr
                    ));
                }
                addr += block.byte_len();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Terminator;
    use crate::isa::{Instruction, Opcode};

    fn tiny_program() -> Program {
        let b0 = BasicBlock::new(
            vec![Instruction::reg(Opcode::Add)],
            Terminator::Jump { target: BlockId(1) },
        );
        let b1 = BasicBlock::new(
            vec![Instruction::mem(Opcode::Load, 0, 4)],
            Terminator::Jump { target: BlockId(0) },
        );
        let mut p = Program {
            name: "tiny".into(),
            class: ProgramClass::Benign,
            family: 0,
            seed: 1,
            functions: vec![Function::new(vec![BlockId(0), BlockId(1)])],
            blocks: vec![b0, b1],
            streams: vec![AddrPattern::Random],
            scratch_delta: 64,
        };
        p.relayout();
        p
    }

    #[test]
    fn layout_is_contiguous() {
        let p = tiny_program();
        assert_eq!(p.block(BlockId(0)).addr, TEXT_BASE);
        assert_eq!(p.block(BlockId(1)).addr, TEXT_BASE + 8);
        assert_eq!(p.text_bytes(), 16);
        p.validate().unwrap();
    }

    #[test]
    fn static_counts() {
        let p = tiny_program();
        assert_eq!(p.static_instruction_count(), 4);
        assert_eq!(p.injected_instruction_count(), 0);
    }

    #[test]
    fn validate_catches_bad_target() {
        let mut p = tiny_program();
        p.blocks[0].terminator = Terminator::Jump { target: BlockId(99) };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_catches_bad_stream() {
        let mut p = tiny_program();
        p.blocks[1].body[0] = Instruction::mem(Opcode::Load, 5, 4);
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_catches_stale_layout() {
        let mut p = tiny_program();
        p.blocks[0]
            .body
            .push(Instruction::reg(Opcode::Sub));
        // relayout NOT called
        assert!(p.validate().is_err());
        p.relayout();
        p.validate().unwrap();
    }

    #[test]
    fn label_mapping() {
        assert!(!ProgramClass::Benign.label());
        assert!(ProgramClass::Malware.label());
    }
}
