//! Flat, cache-friendly program IR and the batched executor built on it.
//!
//! [`FlatProgram::lower`] decodes a [`Program`] once into contiguous arrays
//! of fixed-width instruction records indexed by `u32` — no pointer chasing
//! through `Vec<BasicBlock>`/`Vec<Instruction>` per executed instruction —
//! and [`FlatProgram::run_batched`] walks it delivering whole body runs to a
//! [`BatchSink`] instead of one virtual call per committed instruction.
//!
//! The batched walk is **bit-identical** to the reference interpreter
//! ([`crate::exec::Executor::run_reference`]): same committed-event stream,
//! same [`ExecSummary`], same address-stream and control-RNG evolution. The
//! equivalence suites in `rhmd-features` pin this property across random
//! programs, limits, and fault plans.

use crate::address::AddressStream;
use crate::block::Terminator;
use crate::exec::{
    BranchKind, BranchOutcome, ExecEvent, ExecLimits, ExecSummary, MemAccess, Observer,
};
use crate::isa::{AddrPattern, Opcode, INSTR_BYTES};
use crate::program::{Program, SCRATCH_STREAM};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;

/// Stream field value meaning "no memory operand".
pub const NO_STREAM: u16 = u16::MAX;

/// Stream field value addressing the injected-instruction scratch stream.
const FLAT_SCRATCH: u16 = SCRATCH_STREAM as u16;

const FLAG_INJECTED: u8 = 1 << 0;
const FLAG_LOAD: u8 = 1 << 1;
const FLAG_STORE: u8 = 1 << 2;

/// One body instruction in the flat arena: 6 bytes, no indirection.
#[derive(Debug, Clone, Copy)]
pub struct FlatInstr {
    /// Dense opcode index (see [`Opcode::index`]).
    pub opcode: u8,
    /// Memory access size in bytes; 0 when the instruction has no operand.
    pub size: u8,
    /// Address-stream id, [`NO_STREAM`] when the instruction has no memory
    /// operand, 255 for the injected-instruction scratch stream.
    pub stream: u16,
    flags: u8,
}

impl FlatInstr {
    /// Whether the instruction has a memory operand.
    #[inline]
    pub fn has_mem(&self) -> bool {
        self.stream != NO_STREAM
    }

    /// Whether the instruction was spliced in by the evasion framework.
    #[inline]
    pub fn injected(&self) -> bool {
        self.flags & FLAG_INJECTED != 0
    }

    /// Whether the opcode reads memory.
    #[inline]
    pub fn is_load(&self) -> bool {
        self.flags & FLAG_LOAD != 0
    }

    /// Whether the opcode writes memory.
    #[inline]
    pub fn is_store(&self) -> bool {
        self.flags & FLAG_STORE != 0
    }

    /// The decoded opcode.
    #[inline]
    pub fn opcode(&self) -> Opcode {
        Opcode::from_index(self.opcode as usize)
    }
}

/// A terminator with all control-flow targets pre-resolved to flat block
/// indices (calls resolve straight to the callee's entry block).
#[derive(Debug, Clone, Copy)]
pub enum FlatTerminator {
    /// Unconditional jump.
    Jump {
        /// Destination block index.
        target: u32,
    },
    /// Conditional branch.
    Branch {
        /// Destination block index when taken.
        taken: u32,
        /// Destination block index when not taken.
        fallthrough: u32,
        /// Long-run probability the branch is taken.
        taken_prob: f64,
        /// Probability the branch repeats its previous outcome.
        persistence: f64,
    },
    /// Call; `callee_entry` is the callee's entry block.
    Call {
        /// Entry block index of the callee.
        callee_entry: u32,
        /// Block executed after the callee returns.
        return_to: u32,
    },
    /// Return to the caller (end of trace when the stack is empty).
    Return,
    /// System call, then continue at `next`.
    Syscall {
        /// Block executed after the system call.
        next: u32,
    },
    /// Program exit.
    Exit,
}

impl FlatTerminator {
    /// The opcode class the terminator contributes to the dynamic stream.
    #[inline]
    fn opcode(&self) -> Opcode {
        match self {
            FlatTerminator::Jump { .. } => Opcode::Jmp,
            FlatTerminator::Branch { .. } => Opcode::Jcc,
            FlatTerminator::Call { .. } => Opcode::Call,
            FlatTerminator::Return => Opcode::Ret,
            FlatTerminator::Syscall { .. } => Opcode::Syscall,
            FlatTerminator::Exit => Opcode::Syscall,
        }
    }
}

/// One basic block in the flat arena.
#[derive(Debug, Clone, Copy)]
pub struct FlatBlock {
    /// Start of the body in the flat instruction arena.
    pub body_start: u32,
    /// Number of body instructions.
    pub body_len: u32,
    /// Virtual address of the first instruction.
    pub addr: u64,
    /// The block's terminator.
    pub term: FlatTerminator,
}

/// A [`Program`] lowered into contiguous arenas, decoded once and executable
/// any number of times.
#[derive(Debug, Clone)]
pub struct FlatProgram {
    seed: u64,
    scratch_delta: u32,
    entry: u32,
    blocks: Vec<FlatBlock>,
    instrs: Vec<FlatInstr>,
    streams: Vec<AddrPattern>,
    max_body: usize,
}

/// Consumer of the batched committed-instruction stream.
///
/// Where [`Observer`] sees one event per instruction, a `BatchSink` sees one
/// call per straight-line body run plus one per terminator — the contract
/// that lets the microarchitecture layer advance in strides.
pub trait BatchSink {
    /// A run of consecutive body instructions starting at `pc` (4 bytes
    /// apart). `addrs[i]` is the effective address of `instrs[i]` when
    /// `instrs[i].has_mem()`, unspecified otherwise.
    fn body_run(&mut self, pc: u64, instrs: &[FlatInstr], addrs: &[u64]);

    /// The block's committed terminator instruction, as a full event.
    fn terminator(&mut self, ev: &ExecEvent);
}

/// Reusable per-thread execution state: address streams, branch memory, the
/// call stack, and the resolved-address buffer. Reusing one across programs
/// keeps the batched hot path allocation-free.
#[derive(Debug, Default)]
pub struct ExecScratch {
    streams: Vec<AddressStream>,
    last_outcome: Vec<Option<bool>>,
    call_stack: Vec<u32>,
    addrs: Vec<u64>,
}

thread_local! {
    static SCRATCH: RefCell<ExecScratch> = RefCell::new(ExecScratch::default());
}

/// Runs `f` with this thread's shared [`ExecScratch`], falling back to a
/// fresh one under re-entrant execution (an observer that itself executes).
pub fn with_scratch<R>(f: impl FnOnce(&mut ExecScratch) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut ExecScratch::default()),
    })
}

/// Adapts a per-event [`Observer`] to the batched stream by synthesizing
/// the per-instruction [`ExecEvent`]s the reference interpreter would emit.
pub(crate) struct EventAdapter<'a, O: ?Sized>(pub &'a mut O);

impl<O: Observer + ?Sized> BatchSink for EventAdapter<'_, O> {
    #[inline]
    fn body_run(&mut self, pc: u64, instrs: &[FlatInstr], addrs: &[u64]) {
        for (i, ins) in instrs.iter().enumerate() {
            let ev = ExecEvent {
                pc: pc + i as u64 * INSTR_BYTES,
                opcode: ins.opcode(),
                mem: ins.has_mem().then(|| MemAccess {
                    addr: addrs[i],
                    size: ins.size,
                }),
                branch: None,
                injected: ins.injected(),
                syscall: false,
            };
            self.0.observe(&ev);
        }
    }

    #[inline]
    fn terminator(&mut self, ev: &ExecEvent) {
        self.0.observe(ev);
    }
}

impl FlatProgram {
    /// Lowers `program` into flat arenas. Call once per program; the result
    /// can be executed any number of times.
    pub fn lower(program: &Program) -> FlatProgram {
        let body_total = program.blocks.iter().map(|b| b.body.len()).sum();
        let mut instrs = Vec::with_capacity(body_total);
        let mut blocks = Vec::with_capacity(program.blocks.len());
        let mut max_body = 0usize;
        for block in &program.blocks {
            let body_start = instrs.len() as u32;
            for instr in &block.body {
                let (size, stream) = match instr.mem {
                    Some(m) => (m.size, u16::from(m.stream)),
                    None => (0, NO_STREAM),
                };
                let mut flags = 0u8;
                if instr.injected {
                    flags |= FLAG_INJECTED;
                }
                if instr.opcode.is_load() {
                    flags |= FLAG_LOAD;
                }
                if instr.opcode.is_store() {
                    flags |= FLAG_STORE;
                }
                instrs.push(FlatInstr {
                    opcode: instr.opcode.index() as u8,
                    size,
                    stream,
                    flags,
                });
            }
            max_body = max_body.max(block.body.len());
            let term = match block.terminator {
                Terminator::Jump { target } => FlatTerminator::Jump { target: target.0 },
                Terminator::Branch {
                    taken,
                    fallthrough,
                    taken_prob,
                    persistence,
                } => FlatTerminator::Branch {
                    taken: taken.0,
                    fallthrough: fallthrough.0,
                    taken_prob,
                    persistence,
                },
                Terminator::Call { callee, return_to } => FlatTerminator::Call {
                    callee_entry: program.function(callee).entry.0,
                    return_to: return_to.0,
                },
                Terminator::Return => FlatTerminator::Return,
                Terminator::Syscall { next } => FlatTerminator::Syscall { next: next.0 },
                Terminator::Exit => FlatTerminator::Exit,
            };
            blocks.push(FlatBlock {
                body_start,
                body_len: block.body.len() as u32,
                addr: block.addr,
                term,
            });
        }
        FlatProgram {
            seed: program.seed,
            scratch_delta: program.scratch_delta,
            entry: program.entry().0,
            blocks,
            instrs,
            streams: program.streams.clone(),
            max_body,
        }
    }

    /// Runs the lowered program to `limits`, delivering body runs and
    /// terminator events to `sink`.
    ///
    /// Bit-identical to [`crate::exec::Executor::run_reference`] with the
    /// events the per-event adapter would synthesize: identical summary,
    /// identical committed-event stream, identical RNG/stream evolution. The
    /// one structural difference is granularity — limits are applied per
    /// chunk (`min(body remaining, instruction budgets)`) rather than per
    /// instruction, which commits exactly the same event prefix because
    /// every chunk fits within both remaining budgets.
    pub fn run_batched<B: BatchSink + ?Sized>(
        &self,
        limits: ExecLimits,
        sink: &mut B,
        scratch: &mut ExecScratch,
    ) -> ExecSummary {
        let ExecScratch {
            streams,
            last_outcome,
            call_stack,
            addrs,
        } = scratch;
        streams.clear();
        streams.extend(
            self.streams
                .iter()
                .enumerate()
                .map(|(i, &p)| AddressStream::new(p, i as u64)),
        );
        let mut scratch_stream = AddressStream::scratch(self.scratch_delta);
        // Control RNG: consumed ONLY by original terminators so injection
        // cannot shift branch outcomes.
        let mut ctl_rng = SmallRng::seed_from_u64(self.seed ^ 0xc0ff_ee00_dead_beef);
        last_outcome.clear();
        last_outcome.resize(self.blocks.len(), None);
        call_stack.clear();
        if addrs.len() < self.max_body {
            addrs.resize(self.max_body, 0);
        }

        let mut summary = ExecSummary::default();
        let mut current = self.entry;
        'outer: loop {
            summary.blocks += 1;
            let block = &self.blocks[current as usize];
            let body = &self.instrs
                [block.body_start as usize..(block.body_start + block.body_len) as usize];

            let mut done = 0usize;
            while done < body.len() {
                if summary.instructions >= limits.max_instructions
                    || summary.original_instructions >= limits.max_original_instructions
                {
                    break 'outer;
                }
                let rem = (limits.max_instructions - summary.instructions)
                    .min(limits.max_original_instructions - summary.original_instructions)
                    .min((body.len() - done) as u64) as usize;
                let run = &body[done..done + rem];
                let pc = block.addr + done as u64 * INSTR_BYTES;
                for (i, ins) in run.iter().enumerate() {
                    if ins.has_mem() {
                        addrs[i] = if ins.stream == FLAT_SCRATCH {
                            scratch_stream.next_addr()
                        } else {
                            streams[ins.stream as usize].next_addr()
                        };
                    }
                    if !ins.injected() {
                        summary.original_instructions += 1;
                    }
                }
                summary.instructions += rem as u64;
                sink.body_run(pc, run, &addrs[..rem]);
                done += rem;
            }
            if summary.instructions >= limits.max_instructions
                || summary.original_instructions >= limits.max_original_instructions
            {
                break;
            }

            let term_pc = block.addr + u64::from(block.body_len) * INSTR_BYTES;
            let (next, outcome, is_syscall) = match block.term {
                FlatTerminator::Jump { target } => (
                    Some(target),
                    Some(BranchOutcome {
                        kind: BranchKind::Jump,
                        taken: true,
                        target: self.blocks[target as usize].addr,
                    }),
                    false,
                ),
                FlatTerminator::Branch {
                    taken,
                    fallthrough,
                    taken_prob,
                    persistence,
                } => {
                    let slot = &mut last_outcome[current as usize];
                    let outcome_taken = match *slot {
                        Some(prev) if ctl_rng.gen::<f64>() < persistence => prev,
                        _ => ctl_rng.gen::<f64>() < taken_prob,
                    };
                    *slot = Some(outcome_taken);
                    let dest = if outcome_taken { taken } else { fallthrough };
                    (
                        Some(dest),
                        Some(BranchOutcome {
                            kind: BranchKind::Conditional,
                            taken: outcome_taken,
                            target: self.blocks[dest as usize].addr,
                        }),
                        false,
                    )
                }
                FlatTerminator::Call {
                    callee_entry,
                    return_to,
                } => {
                    if call_stack.len() >= limits.max_call_depth {
                        // Recursion guard: treat as a jump over the call.
                        (
                            Some(return_to),
                            Some(BranchOutcome {
                                kind: BranchKind::Jump,
                                taken: true,
                                target: self.blocks[return_to as usize].addr,
                            }),
                            false,
                        )
                    } else {
                        call_stack.push(return_to);
                        (
                            Some(callee_entry),
                            Some(BranchOutcome {
                                kind: BranchKind::Call,
                                taken: true,
                                target: self.blocks[callee_entry as usize].addr,
                            }),
                            false,
                        )
                    }
                }
                FlatTerminator::Return => match call_stack.pop() {
                    Some(ret) => (
                        Some(ret),
                        Some(BranchOutcome {
                            kind: BranchKind::Return,
                            taken: true,
                            target: self.blocks[ret as usize].addr,
                        }),
                        false,
                    ),
                    None => (None, None, false),
                },
                FlatTerminator::Syscall { next } => (
                    Some(next),
                    Some(BranchOutcome {
                        kind: BranchKind::Jump,
                        taken: true,
                        target: self.blocks[next as usize].addr,
                    }),
                    true,
                ),
                FlatTerminator::Exit => (None, None, true),
            };

            let ev = ExecEvent {
                pc: term_pc,
                opcode: block.term.opcode(),
                mem: None,
                branch: outcome,
                injected: false,
                syscall: is_syscall,
            };
            summary.instructions += 1;
            summary.original_instructions += 1;
            sink.terminator(&ev);
            if is_syscall {
                summary.syscalls += 1;
                if summary.syscalls >= limits.max_syscalls {
                    break;
                }
            }
            match next {
                Some(n) => current = n,
                None => break,
            }
        }
        summary
    }

    /// Runs the lowered program, feeding a per-event [`Observer`] the exact
    /// event stream the reference interpreter would emit.
    pub fn run_observed<O: Observer + ?Sized>(
        &self,
        limits: ExecLimits,
        observer: &mut O,
        scratch: &mut ExecScratch,
    ) -> ExecSummary {
        self.run_batched(limits, &mut EventAdapter(observer), scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Executor, OriginalFingerprint};
    use crate::generate::{benign_profile, malware_profile, BenignClass, MalwareFamily,
                          ProgramGenerator};

    fn events_of(run: impl FnOnce(&mut dyn Observer) -> ExecSummary) -> (Vec<ExecEvent>, ExecSummary) {
        let mut events = Vec::new();
        let mut rec = |e: &ExecEvent| events.push(*e);
        let summary = run(&mut rec);
        (events, summary)
    }

    /// The batched walk reproduces the reference interpreter bit-for-bit:
    /// same events, same summary, across classes and limit shapes.
    #[test]
    fn batched_matches_reference_bit_for_bit() {
        for (class, limits) in [
            (0usize, ExecLimits::instructions(10_000)),
            (1, ExecLimits::instructions(3_333)),
            (2, ExecLimits::default()),
            (3, ExecLimits::original_instructions(5_000)),
            (
                4,
                ExecLimits {
                    max_instructions: 50_000,
                    max_original_instructions: u64::MAX,
                    max_syscalls: 7,
                    max_call_depth: 2,
                },
            ),
        ] {
            let profile = if class % 2 == 0 {
                malware_profile(MalwareFamily::ALL[class % MalwareFamily::ALL.len()])
            } else {
                benign_profile(BenignClass::ALL[class % BenignClass::ALL.len()])
            };
            let p = ProgramGenerator::new(profile).generate(class as u64 + 17);
            let flat = FlatProgram::lower(&p);

            let (ref_events, ref_summary) =
                events_of(|o| Executor::new(&p, limits).run_reference(o));
            let (flat_events, flat_summary) = events_of(|o| {
                let mut scratch = ExecScratch::default();
                flat.run_observed(limits, o, &mut scratch)
            });
            assert_eq!(ref_summary, flat_summary, "class {class}");
            assert_eq!(ref_events, flat_events, "class {class}");
        }
    }

    /// Scratch reuse across different programs never leaks state.
    #[test]
    fn scratch_reuse_is_state_free() {
        let limits = ExecLimits::instructions(5_000);
        let pa = ProgramGenerator::new(benign_profile(BenignClass::Browser)).generate(1);
        let pb = ProgramGenerator::new(malware_profile(MalwareFamily::Spambot)).generate(2);
        let mut scratch = ExecScratch::default();
        let fa = FlatProgram::lower(&pa);
        let fb = FlatProgram::lower(&pb);
        let mut run = |flat: &FlatProgram| {
            let mut fp = OriginalFingerprint::default();
            (flat.run_observed(limits, &mut fp, &mut scratch), fp)
        };
        let a1 = run(&fa);
        let b1 = run(&fb);
        let a2 = run(&fa);
        let b2 = run(&fb);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        assert_ne!(a1.1, b1.1);
    }
}
