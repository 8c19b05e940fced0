//! Deterministic execution of synthetic programs.
//!
//! The executor walks the program's dynamic control-flow graph and emits one
//! [`ExecEvent`] per committed instruction — the role Pin plays in the paper.
//! Two properties matter for the evasion experiments:
//!
//! 1. **Determinism** — all stochastic choices (branch outcomes, address
//!    jitter) are driven by per-program seeded state, so re-executing a
//!    program reproduces the identical stream.
//! 2. **Injection transparency** — injected instructions never consume from
//!    the control RNG or the original address streams, so a rewritten
//!    program executes the *same original instruction sequence* with payload
//!    instructions interleaved. The [`OriginalFingerprint`] observer hashes
//!    that sequence, so tests verify this by running it beside the
//!    observer under test; the executor itself keeps no fingerprint.

use crate::block::{BlockId, Terminator};
use crate::isa::Opcode;
use crate::program::{Program, SCRATCH_STREAM};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A dynamic memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Effective virtual address.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u8,
}

impl MemAccess {
    /// Whether the access is unaligned with respect to its size: its address
    /// is not a multiple of a size above one byte. Power-of-two sizes (every
    /// generated operand) test with a mask instead of a division.
    #[inline]
    pub fn is_unaligned(&self) -> bool {
        let size = u64::from(self.size);
        size > 1
            && if size.is_power_of_two() {
                self.addr & (size - 1) != 0
            } else {
                !self.addr.is_multiple_of(size)
            }
    }
}

/// Classification of a control-transfer event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchKind {
    /// Conditional branch.
    Conditional,
    /// Unconditional direct jump.
    Jump,
    /// Function call.
    Call,
    /// Function return.
    Return,
}

/// Dynamic outcome of a control-transfer instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchOutcome {
    /// Kind of control transfer.
    pub kind: BranchKind,
    /// Whether the transfer was taken (always true except for untaken
    /// conditional branches).
    pub taken: bool,
    /// Destination program counter actually followed.
    pub target: u64,
}

/// One committed instruction, as observed by the hardware layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecEvent {
    /// Program counter of the instruction.
    pub pc: u64,
    /// Opcode class.
    pub opcode: Opcode,
    /// Memory access, if the instruction touches memory. Opcodes that both
    /// load and store (see [`Opcode::is_load`]/[`Opcode::is_store`]) perform
    /// both against this address.
    pub mem: Option<MemAccess>,
    /// Control-transfer outcome, for terminator instructions.
    pub branch: Option<BranchOutcome>,
    /// Whether the instruction was spliced in by the evasion framework.
    pub injected: bool,
    /// Whether this instruction is a system call.
    pub syscall: bool,
}

/// Consumer of the committed-instruction stream, in the executor/observer
/// decomposition fuzzing engines use: the [`Executor`] owns *how* the
/// program runs, observers own *what is recorded*.
///
/// Implemented by the microarchitecture model, the feature extractors,
/// counting probes, and any `FnMut(&ExecEvent)` closure. [`Executor::run`]
/// feeds one observer the committed stream event by event; the hot trace
/// paths use the batched [`crate::flat::BatchSink`] seam instead.
///
/// This is the single event-consumer trait; the `Sink`-era shims (`Tee`,
/// the `Sink` trait and its blanket impl) were removed once every call site
/// migrated (see DESIGN.md).
pub trait Observer {
    /// Observes one committed instruction.
    fn observe(&mut self, ev: &ExecEvent);
}

impl<F: FnMut(&ExecEvent)> Observer for F {
    fn observe(&mut self, ev: &ExecEvent) {
        self(ev)
    }
}

/// Stop conditions for a trace, mirroring the paper's collection bound of
/// 5,000 system calls or 15M committed instructions (scaled down by default
/// for tractability; see `DatasetConfig`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecLimits {
    /// Maximum committed instructions (including injected ones).
    pub max_instructions: u64,
    /// Maximum committed *original* (non-injected) instructions. Lets
    /// rewritten programs run to the same amount of original work as their
    /// base program, which is how semantic preservation is checked.
    pub max_original_instructions: u64,
    /// Maximum system calls.
    pub max_syscalls: u64,
    /// Maximum call depth before further calls are skipped (recursion guard;
    /// generated call graphs are DAGs so this is a safety net).
    pub max_call_depth: usize,
}

impl ExecLimits {
    /// Limits bounded only by instruction count.
    pub fn instructions(max_instructions: u64) -> ExecLimits {
        ExecLimits {
            max_instructions,
            ..ExecLimits::default()
        }
    }

    /// Limits bounded by *original* instruction count only: a rewritten
    /// program runs until it has performed `max_original` units of its
    /// original work, however much payload was injected.
    pub fn original_instructions(max_original: u64) -> ExecLimits {
        ExecLimits {
            max_instructions: u64::MAX,
            max_original_instructions: max_original,
            max_syscalls: u64::MAX,
            max_call_depth: 128,
        }
    }
}

impl Default for ExecLimits {
    /// 200K instructions / 400 syscalls: the paper's 15M / 5,000 budget
    /// scaled by 75× so full experiments fit in CI.
    fn default() -> ExecLimits {
        ExecLimits {
            max_instructions: 200_000,
            max_original_instructions: u64::MAX,
            max_syscalls: 400,
            max_call_depth: 128,
        }
    }
}

/// Statistics of one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecSummary {
    /// Total committed instructions (original + injected).
    pub instructions: u64,
    /// Committed instructions belonging to the original program.
    pub original_instructions: u64,
    /// System calls performed.
    pub syscalls: u64,
    /// Basic blocks entered.
    pub blocks: u64,
}

impl ExecSummary {
    /// Dynamic overhead introduced by injection: extra executed instructions
    /// relative to the original stream (0.0 when nothing was injected).
    pub fn dynamic_overhead(&self) -> f64 {
        if self.original_instructions == 0 {
            0.0
        } else {
            (self.instructions - self.original_instructions) as f64
                / self.original_instructions as f64
        }
    }
}

/// Walks a program's DCFG, emitting committed instructions to an observer.
#[derive(Debug)]
pub struct Executor<'p> {
    program: &'p Program,
    limits: ExecLimits,
}

impl<'p> Executor<'p> {
    /// Creates an executor for `program` with the given limits.
    pub fn new(program: &'p Program, limits: ExecLimits) -> Executor<'p> {
        Executor { program, limits }
    }

    /// Runs the program to its limits, feeding `observer`.
    ///
    /// Deterministic: identical `(program, limits)` produce identical event
    /// streams and summaries.
    ///
    /// Internally this lowers the program to the flat IR
    /// ([`crate::flat::FlatProgram`]) and drives the batched walk, which is
    /// bit-identical to [`Executor::run_reference`] — the equivalence tests
    /// in `flat.rs` and the features crate pin that. Callers executing one
    /// program many times should lower once and use the flat API directly.
    pub fn run<O: Observer + ?Sized>(&self, observer: &mut O) -> ExecSummary {
        let flat = crate::flat::FlatProgram::lower(self.program);
        crate::flat::with_scratch(|scratch| flat.run_observed(self.limits, observer, scratch))
    }

    /// The seed-era per-instruction interpreter, kept verbatim as the
    /// differential reference for the batched walk (and as the "before" leg
    /// of the trace floor in `crates/bench/tests/speed_floors.rs`).
    pub fn run_reference<O: Observer + ?Sized>(&self, observer: &mut O) -> ExecSummary {
        let program = self.program;
        let mut summary = ExecSummary::default();
        let mut streams = program.build_streams();
        let mut scratch = program.build_scratch();
        // Control RNG: consumed ONLY by original terminators so injection
        // cannot shift branch outcomes.
        let mut ctl_rng = SmallRng::seed_from_u64(program.seed ^ 0xc0ff_ee00_dead_beef);
        // Per-block last-branch-outcome memory for the persistence model.
        let mut last_outcome: Vec<Option<bool>> = vec![None; program.blocks.len()];
        let mut call_stack: Vec<BlockId> = Vec::with_capacity(program.functions.len());

        let mut current = program.entry();
        'outer: loop {
            summary.blocks += 1;
            let block = program.block(current);

            // Body instructions.
            for (idx, instr) in block.body.iter().enumerate() {
                if summary.instructions >= self.limits.max_instructions
                    || summary.original_instructions >= self.limits.max_original_instructions
                {
                    break 'outer;
                }
                let pc = block.addr + idx as u64 * crate::isa::INSTR_BYTES;
                let mem = instr.mem.map(|m| {
                    let addr = if m.stream == SCRATCH_STREAM {
                        scratch.next_addr()
                    } else {
                        streams[m.stream as usize].next_addr()
                    };
                    MemAccess { addr, size: m.size }
                });
                let ev = ExecEvent {
                    pc,
                    opcode: instr.opcode,
                    mem,
                    branch: None,
                    injected: instr.injected,
                    syscall: false,
                };
                self.commit(&ev, observer, &mut summary);
            }
            if summary.instructions >= self.limits.max_instructions
                || summary.original_instructions >= self.limits.max_original_instructions
            {
                break;
            }

            // Terminator.
            let term_pc = block.terminator_pc();
            let (next, outcome, is_syscall) = match block.terminator {
                Terminator::Jump { target } => (
                    Some(target),
                    Some(BranchOutcome {
                        kind: BranchKind::Jump,
                        taken: true,
                        target: program.block(target).addr,
                    }),
                    false,
                ),
                Terminator::Branch {
                    taken,
                    fallthrough,
                    taken_prob,
                    persistence,
                } => {
                    let slot = &mut last_outcome[current.index()];
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
                            target: program.block(dest).addr,
                        }),
                        false,
                    )
                }
                Terminator::Call { callee, return_to } => {
                    if call_stack.len() >= self.limits.max_call_depth {
                        // Recursion guard: treat as a jump over the call.
                        (
                            Some(return_to),
                            Some(BranchOutcome {
                                kind: BranchKind::Jump,
                                taken: true,
                                target: program.block(return_to).addr,
                            }),
                            false,
                        )
                    } else {
                        call_stack.push(return_to);
                        let entry = program.function(callee).entry;
                        (
                            Some(entry),
                            Some(BranchOutcome {
                                kind: BranchKind::Call,
                                taken: true,
                                target: program.block(entry).addr,
                            }),
                            false,
                        )
                    }
                }
                Terminator::Return => match call_stack.pop() {
                    Some(ret) => (
                        Some(ret),
                        Some(BranchOutcome {
                            kind: BranchKind::Return,
                            taken: true,
                            target: program.block(ret).addr,
                        }),
                        false,
                    ),
                    None => (None, None, false),
                },
                Terminator::Syscall { next } => (
                    Some(next),
                    Some(BranchOutcome {
                        kind: BranchKind::Jump,
                        taken: true,
                        target: program.block(next).addr,
                    }),
                    true,
                ),
                Terminator::Exit => (None, None, true),
            };

            let ev = ExecEvent {
                pc: term_pc,
                opcode: block.terminator.opcode(),
                mem: None,
                branch: outcome,
                injected: false,
                syscall: is_syscall,
            };
            self.commit(&ev, observer, &mut summary);
            if is_syscall {
                summary.syscalls += 1;
                if summary.syscalls >= self.limits.max_syscalls {
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

    #[inline]
    fn commit<O: Observer + ?Sized>(&self, ev: &ExecEvent, observer: &mut O, summary: &mut ExecSummary) {
        summary.instructions += 1;
        if !ev.injected {
            summary.original_instructions += 1;
        }
        observer.observe(ev);
    }
}

impl Program {
    /// Convenience: executes the program into a single observer with
    /// `limits`.
    ///
    /// # Examples
    ///
    /// ```
    /// use rhmd_trace::exec::{ExecLimits, ExecEvent};
    /// use rhmd_trace::generate::{benign_profile, BenignClass, ProgramGenerator};
    ///
    /// let program = ProgramGenerator::new(benign_profile(BenignClass::Browser)).generate(1);
    /// let mut count = 0u64;
    /// let summary = program.execute(ExecLimits::instructions(5_000), &mut |_: &ExecEvent| count += 1);
    /// assert_eq!(summary.instructions, count);
    /// ```
    pub fn execute<O: Observer + ?Sized>(&self, limits: ExecLimits, observer: &mut O) -> ExecSummary {
        rhmd_obs::incr("trace.programs_executed");
        Executor::new(self, limits).run(observer)
    }
}

/// An observer that counts events and discards them; useful for measuring
/// overheads without paying for feature extraction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Total events observed.
    pub total: u64,
    /// Events flagged as injected.
    pub injected: u64,
}

impl Observer for CountingSink {
    fn observe(&mut self, ev: &ExecEvent) {
        self.total += 1;
        if ev.injected {
            self.injected += 1;
        }
    }
}

/// An observer that folds an order-sensitive FNV-style hash over the
/// original (non-injected) committed stream: opcode, memory address and
/// branch outcome of each event. Injection must not change it, which is how
/// the injection-transparency tests check a rewrite; the trace paths do not
/// pay for it.
///
/// # Examples
///
/// ```
/// use rhmd_trace::exec::{ExecLimits, OriginalFingerprint};
/// use rhmd_trace::generate::{malware_profile, MalwareFamily, ProgramGenerator};
/// use rhmd_trace::inject::{apply, InjectionPlan, Placement};
/// use rhmd_trace::isa::Opcode;
///
/// let base = ProgramGenerator::new(malware_profile(MalwareFamily::Spambot)).generate(1);
/// let (rewritten, _) = apply(&base, &InjectionPlan::new(vec![Opcode::Nop], Placement::EveryBlock));
/// let limits = ExecLimits::original_instructions(5_000);
/// let (mut a, mut b) = (OriginalFingerprint::default(), OriginalFingerprint::default());
/// base.execute(limits, &mut a);
/// rewritten.execute(limits, &mut b);
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OriginalFingerprint(u64);

impl OriginalFingerprint {
    #[inline]
    fn mix(&mut self, value: u64) {
        self.0 = (self.0 ^ value).wrapping_mul(0x100_0000_01b3);
    }
}

impl Observer for OriginalFingerprint {
    fn observe(&mut self, ev: &ExecEvent) {
        if ev.injected {
            return;
        }
        self.mix(ev.opcode.index() as u64 + 1);
        if let Some(m) = ev.mem {
            self.mix(m.addr);
        }
        if let Some(b) = ev.branch {
            self.mix(if b.taken { 0x5555 } else { 0xaaaa });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{benign_profile, malware_profile, BenignClass, MalwareFamily,
                          ProgramGenerator};

    #[test]
    fn execution_is_deterministic() {
        let p = ProgramGenerator::new(benign_profile(BenignClass::Browser)).generate(7);
        let mut events_a = Vec::new();
        let sa = p.execute(ExecLimits::instructions(10_000), &mut |e: &ExecEvent| {
            events_a.push(*e)
        });
        let mut events_b = Vec::new();
        let sb = p.execute(ExecLimits::instructions(10_000), &mut |e: &ExecEvent| {
            events_b.push(*e)
        });
        assert_eq!(sa, sb);
        assert_eq!(events_a, events_b);
    }

    #[test]
    fn limits_are_respected() {
        let p = ProgramGenerator::new(malware_profile(MalwareFamily::Spambot)).generate(3);
        let mut sink = CountingSink::default();
        let s = p.execute(ExecLimits::instructions(1_234), &mut sink);
        assert!(s.instructions <= 1_234);
        assert_eq!(s.instructions, sink.total);
    }

    #[test]
    fn syscall_limit_stops_execution() {
        let p = ProgramGenerator::new(malware_profile(MalwareFamily::Spambot)).generate(3);
        // The instruction bound is a backstop in case this particular
        // program reaches fewer than 5 syscall sites.
        let limits = ExecLimits {
            max_instructions: 500_000,
            max_original_instructions: u64::MAX,
            max_syscalls: 5,
            max_call_depth: 128,
        };
        let mut sink = CountingSink::default();
        let s = p.execute(limits, &mut sink);
        assert!(s.syscalls <= 5);
        assert!(
            s.syscalls == 5 || s.instructions == 500_000,
            "one of the limits must bind: {s:?}"
        );
    }

    fn fingerprint(p: &Program, limits: ExecLimits) -> u64 {
        let mut fp = OriginalFingerprint::default();
        p.execute(limits, &mut fp);
        fp.0
    }

    #[test]
    fn fingerprint_is_stable() {
        let p = ProgramGenerator::new(benign_profile(BenignClass::SpecCompute)).generate(11);
        let a = fingerprint(&p, ExecLimits::instructions(20_000));
        let b = fingerprint(&p, ExecLimits::instructions(20_000));
        assert_eq!(a, b);
        assert_ne!(a, 0);
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let gen = ProgramGenerator::new(benign_profile(BenignClass::Browser));
        let a = fingerprint(&gen.generate(1), ExecLimits::instructions(5_000));
        let b = fingerprint(&gen.generate(2), ExecLimits::instructions(5_000));
        assert_ne!(a, b);
    }

    /// The reference interpreter and the flat walk feed the observer the
    /// same fingerprint, for plain and rewritten programs alike.
    #[test]
    fn fingerprint_matches_between_reference_and_flat() {
        let plan = crate::inject::InjectionPlan::new(
            vec![Opcode::Load, Opcode::Xor],
            crate::inject::Placement::EveryBlock,
        );
        for (seed, family) in MalwareFamily::ALL.into_iter().enumerate() {
            let base = ProgramGenerator::new(malware_profile(family)).generate(seed as u64);
            let (rewritten, _) = crate::inject::apply(&base, &plan);
            let limits = ExecLimits::original_instructions(8_000);
            for p in [&base, &rewritten] {
                let mut reference = OriginalFingerprint::default();
                Executor::new(p, limits).run_reference(&mut reference);
                let mut flat = OriginalFingerprint::default();
                Executor::new(p, limits).run(&mut flat);
                assert_eq!(reference, flat, "{family:?}");
            }
        }
    }

    /// One changed original address or branch outcome changes the
    /// fingerprint; injected events, whatever they carry, do not.
    #[test]
    fn fingerprint_sees_original_fields_and_skips_injected() {
        let load = ExecEvent {
            pc: 0x1000,
            opcode: Opcode::Load,
            mem: Some(MemAccess {
                addr: 0x8000,
                size: 8,
            }),
            branch: None,
            injected: false,
            syscall: false,
        };
        let jcc = ExecEvent {
            pc: 0x1004,
            opcode: Opcode::Jcc,
            mem: None,
            branch: Some(BranchOutcome {
                kind: BranchKind::Conditional,
                taken: true,
                target: 0x2000,
            }),
            injected: false,
            syscall: false,
        };
        let payload = ExecEvent {
            opcode: Opcode::Store,
            mem: Some(MemAccess {
                addr: 0x9000,
                size: 4,
            }),
            injected: true,
            ..load
        };
        let fold = |events: &[ExecEvent]| {
            let mut fp = OriginalFingerprint::default();
            for ev in events {
                fp.observe(ev);
            }
            fp.0
        };
        let base = fold(&[load, jcc, load, jcc]);
        let moved = ExecEvent {
            mem: Some(MemAccess {
                addr: 0x8040,
                size: 8,
            }),
            ..load
        };
        assert_ne!(fold(&[load, jcc, moved, jcc]), base, "one original address");
        let flipped = ExecEvent {
            branch: Some(BranchOutcome {
                taken: false,
                ..jcc.branch.unwrap()
            }),
            ..jcc
        };
        assert_ne!(
            fold(&[load, flipped, load, jcc]),
            base,
            "one branch outcome"
        );
        assert_eq!(
            fold(&[payload, load, payload, jcc, load, payload, payload, jcc]),
            base,
            "injected payload"
        );
    }

    /// The default `run` (flat, batched) and the reference interpreter emit
    /// the identical stream and summary.
    #[test]
    fn run_matches_run_reference() {
        let p = ProgramGenerator::new(malware_profile(MalwareFamily::Worm)).generate(21);
        let limits = ExecLimits::default();
        let mut fast_events = Vec::new();
        let fast = Executor::new(&p, limits).run(&mut |e: &ExecEvent| fast_events.push(*e));
        let mut ref_events = Vec::new();
        let reference =
            Executor::new(&p, limits).run_reference(&mut |e: &ExecEvent| ref_events.push(*e));
        assert_eq!(fast, reference);
        assert_eq!(fast_events, ref_events);
    }

    #[test]
    fn dynamic_overhead_zero_without_injection() {
        let p = ProgramGenerator::new(benign_profile(BenignClass::Browser)).generate(5);
        let mut sink = CountingSink::default();
        let s = p.execute(ExecLimits::instructions(5_000), &mut sink);
        assert_eq!(s.dynamic_overhead(), 0.0);
        assert_eq!(sink.injected, 0);
    }
}
