//! Batched subwindow extraction: the trace hot path.
//!
//! [`collect_subwindows_flat`] walks a program's flat IR once on the
//! batched path and slices it into [`SUBWINDOW`]-sized [`RawWindow`]s;
//! every row the crate produces is then projected from those windows by
//! [`crate::pipeline::project_windows_into`], for live runs and the corpus
//! store alike. The windows are **bit-identical** to the per-event
//! reference pipeline ([`crate::pipeline::trace_subwindows_reference`]):
//!
//! * the internal subwindow cursor advances a [`CoreModel`] in per-run strides using
//!   the run-level structure paths, which evolve cache/TLB state exactly as
//!   the per-event scan does (pinned by unit tests in `rhmd-uarch` and the
//!   property suite in `tests/prop_stream.rs`);
//! * instruction fetches are only batched within one I-cache-line/page
//!   span, so the shared L2 sees misses in the same order as the per-event
//!   path;
//! * runs never cross a subwindow seal, so every miss lands in the same
//!   window as the per-event path.

use crate::window::{delta_bin, seal_counters, RawWindow, SUBWINDOW};
use rhmd_trace::exec::{ExecEvent, ExecLimits, ExecSummary};
use rhmd_trace::flat::{BatchSink, FlatInstr, FlatProgram};
use rhmd_trace::isa::INSTR_BYTES;
use rhmd_trace::Program;
use rhmd_uarch::{CoreConfig, CoreModel, PageMemo};

/// Drives a [`CoreModel`] over the batched instruction stream and slices it
/// into [`SUBWINDOW`]-sized [`RawWindow`]s — the streaming replacement for
/// [`crate::window::WindowAccumulator`].
#[derive(Debug)]
struct SubwindowCursor {
    core: CoreModel,
    current: RawWindow,
    last_mem_addr: Option<u64>,
    /// Bytes sharing one I-cache line and one page; fetch-batching span.
    span: u64,
    windows: Vec<RawWindow>,
    /// Per-stream D-TLB memos, indexed by the flat IR's stream id
    /// (u8-ranged, so 256 covers every stream including scratch). The
    /// D-TLB's internal depth-1 memo thrashes when streams interleave;
    /// these recover each stream's own locality.
    memos: Vec<PageMemo>,
}

impl SubwindowCursor {
    fn new(config: CoreConfig) -> SubwindowCursor {
        let core = CoreModel::new(config);
        let span = core.fetch_span_bytes();
        SubwindowCursor {
            core,
            current: RawWindow::default(),
            last_mem_addr: None,
            span,
            windows: Vec::new(),
            memos: vec![PageMemo::default(); 256],
        }
    }

    fn seal(&mut self) {
        if self.current.instructions > 0 {
            let mut window = std::mem::take(&mut self.current);
            window.counters = seal_counters(self.core.drain_counters());
            self.windows.push(window);
        }
    }

    /// Seals the trailing partial subwindow, if non-empty, and returns the
    /// sealed windows trimmed to their exact length.
    fn finish(mut self) -> Vec<RawWindow> {
        self.seal();
        self.windows.shrink_to_fit();
        self.windows
    }
}

impl BatchSink for SubwindowCursor {
    /// Processes one body run. Splits it so no sub-run crosses an I-cache
    /// line/page boundary (keeping L2 access order identical to the
    /// per-event path) or a subwindow seal (keeping miss attribution in the
    /// right window), then advances the core in bulk per sub-run: one fetch,
    /// since the rest of the sub-run's fetches are hits that change nothing
    /// (see [`CoreModel::fetch_span_bytes`]).
    fn body_run(&mut self, pc: u64, instrs: &[FlatInstr], addrs: &[u64]) {
        let mut i = 0usize;
        let mut pc = pc;
        while i < instrs.len() {
            let window_room = u64::from(SUBWINDOW - u32::from(self.current.instructions));
            // Whole instructions from pc to the end of its line/page span;
            // 0 when the fetch at pc straddles the span boundary (unaligned
            // pc), which still makes a run of one.
            let fit = ((pc | (self.span - 1)) + 1 - pc) / INSTR_BYTES;
            let run = fit.min(window_room).min((instrs.len() - i) as u64).max(1) as usize;
            self.core.fetch_one(pc);
            for j in i..i + run {
                let ins = &instrs[j];
                self.current.opcode_counts[ins.opcode as usize] += 1;
                if ins.has_mem() {
                    let addr = addrs[j];
                    if let Some(prev) = self.last_mem_addr {
                        self.current.mem_delta_hist[delta_bin(prev, addr)] += 1;
                    }
                    self.last_mem_addr = Some(addr);
                    self.core.data_access_hinted(
                        addr,
                        ins.size,
                        ins.is_load(),
                        ins.is_store(),
                        &mut self.memos[ins.stream as usize],
                    );
                }
            }
            // `run` fits the subwindow's room, so it is at most SUBWINDOW.
            self.core.add_instructions(run as u32);
            self.current.instructions += run as u16;
            if u32::from(self.current.instructions) == SUBWINDOW {
                self.seal();
            }
            i += run;
            pc += run as u64 * INSTR_BYTES;
        }
    }

    /// Processes one terminator event on the run-level core paths.
    fn terminator(&mut self, ev: &ExecEvent) {
        self.core.fetch_one(ev.pc);
        if let Some(branch) = ev.branch {
            self.core.branch_event(ev.pc, &branch);
        }
        if ev.syscall {
            self.core.count_syscall();
        }
        self.core.add_instructions(1);
        self.current.instructions += 1;
        self.current.opcode_counts[ev.opcode.index()] += 1;
        if u32::from(self.current.instructions) == SUBWINDOW {
            self.seal();
        }
    }
}

/// Executes a pre-lowered program once on the batched path and returns its
/// sealed subwindows plus the execution summary — the streaming engine
/// behind [`crate::pipeline::trace_subwindows`].
///
/// The vector is trimmed to its exact length, since a traced corpus keeps
/// every one resident.
pub fn collect_subwindows_flat(
    flat: &FlatProgram,
    limits: ExecLimits,
    config: CoreConfig,
) -> (Vec<RawWindow>, ExecSummary) {
    rhmd_obs::incr("trace.programs_executed");
    let _span = rhmd_obs::span("trace.exec");
    let mut cursor = SubwindowCursor::new(config);
    let summary =
        rhmd_trace::flat::with_scratch(|scratch| flat.run_batched(limits, &mut cursor, scratch));
    let windows = cursor.finish();
    rhmd_obs::add("trace.instructions", summary.instructions);
    rhmd_obs::add("trace.windows", windows.len() as u64);
    (windows, summary)
}

/// [`collect_subwindows_flat`] lowering the program first.
pub fn collect_subwindows(
    program: &Program,
    limits: ExecLimits,
    config: CoreConfig,
) -> (Vec<RawWindow>, ExecSummary) {
    collect_subwindows_flat(&FlatProgram::lower(program), limits, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::trace_subwindows_reference;
    use rhmd_trace::generate::{malware_profile, MalwareFamily, ProgramGenerator};

    #[test]
    fn collected_subwindows_match_reference_accumulator() {
        for seed in [0u64, 3, 11] {
            let p = ProgramGenerator::new(malware_profile(MalwareFamily::Ransomware))
                .generate(seed);
            let limits = ExecLimits::instructions(20_500);
            let (streamed, summary) = collect_subwindows(&p, limits, CoreConfig::default());
            let reference = trace_subwindows_reference(&p, limits, CoreConfig::default());
            assert_eq!(streamed, reference, "seed {seed}");
            assert_eq!(
                summary.instructions,
                streamed.iter().map(|w| u64::from(w.instructions)).sum::<u64>()
            );
            assert_eq!(streamed.capacity(), streamed.len(), "seed {seed}");
        }
    }

    /// The subwindow vector is trimmed to its exact length whether the
    /// trace fills its budget, stops early, or has no instruction budget.
    #[test]
    fn subwindow_vectors_are_exactly_sized() {
        let p = ProgramGenerator::new(malware_profile(MalwareFamily::Spambot)).generate(2);
        let early = ExecLimits {
            max_syscalls: 3,
            ..ExecLimits::instructions(200_000)
        };
        for limits in [
            ExecLimits::instructions(20_000),
            ExecLimits::instructions(20_500),
            early,
            ExecLimits::original_instructions(30_000),
        ] {
            let (windows, _) = collect_subwindows(&p, limits, CoreConfig::default());
            assert!(!windows.is_empty());
            assert_eq!(windows.capacity(), windows.len(), "{limits:?}");
        }
    }

    /// Operand sizes that are not powers of two take the remainder branch
    /// of the misalignment predicate; the batched collector and the
    /// per-event core must count them as a remainder does.
    #[test]
    fn odd_operand_sizes_count_unaligned_on_both_paths() {
        use rhmd_trace::isa::{AddrPattern, Instruction, Opcode};
        use rhmd_trace::{BasicBlock, BlockId, Function, Program, ProgramClass, Terminator};
        use rhmd_uarch::CoreModel;

        let mut p = Program {
            name: "odd-sizes".into(),
            class: ProgramClass::Benign,
            family: 0,
            seed: 17,
            functions: vec![Function::new(vec![BlockId(0), BlockId(1)])],
            blocks: vec![
                BasicBlock::new(
                    vec![
                        Instruction::mem(Opcode::Load, 0, 3),
                        Instruction::mem(Opcode::Store, 1, 6),
                        Instruction::mem(Opcode::Load, 2, 10),
                        Instruction::mem(Opcode::Load, 0, 4),
                        Instruction::reg(Opcode::Add),
                    ],
                    Terminator::Branch {
                        taken: BlockId(0),
                        fallthrough: BlockId(1),
                        taken_prob: 0.8,
                        persistence: 0.5,
                    },
                ),
                BasicBlock::new(
                    vec![Instruction::mem(Opcode::Store, 2, 10)],
                    Terminator::Jump { target: BlockId(0) },
                ),
            ],
            streams: vec![
                AddrPattern::Strided { stride: 1 },
                AddrPattern::Strided { stride: 7 },
                AddrPattern::Random,
            ],
            scratch_delta: 64,
        };
        p.relayout();
        p.validate().unwrap();
        let limits = ExecLimits::instructions(30_000);

        let (windows, _) = collect_subwindows(&p, limits, CoreConfig::default());
        let batched: u64 = windows.iter().map(|w| u64::from(w.counters.unaligned)).sum();
        let mut core = CoreModel::new(CoreConfig::default());
        p.execute(limits, &mut core);
        let per_event = u64::from(core.counters().unaligned);
        let (mut remainder, mut odd) = (0u64, 0u64);
        p.execute(limits, &mut |ev: &ExecEvent| {
            if let Some(m) = ev.mem {
                let size = u64::from(m.size);
                let misaligned = size > 1 && !m.addr.is_multiple_of(size);
                remainder += u64::from(misaligned);
                odd += u64::from(misaligned && !size.is_power_of_two());
            }
        });
        assert!(odd > 0, "no misaligned odd-sized access was exercised");
        assert_eq!(batched, remainder);
        assert_eq!(per_event, remainder);
    }
}
