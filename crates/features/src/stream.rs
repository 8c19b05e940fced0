//! Streaming window extraction: the trace→features hot path.
//!
//! The two-phase pipeline ([`crate::pipeline::trace_subwindows`] then
//! [`crate::pipeline::project_windows_into`]) materializes a
//! `Vec<RawWindow>` per program before projecting it. This module folds the
//! whole chain — µarch simulation, subwindow slicing, aggregation, and
//! feature projection — into one pass over the batched instruction stream,
//! writing finished rows directly into caller-owned flat buffers.
//!
//! Everything here is **bit-identical** to the two-phase path:
//!
//! * the internal subwindow cursor advances a [`CoreModel`] in per-run strides using
//!   the run-level structure paths, which evolve cache/TLB state exactly as
//!   the per-event scan does (pinned by unit tests in `rhmd-uarch` and the
//!   property suite in `tests/prop_stream.rs`);
//! * instruction fetches are only batched within one I-cache-line/page
//!   span, so the shared L2 sees misses in the same order as the per-event
//!   path;
//! * runs never cross a subwindow seal, so every miss lands in the same
//!   window as the per-event path;
//! * each lane is one clean spec fed through a
//!   [`crate::window::WindowAssembler`] at `min_fill = 1.0`, the same rule
//!   [`crate::pipeline::project_windows_into`] applies to a materialized
//!   stream. Faulted streams go through [`crate::window::apply_faults`]
//!   and the two-phase path instead.

use crate::vector::FeatureSpec;
use crate::window::{delta_bin, RawWindow, Sealed, WindowAssembler, SUBWINDOW};
use rhmd_trace::exec::{ExecEvent, ExecLimits, ExecSummary};
use rhmd_trace::flat::{BatchSink, FlatInstr, FlatProgram};
use rhmd_trace::isa::INSTR_BYTES;
use rhmd_trace::Program;
use rhmd_uarch::{CoreConfig, CoreModel, PageMemo};

/// Receiver of sealed subwindows emitted by a [`SubwindowCursor`].
trait SubwindowSink {
    fn subwindow(&mut self, window: RawWindow);
}

impl SubwindowSink for Vec<RawWindow> {
    fn subwindow(&mut self, window: RawWindow) {
        self.push(window);
    }
}

impl SubwindowSink for Vec<StreamLane<'_>> {
    fn subwindow(&mut self, window: RawWindow) {
        for lane in self.iter_mut() {
            let sealed = lane.assembler.push(&window);
            lane.emit(sealed);
        }
    }
}

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
    sealed: u64,
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
            sealed: 0,
            memos: vec![PageMemo::default(); 256],
        }
    }

    /// Processes one body run. Splits it so no sub-run crosses an I-cache
    /// line/page boundary (keeping L2 access order identical to the
    /// per-event path) or a subwindow seal (keeping miss attribution in the
    /// right window), then advances the core in bulk per sub-run: one fetch,
    /// since the rest of the sub-run's fetches are hits that change nothing
    /// (see [`CoreModel::fetch_span_bytes`]).
    fn body_run(&mut self, pc: u64, instrs: &[FlatInstr], addrs: &[u64], sink: &mut dyn SubwindowSink) {
        let mut i = 0usize;
        let mut pc = pc;
        while i < instrs.len() {
            let window_room = u64::from(SUBWINDOW - self.current.instructions);
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
            self.current.instructions += run as u32;
            if self.current.instructions == SUBWINDOW {
                self.seal(sink);
            }
            i += run;
            pc += run as u64 * INSTR_BYTES;
        }
    }

    /// Processes one terminator event on the run-level core paths.
    fn terminator(&mut self, ev: &ExecEvent, sink: &mut dyn SubwindowSink) {
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
        if self.current.instructions == SUBWINDOW {
            self.seal(sink);
        }
    }

    fn seal(&mut self, sink: &mut dyn SubwindowSink) {
        if self.current.instructions > 0 {
            let mut window = std::mem::take(&mut self.current);
            window.counters = self.core.drain_counters();
            self.sealed += 1;
            sink.subwindow(window);
        }
    }

    /// Seals the trailing partial subwindow, if non-empty.
    fn finish(&mut self, sink: &mut dyn SubwindowSink) {
        self.seal(sink);
    }
}

/// One live lane: a clean spec's assembler projecting each kept window
/// into a caller-owned flat buffer.
#[derive(Debug)]
struct StreamLane<'a> {
    spec: &'a FeatureSpec,
    assembler: WindowAssembler,
    rows: usize,
    out: &'a mut Vec<f64>,
}

impl StreamLane<'_> {
    fn emit(&mut self, sealed: Option<Sealed>) {
        if let Some(Sealed::Window(window)) = sealed {
            self.spec.project_into(&window, self.out);
            self.rows += 1;
        }
    }
}

/// Result of one streaming extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamOutcome {
    /// Rows appended per lane (parallel to the `specs` argument).
    pub rows: Vec<usize>,
    /// The execution summary.
    pub summary: ExecSummary,
    /// Subwindows sealed during the run (including a trailing partial one).
    pub subwindows: u64,
}

/// The incremental window-extraction batch sink: one core, many lanes,
/// rows written straight into caller buffers.
#[derive(Debug)]
struct WindowStream<'a> {
    cursor: SubwindowCursor,
    lanes: Vec<StreamLane<'a>>,
}

impl<'a> WindowStream<'a> {
    fn new(config: CoreConfig, specs: &'a [FeatureSpec], outs: &'a mut [&mut Vec<f64>]) -> WindowStream<'a> {
        assert_eq!(
            specs.len(),
            outs.len(),
            "one output buffer per spec is required"
        );
        WindowStream {
            cursor: SubwindowCursor::new(config),
            lanes: specs
                .iter()
                .zip(outs.iter_mut())
                .map(|(spec, out)| StreamLane {
                    spec,
                    assembler: WindowAssembler::new(spec.period, 1.0),
                    rows: 0,
                    out,
                })
                .collect(),
        }
    }

    fn finish(mut self, summary: ExecSummary) -> StreamOutcome {
        self.cursor.finish(&mut self.lanes);
        for lane in &mut self.lanes {
            let tail = lane.assembler.finish();
            lane.emit(tail);
        }
        StreamOutcome {
            rows: self.lanes.iter().map(|l| l.rows).collect(),
            summary,
            subwindows: self.cursor.sealed,
        }
    }
}

impl BatchSink for WindowStream<'_> {
    #[inline]
    fn body_run(&mut self, pc: u64, instrs: &[FlatInstr], addrs: &[u64]) {
        self.cursor.body_run(pc, instrs, addrs, &mut self.lanes);
    }

    #[inline]
    fn terminator(&mut self, ev: &ExecEvent) {
        self.cursor.terminator(ev, &mut self.lanes);
    }
}

/// Executes a pre-lowered program once, streaming each spec's rows into
/// its output buffer (appended; existing contents survive). Each spec is a
/// clean lane: strict aggregation at its period, then projection.
pub fn stream_features_flat(
    flat: &FlatProgram,
    limits: ExecLimits,
    config: CoreConfig,
    specs: &[FeatureSpec],
    outs: &mut [&mut Vec<f64>],
) -> StreamOutcome {
    rhmd_obs::incr("trace.programs_executed");
    let _span = rhmd_obs::span("trace.exec");
    let mut stream = WindowStream::new(config, specs, outs);
    let summary =
        rhmd_trace::flat::with_scratch(|scratch| flat.run_batched(limits, &mut stream, scratch));
    let outcome = stream.finish(summary);
    rhmd_obs::add("trace.instructions", summary.instructions);
    rhmd_obs::add("trace.windows", outcome.subwindows);
    outcome
}

/// [`stream_features_flat`] lowering the program first — the one-shot form.
pub fn stream_features_into(
    program: &Program,
    limits: ExecLimits,
    config: CoreConfig,
    specs: &[FeatureSpec],
    outs: &mut [&mut Vec<f64>],
) -> StreamOutcome {
    stream_features_flat(&FlatProgram::lower(program), limits, config, specs, outs)
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
    struct Collector {
        cursor: SubwindowCursor,
        windows: Vec<RawWindow>,
    }
    impl BatchSink for Collector {
        #[inline]
        fn body_run(&mut self, pc: u64, instrs: &[FlatInstr], addrs: &[u64]) {
            self.cursor.body_run(pc, instrs, addrs, &mut self.windows);
        }
        #[inline]
        fn terminator(&mut self, ev: &ExecEvent) {
            self.cursor.terminator(ev, &mut self.windows);
        }
    }
    let mut collector = Collector {
        cursor: SubwindowCursor::new(config),
        windows: Vec::new(),
    };
    let summary = rhmd_trace::flat::with_scratch(|scratch| {
        flat.run_batched(limits, &mut collector, scratch)
    });
    collector.cursor.finish(&mut collector.windows);
    collector.windows.shrink_to_fit();
    rhmd_obs::add("trace.instructions", summary.instructions);
    rhmd_obs::add("trace.windows", collector.cursor.sealed);
    (collector.windows, summary)
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
    use crate::pipeline::{project_windows_into, trace_subwindows_reference};
    use crate::vector::FeatureKind;
    use rhmd_trace::generate::{benign_profile, malware_profile, BenignClass, MalwareFamily,
                               ProgramGenerator};

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

    #[test]
    fn streaming_lanes_match_two_phase_projection() {
        let p = ProgramGenerator::new(benign_profile(BenignClass::Browser)).generate(5);
        let limits = ExecLimits::instructions(33_000);
        let specs = [
            FeatureSpec::new(FeatureKind::Architectural, 5_000, vec![]),
            FeatureSpec::new(FeatureKind::Memory, 4_000, vec![]),
        ];
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        let outcome = stream_features_into(
            &p,
            limits,
            CoreConfig::default(),
            &specs,
            &mut [&mut out_a, &mut out_b],
        );

        let reference = trace_subwindows_reference(&p, limits, CoreConfig::default());
        let (mut ref_a, mut ref_b) = (Vec::new(), Vec::new());
        let ra = project_windows_into(&reference, &specs[0], &mut ref_a);
        let rb = project_windows_into(&reference, &specs[1], &mut ref_b);
        assert_eq!(outcome.rows, vec![ra, rb]);
        assert_eq!(out_a, ref_a);
        assert_eq!(out_b, ref_b);
        assert_eq!(outcome.subwindows, reference.len() as u64);
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
