//! Streaming window extraction: the trace→features hot path.
//!
//! The two-phase pipeline ([`crate::pipeline::trace_subwindows`] then
//! [`crate::pipeline::project_windows_into`]) materializes a
//! `Vec<RawWindow>` per program before projecting it. This module folds the
//! whole chain — µarch simulation, subwindow slicing, fault injection,
//! gap-tolerant aggregation, and feature projection — into one pass over
//! the batched instruction stream, writing finished rows directly into
//! caller-owned flat buffers.
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
//! * each stream lane replays [`crate::window::apply_faults`] +
//!   [`crate::window::aggregate_with_gaps`] + projection incrementally with
//!   the same channel order, pending-merge, and trailing-chunk semantics.

use crate::vector::FeatureSpec;
use crate::window::{delta_bin, RawWindow, SUBWINDOW};
use rhmd_trace::exec::{ExecEvent, ExecLimits, ExecSummary, Observer};
use rhmd_trace::flat::{BatchSink, FlatInstr, FlatProgram};
use rhmd_trace::isa::{INSTR_BYTES, OPCODE_COUNT};
use rhmd_trace::Program;
use rhmd_uarch::events::COUNTER_DIMS;
use rhmd_uarch::faults::FaultModel;
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
            lane.push(&window);
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
    /// right window), then advances the core in bulk per sub-run.
    fn body_run(&mut self, pc: u64, instrs: &[FlatInstr], addrs: &[u64], sink: &mut dyn SubwindowSink) {
        let mut i = 0usize;
        let mut pc = pc;
        while i < instrs.len() {
            let window_room = u64::from(SUBWINDOW) - self.current.instructions;
            // Instructions from pc to the end of its line/page span.
            let seg_end = (pc | (self.span - 1)) + 1;
            let fit = if seg_end >= pc + INSTR_BYTES {
                (seg_end - pc - INSTR_BYTES) / INSTR_BYTES + 1
            } else {
                0 // fetch straddles the span boundary (unaligned pc)
            };
            let run = if fit == 0 {
                1
            } else {
                fit.min(window_room).min((instrs.len() - i) as u64) as usize
            };
            if fit == 0 {
                self.core.fetch_one(pc);
            } else {
                self.core.fetch_line_run(pc, run as u64);
            }
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
            self.core.add_instructions(run as u64);
            self.current.instructions += run as u64;
            if self.current.instructions == u64::from(SUBWINDOW) {
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
        if self.current.instructions == u64::from(SUBWINDOW) {
            self.seal(sink);
        }
    }

    /// Processes one event exactly as [`crate::window::WindowAccumulator`]
    /// does — the per-event observer path.
    fn event_exact(&mut self, ev: &ExecEvent, sink: &mut dyn SubwindowSink) {
        self.core.observe(ev);
        let w = &mut self.current;
        w.instructions += 1;
        w.opcode_counts[ev.opcode.index()] += 1;
        if let Some(mem) = ev.mem {
            if let Some(prev) = self.last_mem_addr {
                w.mem_delta_hist[delta_bin(prev, mem.addr)] += 1;
            }
            self.last_mem_addr = Some(mem.addr);
        }
        if w.instructions == u64::from(SUBWINDOW) {
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

/// Streaming replica of [`crate::window::apply_faults`] for one lane:
/// identical pending-merge, drop, and channel-order corruption semantics
/// (trailing pending reads are discarded at stream end, as there).
#[derive(Debug)]
struct FaultLane {
    model: FaultModel,
    pending: Option<RawWindow>,
    prev: Option<RawWindow>,
    idx: u64,
}

impl FaultLane {
    fn push(&mut self, clean: &RawWindow) -> Option<RawWindow> {
        let window = self.idx;
        self.idx += 1;
        let mut merged = self.pending.take().unwrap_or_default();
        merged.merge(clean);
        if self.model.drops_window(window) {
            self.pending = Some(merged);
            return None;
        }
        let mut read = merged;
        self.model.corrupt_counters(
            window,
            &mut read.counters,
            self.prev.as_ref().map(|p| &p.counters),
        );
        for (i, v) in read.opcode_counts.iter_mut().enumerate() {
            let ch = (COUNTER_DIMS + i) as u64;
            *v = self
                .model
                .corrupt_value(window, ch, *v, self.prev.as_ref().map(|p| p.opcode_counts[i]));
        }
        for (i, v) in read.mem_delta_hist.iter_mut().enumerate() {
            let ch = (COUNTER_DIMS + OPCODE_COUNT + i) as u64;
            *v = self
                .model
                .corrupt_value(window, ch, *v, self.prev.as_ref().map(|p| p.mem_delta_hist[i]));
        }
        self.prev = Some(read.clone());
        Some(read)
    }
}

/// Configuration of one extraction lane: a feature spec plus the
/// aggregation and fault plan it reads subwindows through.
#[derive(Debug, Clone, Copy)]
pub struct LaneSpec<'a> {
    /// The feature spec to project (its period picks the chunk size).
    pub spec: &'a FeatureSpec,
    /// Minimum fill fraction for gap-tolerant aggregation; `1.0` with no
    /// fault model reproduces strict [`crate::window::aggregate`] exactly.
    pub min_fill: f64,
    /// Counter fault plan applied ahead of aggregation, if any.
    pub fault: Option<&'a FaultModel>,
}

impl<'a> LaneSpec<'a> {
    /// A clean, strict-aggregation lane (the store/live sweep shape).
    pub fn clean(spec: &'a FeatureSpec) -> LaneSpec<'a> {
        LaneSpec {
            spec,
            min_fill: 1.0,
            fault: None,
        }
    }
}

/// One live lane: incremental faults → chunking → projection into a
/// caller-owned flat buffer.
#[derive(Debug)]
struct StreamLane<'a> {
    spec: &'a FeatureSpec,
    per: usize,
    min_fill: f64,
    fault: Option<FaultLane>,
    chunk: RawWindow,
    filled: usize,
    rows: usize,
    out: &'a mut Vec<f64>,
}

impl<'a> StreamLane<'a> {
    fn new(lane: &LaneSpec<'a>, out: &'a mut Vec<f64>) -> StreamLane<'a> {
        let period = lane.spec.period;
        assert!(
            period > 0 && period.is_multiple_of(SUBWINDOW),
            "period {period} must be a positive multiple of {SUBWINDOW}"
        );
        StreamLane {
            spec: lane.spec,
            per: (period / SUBWINDOW) as usize,
            min_fill: lane.min_fill,
            fault: lane
                .fault
                .filter(|m| !m.is_identity())
                .map(|m| FaultLane {
                    model: m.clone(),
                    pending: None,
                    prev: None,
                    idx: 0,
                }),
            chunk: RawWindow::default(),
            filled: 0,
            rows: 0,
            out,
        }
    }

    fn push(&mut self, clean: &RawWindow) {
        let read = match &mut self.fault {
            None => {
                self.chunk.merge(clean);
                true
            }
            Some(f) => match f.push(clean) {
                Some(read) => {
                    self.chunk.merge(&read);
                    true
                }
                None => false,
            },
        };
        if read {
            self.filled += 1;
            if self.filled == self.per {
                self.flush();
            }
        }
    }

    fn flush(&mut self) {
        let merged = std::mem::take(&mut self.chunk);
        self.filled = 0;
        let fill = merged.instructions as f64 / f64::from(self.spec.period);
        if merged.instructions > 0 && fill >= self.min_fill {
            self.spec.project_into(&merged, self.out);
            self.rows += 1;
        }
    }

    /// Flushes the trailing partial chunk (matching `chunks()` semantics in
    /// the buffered aggregators).
    fn finish(&mut self) {
        if self.filled > 0 {
            self.flush();
        }
    }
}

/// Result of one streaming extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamOutcome {
    /// Rows appended per lane (parallel to the `lanes` argument).
    pub rows: Vec<usize>,
    /// The execution summary.
    pub summary: ExecSummary,
    /// Subwindows sealed during the run (including a trailing partial one).
    pub subwindows: u64,
}

/// The incremental window-extraction observer/batch-sink: one core, many
/// lanes, rows written straight into caller buffers.
#[derive(Debug)]
struct WindowStream<'a> {
    cursor: SubwindowCursor,
    lanes: Vec<StreamLane<'a>>,
}

impl<'a> WindowStream<'a> {
    fn new(config: CoreConfig, lanes: &[LaneSpec<'a>], outs: &'a mut [&mut Vec<f64>]) -> WindowStream<'a> {
        assert_eq!(
            lanes.len(),
            outs.len(),
            "one output buffer per lane is required"
        );
        WindowStream {
            cursor: SubwindowCursor::new(config),
            lanes: lanes
                .iter()
                .zip(outs.iter_mut())
                .map(|(lane, out)| StreamLane::new(lane, out))
                .collect(),
        }
    }

    fn finish(mut self, summary: ExecSummary) -> StreamOutcome {
        self.cursor.finish(&mut self.lanes);
        for lane in &mut self.lanes {
            lane.finish();
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

impl Observer for WindowStream<'_> {
    #[inline]
    fn observe(&mut self, ev: &ExecEvent) {
        self.cursor.event_exact(ev, &mut self.lanes);
    }
}

/// Executes a pre-lowered program once, streaming every lane's rows into
/// its output buffer (appended; existing contents survive).
pub fn stream_features_flat(
    flat: &FlatProgram,
    limits: ExecLimits,
    config: CoreConfig,
    lanes: &[LaneSpec],
    outs: &mut [&mut Vec<f64>],
) -> StreamOutcome {
    rhmd_obs::incr("trace.programs_executed");
    let _span = rhmd_obs::span("trace.exec");
    let mut stream = WindowStream::new(config, lanes, outs);
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
    lanes: &[LaneSpec],
    outs: &mut [&mut Vec<f64>],
) -> StreamOutcome {
    stream_features_flat(&FlatProgram::lower(program), limits, config, lanes, outs)
}

/// Streaming extraction driven per-event through the [`Observer`] seam
/// (reference interpreter + incremental lanes). Exists to pin the
/// observer-path equivalence; the batched drivers above are the hot path.
pub fn stream_features_observed(
    program: &Program,
    limits: ExecLimits,
    config: CoreConfig,
    lanes: &[LaneSpec],
    outs: &mut [&mut Vec<f64>],
) -> StreamOutcome {
    let mut stream = WindowStream::new(config, lanes, outs);
    let summary =
        rhmd_trace::exec::Executor::new(program, limits).run_reference(&mut stream);
    stream.finish(summary)
}

/// Executes a pre-lowered program once on the batched path and returns its
/// sealed subwindows plus the execution summary — the streaming engine
/// behind [`crate::pipeline::trace_subwindows`].
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
    use crate::window::{aggregate_with_gaps, apply_faults};
    use rhmd_trace::generate::{benign_profile, malware_profile, BenignClass, MalwareFamily,
                               ProgramGenerator};
    use rhmd_uarch::faults::FaultConfig;

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
                streamed.iter().map(|w| w.instructions).sum::<u64>()
            );
        }
    }

    #[test]
    fn streaming_lanes_match_two_phase_projection() {
        let p = ProgramGenerator::new(benign_profile(BenignClass::Browser)).generate(5);
        let limits = ExecLimits::instructions(33_000);
        let spec_a = FeatureSpec::new(FeatureKind::Architectural, 5_000, vec![]);
        let spec_b = FeatureSpec::new(FeatureKind::Memory, 4_000, vec![]);
        let lanes = [LaneSpec::clean(&spec_a), LaneSpec::clean(&spec_b)];
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        let outcome = stream_features_into(
            &p,
            limits,
            CoreConfig::default(),
            &lanes,
            &mut [&mut out_a, &mut out_b],
        );

        let reference = trace_subwindows_reference(&p, limits, CoreConfig::default());
        let (mut ref_a, mut ref_b) = (Vec::new(), Vec::new());
        let ra = project_windows_into(&reference, &spec_a, &mut ref_a);
        let rb = project_windows_into(&reference, &spec_b, &mut ref_b);
        assert_eq!(outcome.rows, vec![ra, rb]);
        assert_eq!(out_a, ref_a);
        assert_eq!(out_b, ref_b);
        assert_eq!(outcome.subwindows, reference.len() as u64);
    }

    #[test]
    fn faulted_lane_matches_buffered_fault_pipeline() {
        let p = ProgramGenerator::new(malware_profile(MalwareFamily::Spambot)).generate(9);
        let limits = ExecLimits::instructions(24_000);
        let spec = FeatureSpec::new(FeatureKind::Architectural, 3_000, vec![]);
        for config in [
            FaultConfig::dropping(0.3),
            FaultConfig::noise(0.4),
            FaultConfig::bursty(0.2, 3),
        ] {
            let model = FaultModel::new(config, 7);
            let lanes = [LaneSpec {
                spec: &spec,
                min_fill: 0.5,
                fault: Some(&model),
            }];
            let mut out = Vec::new();
            let outcome =
                stream_features_into(&p, limits, CoreConfig::default(), &lanes, &mut [&mut out]);

            let reference = trace_subwindows_reference(&p, limits, CoreConfig::default());
            let faulted = apply_faults(&reference, &model);
            let windows = aggregate_with_gaps(&faulted, spec.period, 0.5);
            let mut ref_out = Vec::new();
            for w in &windows {
                spec.project_into(w, &mut ref_out);
            }
            assert_eq!(outcome.rows, vec![windows.len()]);
            assert_eq!(out, ref_out);
        }
    }

    #[test]
    fn observer_path_matches_batched_path() {
        let p = ProgramGenerator::new(benign_profile(BenignClass::SpecCompute)).generate(2);
        let limits = ExecLimits::instructions(12_345);
        let spec = FeatureSpec::new(FeatureKind::Instructions, 2_000, vec![]);
        let lanes = [LaneSpec::clean(&spec)];
        let mut fast = Vec::new();
        let a = stream_features_into(&p, limits, CoreConfig::default(), &lanes, &mut [&mut fast]);
        let mut slow = Vec::new();
        let b =
            stream_features_observed(&p, limits, CoreConfig::default(), &lanes, &mut [&mut slow]);
        assert_eq!(a, b);
        assert_eq!(fast, slow);
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
        let batched: u64 = windows.iter().map(|w| w.counters.unaligned).sum();
        let mut core = CoreModel::new(CoreConfig::default());
        p.execute(limits, &mut core);
        let per_event = core.counters().unaligned;
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
