//! Raw per-window accumulation of everything the three feature vectors need.
//!
//! Windows are accumulated at a fine fixed granularity ([`SUBWINDOW`]) and
//! later aggregated to any collection period that is a multiple of it. This
//! lets one (expensive) execution serve every period in the paper's sweep
//! {5K, 8K, 9K, 10K, 11K, 12K, 15K, 19K} (Fig 3a).
//!
//! Two widths: a [`RawWindow`] (one clean subwindow, the form a traced
//! corpus keeps resident) counts in `u16`, and a [`CollectionWindow`] (the
//! sum of one period's subwindows, the form features are projected from)
//! counts in `u64`. A faulted read ([`apply_faults`]) is a
//! [`CollectionWindow`] too: coalesced reads and burst garbage do not fit a
//! subwindow's width. Nothing sums subwindows at their own width, so no sum
//! can overflow (see [`WindowAssembler`]).
//!
//! [`WindowAssembler`] is the one aggregation rule, and it sums reads of
//! either width ([`Counts`]). Clean streams assemble at `min_fill = 1.0`,
//! which keeps exactly the chunks of `period / SUBWINDOW` full subwindows
//! and drops the truncated tail; faulted streams assemble at a lower floor,
//! keeping chunks whose reads were dropped or coalesced as long as they
//! carry enough instructions.

use rhmd_trace::exec::{ExecEvent, Observer};
use rhmd_trace::isa::OPCODE_COUNT;
use rhmd_uarch::events::{CounterSet, COUNTER_DIMS};
use rhmd_uarch::faults::FaultModel;
use rhmd_uarch::{CoreModel, CounterSource};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Fine accumulation granularity, in committed instructions.
pub const SUBWINDOW: u32 = 1_000;

/// Number of bins in the memory-delta histogram (paper's Memory feature).
pub const MEM_BINS: usize = 16;

/// The largest per-program instruction budget whose whole trace, summed
/// into one `u32` [`CounterSet`], is certain to stay exact: 2^26 (about
/// 67M, 67x the `paper` corpus preset). Each channel rises by at most 2
/// per committed instruction, so a trace at this budget, or at a few times
/// it for a payload-inflated re-trace, sums below 2^32. Whole-trace sums
/// happen only in a [`CounterSet`] (checked) and in a [`CollectionWindow`]
/// (`u64`); a subwindow never sums. Every `CorpusConfig` preset stays
/// within it (a unit test in `rhmd-data` pins this).
pub const MAX_TRACE_INSTRUCTIONS: u64 = 1 << 26;

// Every count of a sealed subwindow fits `u16`: a subwindow holds at most
// SUBWINDOW committed instructions, each raises one opcode count and at
// most one memory-delta bin, and a core raises each counter channel by at
// most 2 (a fetch or data access straddles at most two lines, and an
// instruction makes at most one fetch and one data access).
const _: () = assert!(2 * SUBWINDOW <= u16::MAX as u32);

/// Raw statistics of one subwindow of committed instructions.
///
/// Every count is a `u16`, so the struct is 130 bytes. That is exact: a
/// subwindow holds at most [`SUBWINDOW`] instructions and each channel
/// rises by at most 2 per instruction, so no count passes 2,000. The trace
/// paths seal the core's `u32` [`CounterSet`] into this width, checked.
/// Subwindows are never summed at this width: sums are
/// [`CollectionWindow`]s.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RawWindow {
    /// Committed instructions in the window (== the period except possibly
    /// in the final, truncated window).
    pub instructions: u16,
    /// Executed count of each opcode class.
    pub opcode_counts: [u16; OPCODE_COUNT],
    /// Histogram over log2-binned deltas between consecutive memory-access
    /// addresses.
    pub mem_delta_hist: [u16; MEM_BINS],
    /// Hardware event counters for the window.
    pub counters: CounterSet<u16>,
}

// A traced corpus keeps every subwindow resident; the width is part of
// its footprint.
const _: () = assert!(std::mem::size_of::<RawWindow>() == 130);

impl Default for RawWindow {
    fn default() -> RawWindow {
        RawWindow {
            instructions: 0,
            opcode_counts: [0; OPCODE_COUNT],
            mem_delta_hist: [0; MEM_BINS],
            counters: CounterSet::default(),
        }
    }
}

/// Seals one subwindow's drain of a core into the subwindow's width.
///
/// # Panics
///
/// Panics if a channel passes `u16::MAX`, which a drain of at most
/// [`SUBWINDOW`] instructions cannot reach (see [`RawWindow`]).
pub(crate) fn seal_counters(drained: CounterSet) -> CounterSet<u16> {
    CounterSet::from_array(drained.to_array().map(|count| {
        u16::try_from(count).expect("a subwindow's counts stay within 2 per instruction")
    }))
}

/// One collection window: the channel-wise sum of the reads of one
/// `period`-sized chunk, at `u64` width, as [`WindowAssembler`] seals it.
/// Features are projected from it ([`crate::vector::FeatureSpec::project`]).
/// A faulted read ([`apply_faults`]) has this width too.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CollectionWindow {
    /// Committed instructions in the window.
    pub instructions: u64,
    /// Executed count of each opcode class.
    pub opcode_counts: [u64; OPCODE_COUNT],
    /// Log2-binned memory-address-delta histogram.
    pub mem_delta_hist: [u64; MEM_BINS],
    /// Hardware event counters, in
    /// [`rhmd_uarch::events::COUNTER_NAMES`] order.
    pub counters: [u64; COUNTER_DIMS],
}

impl CollectionWindow {
    /// Adds one read's counts: a subwindow widened to `u64`, or a faulted
    /// read.
    pub fn add(&mut self, read: &impl Counts) {
        read.add_to(self);
    }

    /// Total memory accesses recorded in the delta histogram.
    pub fn mem_accesses(&self) -> u64 {
        self.mem_delta_hist.iter().sum()
    }

    /// Every counter channel per committed instruction
    /// ([`rhmd_uarch::events::rates`]).
    pub fn counter_rates(&self) -> [f64; COUNTER_DIMS] {
        rhmd_uarch::events::rates(&self.counters)
    }

    /// Every observable channel, in fault-channel order: the counters, the
    /// opcode counts, then the memory-delta bins (`instructions` is ground
    /// truth, not a channel).
    fn channels(&self) -> impl Iterator<Item = &u64> {
        self.counters
            .iter()
            .chain(&self.opcode_counts)
            .chain(&self.mem_delta_hist)
    }

    /// [`CollectionWindow::channels`], mutably.
    fn channels_mut(&mut self) -> impl Iterator<Item = &mut u64> {
        self.counters
            .iter_mut()
            .chain(&mut self.opcode_counts)
            .chain(&mut self.mem_delta_hist)
    }
}

impl From<&RawWindow> for CollectionWindow {
    /// The collection window of a single subwindow.
    fn from(sub: &RawWindow) -> CollectionWindow {
        let mut window = CollectionWindow::default();
        window.add(sub);
        window
    }
}

/// A read that [`WindowAssembler`] sums: a clean [`RawWindow`], or a
/// faulted read at [`CollectionWindow`] width.
pub trait Counts {
    /// Adds this read's counts to `window`, channel by channel.
    fn add_to(&self, window: &mut CollectionWindow);
}

impl Counts for RawWindow {
    fn add_to(&self, window: &mut CollectionWindow) {
        window.instructions += u64::from(self.instructions);
        for (a, &b) in window.opcode_counts.iter_mut().zip(&self.opcode_counts) {
            *a += u64::from(b);
        }
        for (a, &b) in window.mem_delta_hist.iter_mut().zip(&self.mem_delta_hist) {
            *a += u64::from(b);
        }
        for (a, b) in window.counters.iter_mut().zip(self.counters.to_array()) {
            *a += u64::from(b);
        }
    }
}

impl Counts for CollectionWindow {
    fn add_to(&self, window: &mut CollectionWindow) {
        window.instructions += self.instructions;
        for (a, b) in window.channels_mut().zip(self.channels()) {
            *a += b;
        }
    }
}

/// One program's reads as a detector walks them: the clean subwindows of
/// its trace, or the faulted reads [`apply_faults`] made of them.
#[derive(Debug, Clone, Copy)]
pub enum Reads<'a> {
    /// Clean subwindows.
    Clean(&'a [RawWindow]),
    /// Faulted reads.
    Faulted(&'a [CollectionWindow]),
}

impl<'a> Reads<'a> {
    /// The reads in `range`, or `None` if it runs past the end.
    pub fn get(self, range: Range<usize>) -> Option<Reads<'a>> {
        match self {
            Reads::Clean(s) => s.get(range).map(Reads::Clean),
            Reads::Faulted(s) => s.get(range).map(Reads::Faulted),
        }
    }

    /// [`aggregate_with_gaps`] over these reads.
    pub fn aggregate(self, period: u32, min_fill: f64) -> Vec<CollectionWindow> {
        match self {
            Reads::Clean(s) => aggregate_with_gaps(s, period, min_fill),
            Reads::Faulted(s) => aggregate_with_gaps(s, period, min_fill),
        }
    }
}

impl<'a> From<&'a [RawWindow]> for Reads<'a> {
    fn from(subwindows: &'a [RawWindow]) -> Reads<'a> {
        Reads::Clean(subwindows)
    }
}

impl<'a> From<&'a [CollectionWindow]> for Reads<'a> {
    fn from(reads: &'a [CollectionWindow]) -> Reads<'a> {
        Reads::Faulted(reads)
    }
}

/// Maps an address delta to its histogram bin.
///
/// Bin 0 holds repeated addresses (delta 0); bin `b ≥ 1` holds deltas in
/// `[2^(b-1), 2^b)`, with the last bin absorbing everything larger.
#[inline]
pub fn delta_bin(prev: u64, addr: u64) -> usize {
    let delta = prev.abs_diff(addr);
    if delta == 0 {
        0
    } else {
        ((64 - delta.leading_zeros()) as usize).min(MEM_BINS - 1)
    }
}

/// An [`Observer`] that drives a commit-stage core and slices the stream
/// into [`SUBWINDOW`]-sized [`RawWindow`]s.
///
/// Generic over the core so the same accumulation logic runs against the
/// optimized [`CoreModel`] (the default) or the frozen
/// [`rhmd_uarch::ReferenceCore`] differential oracle.
///
/// # Examples
///
/// ```
/// use rhmd_features::window::WindowAccumulator;
/// use rhmd_trace::exec::ExecLimits;
/// use rhmd_trace::generate::{benign_profile, BenignClass, ProgramGenerator};
/// use rhmd_uarch::{CoreConfig, CoreModel};
///
/// let program = ProgramGenerator::new(benign_profile(BenignClass::Browser)).generate(0);
/// let mut acc = WindowAccumulator::new(CoreModel::new(CoreConfig::default()));
/// program.execute(ExecLimits::instructions(5_000), &mut acc);
/// assert_eq!(acc.finish().len(), 5);
/// ```
#[derive(Debug)]
pub struct WindowAccumulator<C = CoreModel> {
    core: C,
    current: RawWindow,
    windows: Vec<RawWindow>,
    last_mem_addr: Option<u64>,
}

impl<C: Observer + CounterSource> WindowAccumulator<C> {
    /// Creates an accumulator running the stream through `core`.
    pub fn new(core: C) -> WindowAccumulator<C> {
        WindowAccumulator {
            core,
            current: RawWindow::default(),
            windows: Vec::new(),
            last_mem_addr: None,
        }
    }

    /// Finalizes accumulation, returning all complete subwindows plus a
    /// trailing partial subwindow if one is non-empty.
    pub fn finish(mut self) -> Vec<RawWindow> {
        self.seal_current();
        self.windows
    }

    fn seal_current(&mut self) {
        if self.current.instructions > 0 {
            let mut window = std::mem::take(&mut self.current);
            window.counters = seal_counters(self.core.drain_counters());
            self.windows.push(window);
        }
    }
}

impl<C: Observer + CounterSource> Observer for WindowAccumulator<C> {
    #[inline]
    fn observe(&mut self, ev: &ExecEvent) {
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
        if u32::from(w.instructions) == SUBWINDOW {
            self.seal_current();
        }
    }
}

/// Subwindows per collection window of `period` instructions.
///
/// # Panics
///
/// Panics if `period` is zero or not a multiple of [`SUBWINDOW`].
fn subwindows_per(period: u32) -> usize {
    assert!(
        period > 0 && period.is_multiple_of(SUBWINDOW),
        "period {period} must be a positive multiple of {SUBWINDOW}"
    );
    (period / SUBWINDOW) as usize
}

/// Outcome of sealing one collection-window chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sealed {
    /// The merged window carries enough instructions to be judged.
    Window(Box<CollectionWindow>),
    /// The chunk fell below the `min_fill` floor (or was empty) and is
    /// dropped.
    Dropped,
}

impl Sealed {
    /// The kept window, if the chunk was not dropped.
    pub fn into_window(self) -> Option<CollectionWindow> {
        match self {
            Sealed::Window(w) => Some(*w),
            Sealed::Dropped => None,
        }
    }
}

/// Incremental gap-tolerant aggregation of reads into `period`-sized
/// collection windows: the one place the keep rule `instructions > 0 &&
/// fill >= min_fill` lives.
///
/// A chunk seals after every `period / SUBWINDOW` *received* reads,
/// whatever their sizes, so a faulted stream assembles exactly as its
/// batch counterpart. [`aggregate_with_gaps`] is a fold over it, `rhmd
/// serve`'s sessions push into it, and a clone taken mid-stream continues
/// exactly where the original would.
///
/// The chunk sums at `u64` width, so no push can overflow: a chunk holds at
/// most `u32::MAX / SUBWINDOW` (< 2^23) reads, each a `u16` subwindow or a
/// faulted read whose channels are 32-bit register reads, so its sum stays
/// below 2^55.
#[derive(Debug, Clone)]
pub struct WindowAssembler {
    period: u32,
    per: usize,
    min_fill: f64,
    chunk: CollectionWindow,
    count: usize,
}

impl WindowAssembler {
    /// Creates an assembler for `period` with gap-tolerance floor
    /// `min_fill` (fraction of the period's instructions a chunk needs).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or not a multiple of [`SUBWINDOW`].
    pub fn new(period: u32, min_fill: f64) -> WindowAssembler {
        WindowAssembler {
            period,
            per: subwindows_per(period),
            min_fill,
            chunk: CollectionWindow::default(),
            count: 0,
        }
    }

    /// Feeds one read; returns the sealed chunk when it completes one.
    pub fn push(&mut self, read: &impl Counts) -> Option<Sealed> {
        self.chunk.add(read);
        self.count += 1;
        (self.count == self.per).then(|| self.seal())
    }

    /// Seals the trailing partial chunk at end of stream, if any reads
    /// are pending. It passes the same `min_fill` filter as a full chunk,
    /// so at `min_fill = 1.0` a short tail drops.
    pub fn finish(&mut self) -> Option<Sealed> {
        (self.count > 0).then(|| self.seal())
    }

    fn seal(&mut self) -> Sealed {
        let merged = std::mem::take(&mut self.chunk);
        self.count = 0;
        let fill = merged.instructions as f64 / f64::from(self.period);
        if merged.instructions > 0 && fill >= self.min_fill {
            Sealed::Window(Box::new(merged))
        } else {
            Sealed::Dropped
        }
    }
}

/// Aggregates reads into collection windows of `period` instructions,
/// tolerant of gaps: chunks whose subwindows were dropped or coalesced by
/// fault injection are kept as long as they carry at least `min_fill` of
/// the period's instructions. Feature projection normalizes by the
/// window's *actual* counts, so short windows renormalize instead of
/// skewing low. A fold over [`WindowAssembler`].
///
/// At `min_fill = 1.0` a clean stream keeps every chunk of full
/// subwindows and drops its partial tail (coalesced reads can exceed the
/// period; they are kept too).
///
/// # Panics
///
/// Panics if `period` is zero or not a multiple of [`SUBWINDOW`].
pub fn aggregate_with_gaps<R: Counts>(
    reads: &[R],
    period: u32,
    min_fill: f64,
) -> Vec<CollectionWindow> {
    let mut assembler = WindowAssembler::new(period, min_fill);
    let mut windows: Vec<CollectionWindow> = reads
        .iter()
        .filter_map(|w| assembler.push(w))
        .filter_map(Sealed::into_window)
        .collect();
    windows.extend(assembler.finish().and_then(Sealed::into_window));
    windows
}

/// Runs a subwindow stream through a counter [`FaultModel`] and returns
/// the reads a sampler would see, at [`CollectionWindow`] width.
///
/// Every observable channel of a [`RawWindow`] is treated as a hardware
/// counter: the [`CounterSet`] channels first, then the opcode counts, then
/// the memory-delta histogram bins. The `instructions` field is the
/// ground-truth committed count of the read interval and is *not*
/// corrupted — faults disturb observation, not execution — but reads lost
/// to interrupt coalescing merge whole subwindows, so downstream
/// aggregation sees over-full and missing windows exactly as a real sampler
/// would.
///
/// A zero-intensity model returns each subwindow widened, bit for bit.
/// Each corrupted channel is a saturating 32-bit read
/// ([`rhmd_uarch::faults::ReadFaults::corrupt_read`]), with the burst and
/// identity decisions taken once per read. This is the one place dropped
/// reads merge; it adds the reads it dropped to the `uarch.windows_dropped`
/// counter and the reads it corrupted and kept to `uarch.windows_corrupted`
/// (the identity shortcut adds to neither).
pub fn apply_faults(subwindows: &[RawWindow], model: &FaultModel) -> Vec<CollectionWindow> {
    if model.is_identity() {
        return subwindows.iter().map(CollectionWindow::from).collect();
    }
    let mut out: Vec<CollectionWindow> = Vec::with_capacity(subwindows.len());
    let mut pending = CollectionWindow::default();
    let mut dropped = 0u64;
    for (idx, clean) in subwindows.iter().enumerate() {
        let window = idx as u64;
        pending.add(clean);
        if model.drops_window(window) {
            dropped += 1;
            continue;
        }
        let mut read = std::mem::take(&mut pending);
        let faults = model.read_faults(window);
        {
            let mut stale = out.last().map(CollectionWindow::channels);
            for (ch, v) in read.channels_mut().enumerate() {
                let prev = stale.as_mut().and_then(Iterator::next).copied();
                *v = faults.corrupt_read(ch as u64, *v, prev);
            }
        }
        out.push(read);
    }
    rhmd_obs::add("uarch.windows_dropped", dropped);
    rhmd_obs::add("uarch.windows_corrupted", out.len() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rhmd_trace::exec::ExecLimits;
    use rhmd_trace::generate::{benign_profile, BenignClass, ProgramGenerator};
    use rhmd_uarch::faults::FaultConfig;
    use rhmd_uarch::CoreConfig;

    fn subwindows(n_instr: u64) -> Vec<RawWindow> {
        let p = ProgramGenerator::new(benign_profile(BenignClass::Archiver)).generate(1);
        let mut acc = WindowAccumulator::new(CoreModel::new(CoreConfig::default()));
        p.execute(ExecLimits::instructions(n_instr), &mut acc);
        acc.finish()
    }

    #[test]
    fn subwindow_sizes_are_exact() {
        let subs = subwindows(10_500);
        assert_eq!(subs.len(), 11);
        for w in &subs[..10] {
            assert_eq!(w.instructions, 1_000);
            assert_eq!(w.opcode_counts.iter().sum::<u16>(), 1_000);
            assert_eq!(w.counters.instructions, 1_000);
        }
        assert_eq!(subs[10].instructions, 500);
    }

    #[test]
    fn aggregation_merges_counts() {
        let subs = subwindows(20_000);
        let windows = aggregate_with_gaps(&subs, 5_000, 1.0);
        assert_eq!(windows.len(), 4);
        for w in &windows {
            assert_eq!(w.instructions, 5_000);
            assert_eq!(w.opcode_counts.iter().sum::<u64>(), 5_000);
        }
    }

    #[test]
    fn aggregation_drops_partial_tail() {
        let subs = subwindows(12_500);
        assert_eq!(aggregate_with_gaps(&subs, 10_000, 1.0).len(), 1);
        assert_eq!(aggregate_with_gaps(&subs, 4_000, 1.0).len(), 3);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn aggregation_rejects_bad_period() {
        let subs = subwindows(2_000);
        let _ = aggregate_with_gaps(&subs, 1_500, 1.0);
    }

    #[test]
    fn delta_bins() {
        assert_eq!(delta_bin(100, 100), 0);
        assert_eq!(delta_bin(100, 101), 1);
        assert_eq!(delta_bin(100, 102), 2); // delta 2 → [2,4)
        assert_eq!(delta_bin(100, 98), 2); // absolute value
        assert_eq!(delta_bin(0, 1 << 20), MEM_BINS - 1); // saturates
    }

    #[test]
    fn histogram_counts_consecutive_pairs() {
        let subs = subwindows(5_000);
        let total: u64 = subs.iter().map(|w| CollectionWindow::from(w).mem_accesses()).sum();
        // Every memory access after the first contributes one delta.
        assert!(total > 0);
        let mem_instrs: u64 = subs
            .iter()
            .flat_map(|w| {
                rhmd_trace::isa::Opcode::ALL
                    .iter()
                    .filter(|op| op.is_memory())
                    .map(move |op| u64::from(w.opcode_counts[op.index()]))
            })
            .sum();
        assert_eq!(total, mem_instrs - 1);
    }

    #[test]
    fn apply_faults_identity_is_bit_exact() {
        let subs = subwindows(8_000);
        let model = FaultModel::new(FaultConfig::none(), 3);
        let widened: Vec<CollectionWindow> = subs.iter().map(CollectionWindow::from).collect();
        assert_eq!(apply_faults(&subs, &model), widened);
    }

    #[test]
    fn apply_faults_preserves_ground_truth_instructions() {
        let subs = subwindows(8_000);
        let model = FaultModel::new(FaultConfig::noise(0.3), 3);
        let faulted = apply_faults(&subs, &model);
        assert_eq!(faulted.len(), subs.len());
        for (f, c) in faulted.iter().zip(&subs) {
            assert_eq!(f.instructions, u64::from(c.instructions));
            assert_ne!(f, &CollectionWindow::from(c));
        }
    }

    #[test]
    fn drops_coalesce_into_next_read() {
        let subs = subwindows(64_000);
        let model = FaultModel::new(FaultConfig::dropping(0.5), 21);
        let faulted = apply_faults(&subs, &model);
        assert!(
            faulted.len() < subs.len(),
            "a 50% drop rate must lose some reads"
        );
        let total: u64 = subs
            .iter()
            .map(|w| u64::from(w.counters.instructions))
            .sum();
        let observed: u64 = faulted.iter().map(|w| w.counters[0]).sum();
        // Coalescing preserves all counts except a trailing dropped run.
        assert!(observed <= total);
        assert!(observed >= total - subs.len() as u64 * 1_000 / 2);
        // Coalesced reads carry the merged counts, ground truth included.
        assert!(faulted.iter().any(|w| w.counters[0] >= 2_000));
        assert!(faulted.iter().all(|w| w.instructions == w.counters[0]));
    }

    #[test]
    fn noise_perturbs_but_preserves_scale() {
        let subs = subwindows(32_000);
        let model = FaultModel::new(FaultConfig::noise(0.1), 11);
        let faulted = apply_faults(&subs, &model);
        assert_eq!(faulted.len(), subs.len());
        assert!(faulted
            .iter()
            .zip(&subs)
            .any(|(f, c)| f != &CollectionWindow::from(c)));
        for (f, c) in faulted.iter().zip(&subs) {
            // ±10% noise stays within ±60% with overwhelming probability.
            let (f, c) = (f.counters[0] as f64, f64::from(c.counters.instructions));
            assert!(f > 0.4 * c && f < 1.6 * c, "{f} read for {c}");
        }
    }

    #[test]
    fn multiplexed_channels_read_stale() {
        let subs = subwindows(40_000);
        let model = FaultModel::new(FaultConfig::multiplexed(0.5), 4);
        let faulted = apply_faults(&subs, &model);
        assert_eq!(faulted.len(), subs.len());
        // Some loads reads (channel 1) must repeat the previous observation.
        let stale_hits = faulted
            .windows(2)
            .filter(|w| w[1].counters[1] == w[0].counters[1])
            .count();
        assert!(stale_hits > 0, "expected stale multiplexed reads");
    }

    #[test]
    fn gap_tolerant_aggregation_keeps_short_windows() {
        let subs = subwindows(20_000);
        let model = FaultModel::new(FaultConfig::dropping(0.4), 5);
        let faulted = apply_faults(&subs, &model);
        // A full-period floor discards windows whose chunks lost reads …
        let strict = aggregate_with_gaps(&faulted, 5_000, 1.0);
        // … while a half-period floor keeps anything half-full.
        let tolerant = aggregate_with_gaps(&faulted, 5_000, 0.5);
        assert!(tolerant.len() >= strict.len());
        assert!(!tolerant.is_empty());
        for w in &tolerant {
            assert!(w.instructions >= 2_500);
        }
    }

    /// The strict rule the clean paths once used: a chunk is kept only when
    /// all `period / SUBWINDOW` of its subwindows hold exactly [`SUBWINDOW`]
    /// instructions. Frozen as the oracle for the fold of clean aggregation
    /// into the assembler at `min_fill = 1.0`.
    fn aggregate_strict_reference(subwindows: &[RawWindow], period: u32) -> Vec<CollectionWindow> {
        let per = (period / SUBWINDOW) as usize;
        subwindows
            .chunks(per)
            .filter(|chunk| {
                chunk.len() == per && chunk.iter().all(|w| u32::from(w.instructions) == SUBWINDOW)
            })
            .map(|chunk| {
                let mut merged = CollectionWindow::default();
                for w in chunk {
                    merged.add(w);
                }
                merged
            })
            .collect()
    }

    /// The tiny corpus's programs (every malware family and benign class,
    /// the same generator seeds and execution budget), traced clean.
    fn tiny_corpus_streams() -> Vec<Vec<RawWindow>> {
        use rhmd_trace::generate::{malware_profile, MalwareFamily};
        const SEED: u64 = 0xda7a;
        let limits = ExecLimits {
            max_instructions: 60_000,
            max_original_instructions: u64::MAX,
            max_syscalls: 200,
            max_call_depth: 128,
        };
        let malware = MalwareFamily::ALL.into_iter().flat_map(|f| {
            (0..8u64).map(move |i| ProgramGenerator::new(malware_profile(f)).generate(SEED ^ i))
        });
        let benign = BenignClass::ALL.into_iter().flat_map(|c| {
            (0..5u64).map(move |i| ProgramGenerator::new(benign_profile(c)).generate(SEED ^ i))
        });
        malware
            .chain(benign)
            .map(|p| crate::pipeline::trace_subwindows(&p, limits, CoreConfig::default()))
            .collect()
    }

    /// Clean traced streams assemble at `min_fill = 1.0` to exactly the
    /// windows of the frozen chunk aggregation and of the frozen strict
    /// rule, at every period from 1k to 50k instructions.
    #[test]
    fn clean_streams_assemble_as_the_frozen_rules() {
        let periods = [
            1_000, 2_000, 5_000, 8_000, 9_000, 10_000, 11_000, 12_000, 15_000, 19_000, 20_000,
            50_000,
        ];
        let streams = tiny_corpus_streams();
        assert_eq!(streams.len(), 88);
        for (i, subs) in streams.iter().enumerate() {
            for period in periods {
                let kept = aggregate_with_gaps(subs, period, 1.0);
                assert_eq!(
                    kept,
                    aggregate_with_gaps_reference(subs, period, 1.0),
                    "program {i} @ {period}"
                );
                assert_eq!(
                    kept,
                    aggregate_strict_reference(subs, period),
                    "program {i} @ {period}"
                );
            }
        }
    }

    /// The `chunks(per)` body `aggregate_with_gaps` had before it became a
    /// fold over [`WindowAssembler`], frozen as the differential oracle.
    fn aggregate_with_gaps_reference(
        subwindows: &[RawWindow],
        period: u32,
        min_fill: f64,
    ) -> Vec<CollectionWindow> {
        assert!(
            period > 0 && period.is_multiple_of(SUBWINDOW),
            "period {period} must be a positive multiple of {SUBWINDOW}"
        );
        let per = (period / SUBWINDOW) as usize;
        subwindows
            .chunks(per)
            .filter_map(|chunk| {
                let mut merged = CollectionWindow::default();
                for w in chunk {
                    merged.add(w);
                }
                let fill = merged.instructions as f64 / f64::from(period);
                (merged.instructions > 0 && fill >= min_fill).then_some(merged)
            })
            .collect()
    }

    /// A read of `instructions` whose other channels are derived from it
    /// and `salt`, so a merge mistake in any channel shows up.
    fn read(instructions: u16, salt: u16) -> RawWindow {
        let mut w = RawWindow {
            instructions,
            ..RawWindow::default()
        };
        w.opcode_counts[salt as usize % OPCODE_COUNT] = instructions / 2 + salt;
        w.mem_delta_hist[salt as usize % MEM_BINS] = instructions / 3 + 1;
        w.counters.cond_branches = salt;
        w
    }

    /// A stream mixing full, short, coalesced and zero-instruction reads.
    fn any_stream() -> impl Strategy<Value = Vec<RawWindow>> {
        prop::collection::vec((0u8..4, 1u16..1_000, 2u16..5), 0..60).prop_map(|reads| {
            reads
                .into_iter()
                .enumerate()
                .map(|(i, (kind, short, merged))| {
                    let full = SUBWINDOW as u16;
                    let instructions = match kind {
                        0 => full,
                        1 => short,
                        2 => merged * full,
                        _ => 0,
                    };
                    read(instructions, i as u16)
                })
                .collect()
        })
    }

    fn any_min_fill() -> impl Strategy<Value = f64> {
        (0usize..5, 0.0f64..=1.0).prop_map(|(pick, uniform)| [0.0, 0.3, 0.5, 1.0, uniform][pick])
    }

    /// Drains `assembler` over `rest`, appending every kept window to
    /// `out`; returns how many chunks sealed (kept or dropped).
    fn drain(
        assembler: &mut WindowAssembler,
        rest: &[RawWindow],
        out: &mut Vec<CollectionWindow>,
    ) -> usize {
        let mut sealed: Vec<Sealed> = rest.iter().filter_map(|w| assembler.push(w)).collect();
        sealed.extend(assembler.finish());
        let count = sealed.len();
        out.extend(sealed.into_iter().filter_map(Sealed::into_window));
        count
    }

    proptest! {
        /// The fold and a push-by-push assembler, cloned and continued at
        /// every position, seal exactly the frozen `chunks(per)`
        /// aggregation, and every chunk (the tail included) seals once.
        #[test]
        fn assembler_matches_frozen_chunk_aggregation(
            subs in any_stream(),
            period in (1u32..=20).prop_map(|k| k * SUBWINDOW),
            min_fill in any_min_fill(),
        ) {
            let reference = aggregate_with_gaps_reference(&subs, period, min_fill);
            prop_assert_eq!(aggregate_with_gaps(&subs, period, min_fill), reference.clone());
            let chunks = subs.len().div_ceil((period / SUBWINDOW) as usize);
            let mut assembler = WindowAssembler::new(period, min_fill);
            let mut kept = Vec::new();
            let mut sealed = 0;
            for at in 0..=subs.len() {
                let mut fork = assembler.clone();
                let mut forked = kept.clone();
                let forked_sealed = sealed + drain(&mut fork, &subs[at..], &mut forked);
                prop_assert_eq!(&forked, &reference, "clone taken at {}", at);
                prop_assert_eq!(forked_sealed, chunks, "chunks sealed, clone taken at {}", at);
                if let Some(s) = subs.get(at).and_then(|w| assembler.push(w)) {
                    sealed += 1;
                    kept.extend(s.into_window());
                }
            }
        }
    }

    /// A collection window sums the widest reads of either width exactly:
    /// `u16::MAX` subwindow counts and `u32::MAX` faulted reads.
    #[test]
    fn assembler_sums_full_width_reads_exactly() {
        let sub = RawWindow {
            instructions: u16::MAX,
            opcode_counts: [u16::MAX; OPCODE_COUNT],
            mem_delta_hist: [u16::MAX; MEM_BINS],
            counters: CounterSet::from_array([u16::MAX; COUNTER_DIMS]),
        };
        let sum = 3 * u64::from(u16::MAX);
        let windows = aggregate_with_gaps(&[sub.clone(), sub.clone(), sub], 3_000, 1.0);
        assert_eq!(windows.len(), 1);
        assert_eq!(
            windows[0],
            CollectionWindow {
                instructions: sum,
                opcode_counts: [sum; OPCODE_COUNT],
                mem_delta_hist: [sum; MEM_BINS],
                counters: [sum; COUNTER_DIMS],
            }
        );
        let max = u64::from(u32::MAX);
        let read = CollectionWindow {
            instructions: max,
            opcode_counts: [max; OPCODE_COUNT],
            mem_delta_hist: [max; MEM_BINS],
            counters: [max; COUNTER_DIMS],
        };
        let windows = aggregate_with_gaps(&[read.clone(), read.clone(), read], 3_000, 1.0);
        let sum = 3 * max;
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].instructions, sum);
        assert!(windows[0].opcode_counts.iter().all(|&c| c == sum));
        assert!(windows[0].mem_delta_hist.iter().all(|&c| c == sum));
        assert!(windows[0].counters.iter().all(|&c| c == sum));
        assert_eq!(windows[0].counter_rates(), [1.0; COUNTER_DIMS]);
    }
}
