//! Feature selection for the Instructions vector.
//!
//! Paper §3: the Instructions feature "tracks the frequency of instructions
//! that show the most different frequency (delta) between normal programs
//! and malware in the training set".

use crate::window::RawWindow;
use rhmd_trace::isa::{Opcode, OPCODE_COUNT};

/// Default number of opcodes retained by the Instructions feature.
pub const DEFAULT_TOP_K: usize = 16;

/// Running sums of one class's per-window opcode frequencies, in the order
/// its windows arrive.
#[derive(Debug)]
struct FrequencySums {
    sums: [f64; OPCODE_COUNT],
    n: u64,
}

impl FrequencySums {
    fn new() -> FrequencySums {
        FrequencySums {
            sums: [0.0; OPCODE_COUNT],
            n: 0,
        }
    }

    fn add(&mut self, w: &RawWindow) {
        let denom = f64::from(w.instructions.max(1));
        for (s, &c) in self.sums.iter_mut().zip(&w.opcode_counts) {
            *s += f64::from(c) / denom;
        }
        self.n += 1;
    }

    /// The mean frequency vector (all zeros for a class with no windows).
    fn mean(mut self) -> [f64; OPCODE_COUNT] {
        if self.n > 0 {
            for s in &mut self.sums {
                *s /= self.n as f64;
            }
        }
        self.sums
    }
}

fn check_k(k: usize) {
    assert!(k > 0 && k <= OPCODE_COUNT, "k must be in 1..={OPCODE_COUNT}");
}

/// The `k` opcodes with the largest `|mal - ben|` mean-frequency delta,
/// ranked by `(delta, index)` descending and returned sorted by index.
fn top_delta(mal: &[f64; OPCODE_COUNT], ben: &[f64; OPCODE_COUNT], k: usize) -> Vec<Opcode> {
    let mut ranked: Vec<(f64, usize)> = mal
        .iter()
        .zip(ben)
        .enumerate()
        .map(|(i, (m, b))| ((m - b).abs(), i))
        .collect();
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then(b.1.cmp(&a.1)));
    let mut chosen: Vec<usize> = ranked[..k].iter().map(|&(_, i)| i).collect();
    chosen.sort_unstable();
    chosen.into_iter().map(Opcode::from_index).collect()
}

/// Selects the `k` opcodes whose mean executed frequency differs most
/// between malware and benign windows. Each class is any iterator of
/// borrowed windows, summed in the order it yields them.
///
/// Ties (and the ordering of the result) are deterministic: opcodes are
/// ranked by `(delta, index)` descending, then returned sorted by index so
/// the feature layout is stable.
///
/// # Panics
///
/// Panics if `k` is zero or exceeds [`OPCODE_COUNT`].
///
/// # Examples
///
/// ```
/// use rhmd_features::select::select_top_delta_opcodes;
/// use rhmd_features::window::RawWindow;
/// use rhmd_trace::isa::Opcode;
///
/// let mut benign = RawWindow::default();
/// benign.instructions = 100;
/// benign.opcode_counts[Opcode::Fpu.index()] = 90;
/// let mut malware = RawWindow::default();
/// malware.instructions = 100;
/// malware.opcode_counts[Opcode::Xor.index()] = 90;
///
/// let top = select_top_delta_opcodes(&[malware], &[benign], 2);
/// assert!(top.contains(&Opcode::Xor) && top.contains(&Opcode::Fpu));
/// ```
pub fn select_top_delta_opcodes<'a, M, B>(malware: M, benign: B, k: usize) -> Vec<Opcode>
where
    M: IntoIterator<Item = &'a RawWindow>,
    B: IntoIterator<Item = &'a RawWindow>,
{
    check_k(k);
    let mut mal = FrequencySums::new();
    malware.into_iter().for_each(|w| mal.add(w));
    let mut ben = FrequencySums::new();
    benign.into_iter().for_each(|w| ben.add(w));
    top_delta(&mal.mean(), &ben.mean(), k)
}

/// [`select_top_delta_opcodes`] over labelled programs, in one pass and
/// without copying a window: each item is a program's label (`true` for
/// malware) and its subwindows. Each class sums its programs' windows in
/// iteration order, so the result equals selecting over the two classes'
/// concatenated windows.
///
/// # Panics
///
/// Panics if `k` is zero or exceeds [`OPCODE_COUNT`].
///
/// # Examples
///
/// ```
/// use rhmd_features::select::select_labelled_opcodes;
/// use rhmd_features::window::RawWindow;
/// use rhmd_trace::isa::Opcode;
///
/// let mut xor_heavy = RawWindow::default();
/// xor_heavy.instructions = 100;
/// xor_heavy.opcode_counts[Opcode::Xor.index()] = 90;
/// let programs = [(true, vec![xor_heavy]), (false, vec![RawWindow::default()])];
///
/// let top = select_labelled_opcodes(programs.iter().map(|(m, w)| (*m, w)), 1);
/// assert_eq!(top, vec![Opcode::Xor]);
/// ```
pub fn select_labelled_opcodes<'a, P, W>(programs: P, k: usize) -> Vec<Opcode>
where
    P: IntoIterator<Item = (bool, W)>,
    W: IntoIterator<Item = &'a RawWindow>,
{
    check_k(k);
    let (mut mal, mut ben) = (FrequencySums::new(), FrequencySums::new());
    for (malware, windows) in programs {
        let class = if malware { &mut mal } else { &mut ben };
        windows.into_iter().for_each(|w| class.add(w));
    }
    top_delta(&mal.mean(), &ben.mean(), k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn window_with(pairs: &[(Opcode, u16)]) -> RawWindow {
        let mut w = RawWindow {
            instructions: 1_000,
            ..RawWindow::default()
        };
        for &(op, c) in pairs {
            w.opcode_counts[op.index()] = c;
        }
        w
    }

    #[test]
    fn picks_most_discriminative() {
        let malware = vec![window_with(&[(Opcode::Xor, 500), (Opcode::Add, 100)])];
        let benign = vec![window_with(&[(Opcode::Fpu, 400), (Opcode::Add, 120)])];
        let top = select_top_delta_opcodes(&malware, &benign, 2);
        assert_eq!(top, vec![Opcode::Xor, Opcode::Fpu]);
    }

    #[test]
    fn result_is_sorted_by_opcode_index() {
        let malware = vec![window_with(&[(Opcode::Syscall, 100), (Opcode::Mov, 200)])];
        let benign = vec![window_with(&[(Opcode::Load, 300)])];
        let top = select_top_delta_opcodes(&malware, &benign, 3);
        let mut sorted = top.clone();
        sorted.sort_by_key(|op| op.index());
        assert_eq!(top, sorted);
    }

    #[test]
    fn deterministic_under_repeat() {
        let malware = vec![window_with(&[(Opcode::Xor, 10)])];
        let benign = vec![window_with(&[(Opcode::Add, 10)])];
        let a = select_top_delta_opcodes(&malware, &benign, 5);
        let b = select_top_delta_opcodes(&malware, &benign, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn handles_empty_window_sets() {
        let top = select_top_delta_opcodes(&[], &[], 4);
        assert_eq!(top.len(), 4);
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn rejects_zero_k() {
        let _ = select_top_delta_opcodes(&[], &[], 0);
    }

    /// The slice-only selection as it stood before selection streamed:
    /// each class's windows copied into one vector, then averaged and
    /// ranked. Frozen as the differential oracle.
    fn select_by_copying(programs: &[(bool, Vec<RawWindow>)], k: usize) -> Vec<Opcode> {
        fn mean_frequencies(windows: &[RawWindow]) -> [f64; OPCODE_COUNT] {
            let mut sums = [0.0; OPCODE_COUNT];
            let mut n = 0u64;
            for w in windows {
                let denom = w.instructions.max(1) as f64;
                for (s, &c) in sums.iter_mut().zip(&w.opcode_counts) {
                    *s += c as f64 / denom;
                }
                n += 1;
            }
            if n > 0 {
                for s in &mut sums {
                    *s /= n as f64;
                }
            }
            sums
        }
        let collect = |want: bool| -> Vec<RawWindow> {
            programs
                .iter()
                .filter(|(malware, _)| *malware == want)
                .flat_map(|(_, windows)| windows.iter().cloned())
                .collect()
        };
        assert!(k > 0 && k <= OPCODE_COUNT, "k must be in 1..={OPCODE_COUNT}");
        let mal = mean_frequencies(&collect(true));
        let ben = mean_frequencies(&collect(false));
        let mut ranked: Vec<(f64, usize)> = mal
            .iter()
            .zip(&ben)
            .enumerate()
            .map(|(i, (m, b))| ((m - b).abs(), i))
            .collect();
        ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then(b.1.cmp(&a.1)));
        let mut chosen: Vec<usize> = ranked[..k].iter().map(|&(_, i)| i).collect();
        chosen.sort_unstable();
        chosen.into_iter().map(Opcode::from_index).collect()
    }

    /// A subwindow drawn from a small palette, so equal windows (and so
    /// tied deltas) are common, or with free counts.
    fn any_window() -> impl Strategy<Value = RawWindow> {
        let palette = (0u32..4).prop_map(|pick| {
            let pairs: &[(Opcode, u16)] = match pick {
                0 => &[(Opcode::Xor, 500), (Opcode::Add, 100)],
                1 => &[(Opcode::Fpu, 400), (Opcode::Add, 120)],
                2 => &[(Opcode::Load, 250), (Opcode::Store, 250)],
                _ => &[],
            };
            window_with(pairs)
        });
        let free = (
            0u16..=1_000,
            prop::collection::vec(0u16..=1_000, OPCODE_COUNT),
        )
            .prop_map(|(instructions, counts)| {
                let mut w = RawWindow {
                    instructions,
                    ..RawWindow::default()
                };
                w.opcode_counts.copy_from_slice(&counts);
                w
            });
        (any::<bool>(), palette, free).prop_map(|(tied, p, f)| if tied { p } else { f })
    }

    /// Labelled programs; `all_malware`/`all_benign` leave a class empty.
    fn any_programs() -> impl Strategy<Value = Vec<(bool, Vec<RawWindow>)>> {
        let program = (any::<bool>(), prop::collection::vec(any_window(), 0..6));
        (0u8..4, prop::collection::vec(program, 0..10)).prop_map(|(mode, mut programs)| {
            for (malware, _) in &mut programs {
                match mode {
                    0 => *malware = true,
                    1 => *malware = false,
                    _ => {}
                }
            }
            programs
        })
    }

    proptest! {
        /// Streamed selection — per class or over labelled programs —
        /// returns exactly the copy-then-select opcode lists at every `k`.
        #[test]
        fn streamed_selection_matches_copying_oracle(programs in any_programs()) {
            let class = |want: bool| {
                programs
                    .iter()
                    .filter(move |(malware, _)| *malware == want)
                    .flat_map(|(_, windows)| windows)
            };
            for k in 1..=OPCODE_COUNT {
                let oracle = select_by_copying(&programs, k);
                prop_assert_eq!(
                    select_labelled_opcodes(programs.iter().map(|(m, w)| (*m, w)), k),
                    oracle.clone(),
                    "labelled, k = {}",
                    k
                );
                prop_assert_eq!(
                    select_top_delta_opcodes(class(true), class(false), k),
                    oracle,
                    "per class, k = {}",
                    k
                );
            }
        }
    }

    #[test]
    fn all_tied_deltas_rank_by_index() {
        let same = window_with(&[(Opcode::Xor, 300)]);
        let programs = vec![(true, vec![same.clone()]), (false, vec![same])];
        let top = select_labelled_opcodes(programs.iter().map(|(m, w)| (*m, w)), 3);
        assert_eq!(top, select_by_copying(&programs, 3));
        let last: Vec<Opcode> = (OPCODE_COUNT - 3..OPCODE_COUNT).map(Opcode::from_index).collect();
        assert_eq!(top, last);
    }
}
