//! Counter fault injection: a deterministic, seeded model of the ways real
//! performance-monitoring hardware corrupts the event stream an HMD reads.
//!
//! Real HPC-based detectors never see the bit-perfect counters the rest of
//! this crate simulates. Counters are narrow and saturate or wrap, reads are
//! lost to interrupt coalescing, a limited number of physical counters is
//! multiplexed across more logical events (so a channel reads stale or zero
//! for some windows), and electrical or firmware glitches corrupt whole
//! bursts of reads. [`FaultModel`] reproduces each of those effects one
//! read at a time, keyed only on `(seed, window index, channel)` so
//! corruption is reproducible and independent of evaluation order. Merging
//! dropped reads into the next surviving one is a stream-level rule, and
//! lives with the subwindow stream it applies to
//! (`rhmd_features::window::apply_faults`).
//!
//! A zero-intensity model (the default config) is a bit-exact identity and
//! never touches a floating-point path, so fault-free runs stay
//! bit-identical to runs that never constructed a model at all.
//!
//! # Examples
//!
//! ```
//! use rhmd_uarch::events::CounterSet;
//! use rhmd_uarch::faults::{FaultConfig, FaultModel};
//!
//! let model = FaultModel::new(FaultConfig::noise(0.1), 7);
//! let mut read = CounterSet { instructions: 1_000, loads: 240, ..CounterSet::default() };
//! model.corrupt_counters(0, &mut read, None);
//! assert!(!model.drops_window(0)); // noise never drops reads
//! assert!((400..1_600).contains(&read.instructions)); // ±10% jitter
//! ```

use crate::events::CounterSet;
use serde::{Deserialize, Serialize};

/// How a width-limited counter handles overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Overflow {
    /// The counter sticks at its maximum value.
    Saturate,
    /// The counter wraps modulo its width.
    Wrap,
}

/// Fault intensities, serde-configurable. The default is the identity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Relative standard deviation of per-channel multiplicative Gaussian
    /// noise (`0.1` ≈ ±10% read jitter).
    pub noise: f64,
    /// Standard deviation of additive Gaussian noise, in raw counts.
    pub additive: f64,
    /// Counter width in bits; `0` means unlimited (no overflow).
    pub counter_bits: u32,
    /// Overflow behaviour when `counter_bits > 0`.
    pub overflow: Overflow,
    /// Probability that a window's read is lost to interrupt coalescing and
    /// merged into the next surviving read.
    pub drop_rate: f64,
    /// Probability that a channel is multiplexed out for a window and reads
    /// stale (previous window's value, or zero for the first window).
    pub multiplex_rate: f64,
    /// Probability that a corruption burst *starts* at any given window.
    pub burst_rate: f64,
    /// Length of a corruption burst, in windows.
    pub burst_len: u32,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig::none()
    }
}

impl FaultConfig {
    /// The identity: no faults of any kind.
    pub fn none() -> FaultConfig {
        FaultConfig {
            noise: 0.0,
            additive: 0.0,
            counter_bits: 0,
            overflow: Overflow::Saturate,
            drop_rate: 0.0,
            multiplex_rate: 0.0,
            burst_rate: 0.0,
            burst_len: 4,
        }
    }

    /// Multiplicative Gaussian read noise with relative std-dev `sigma`.
    pub fn noise(sigma: f64) -> FaultConfig {
        FaultConfig {
            noise: sigma,
            ..FaultConfig::none()
        }
    }

    /// Saturating counters of `bits` width.
    pub fn saturating(bits: u32) -> FaultConfig {
        FaultConfig {
            counter_bits: bits,
            overflow: Overflow::Saturate,
            ..FaultConfig::none()
        }
    }

    /// Wrapping counters of `bits` width.
    pub fn wrapping(bits: u32) -> FaultConfig {
        FaultConfig {
            counter_bits: bits,
            overflow: Overflow::Wrap,
            ..FaultConfig::none()
        }
    }

    /// Interrupt-coalescing window drops at the given rate.
    pub fn dropping(rate: f64) -> FaultConfig {
        FaultConfig {
            drop_rate: rate,
            ..FaultConfig::none()
        }
    }

    /// Channel multiplexing: each channel reads stale with probability
    /// `rate` in each window.
    pub fn multiplexed(rate: f64) -> FaultConfig {
        FaultConfig {
            multiplex_rate: rate,
            ..FaultConfig::none()
        }
    }

    /// Burst corruption: bursts of `len` garbage windows start with
    /// probability `rate` per window.
    pub fn bursty(rate: f64, len: u32) -> FaultConfig {
        FaultConfig {
            burst_rate: rate,
            burst_len: len.max(1),
            ..FaultConfig::none()
        }
    }

    /// True when this config can never alter a value — the guarantee the
    /// zero-intensity identity property rests on.
    pub fn is_identity(&self) -> bool {
        self.noise == 0.0
            && self.additive == 0.0
            && self.counter_bits == 0
            && self.drop_rate == 0.0
            && self.multiplex_rate == 0.0
            && self.burst_rate == 0.0
    }

    /// A stable 64-bit digest of every intensity field, suitable as a cache
    /// key component: configs with identical effect hash identically across
    /// processes and runs (unlike `std::hash`, which is not guaranteed
    /// stable), and any field change reaches the digest.
    pub fn stable_hash(&self) -> u64 {
        use rhmd_trace::seed::mix_seed;
        let mut h = 0x6661_756c_7463_6667; // b"faultcfg"
        for bits in [
            self.noise.to_bits(),
            self.additive.to_bits(),
            u64::from(self.counter_bits),
            match self.overflow {
                Overflow::Saturate => 0,
                Overflow::Wrap => 1,
            },
            self.drop_rate.to_bits(),
            self.multiplex_rate.to_bits(),
            self.burst_rate.to_bits(),
            u64::from(self.burst_len),
        ] {
            h = mix_seed(h, bits);
        }
        h
    }
}

// Stream-separation tags so the drop, multiplex, burst, and noise decisions
// at one (window, channel) are independent of each other.
const TAG_DROP: u64 = 0x1;
const TAG_MUX: u64 = 0x2;
const TAG_BURST: u64 = 0x3;
const TAG_NOISE_A: u64 = 0x4;
const TAG_NOISE_B: u64 = 0x5;
const TAG_GARBAGE: u64 = 0x6;

/// SplitMix64 finalizer — a full-avalanche 64-bit mix.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` from a hash (53-bit resolution).
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A seeded fault model over a committed counter stream.
///
/// Every decision is a pure function of `(seed, window index, channel)`:
/// corrupting window 17 gives the same answer whether or not windows 0–16
/// were corrupted first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultModel {
    config: FaultConfig,
    seed: u64,
}

impl FaultModel {
    /// Creates a model applying `config` with the given seed.
    pub fn new(config: FaultConfig, seed: u64) -> FaultModel {
        FaultModel { config, seed }
    }

    /// The configured intensities.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// The seed in effect.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when this model is a bit-exact identity.
    pub fn is_identity(&self) -> bool {
        self.config.is_identity()
    }

    #[inline]
    fn hash(&self, tag: u64, window: u64, channel: u64) -> u64 {
        mix(self
            .seed
            .wrapping_add(mix(tag.wrapping_mul(0x9e3779b97f4a7c15)))
            .wrapping_add(mix(window.wrapping_mul(0xd1b54a32d192ed03)))
            .wrapping_add(mix(channel.wrapping_mul(0x8cb92ba72f3d8dd7))))
    }

    /// Standard normal deviate for `(tag-pair, window, channel)` via
    /// Box–Muller. Only called on non-zero noise intensities.
    #[inline]
    fn gauss(&self, window: u64, channel: u64) -> f64 {
        // u1 in (0, 1] so the log is finite.
        let u1 = 1.0 - unit(self.hash(TAG_NOISE_A, window, channel));
        let u2 = unit(self.hash(TAG_NOISE_B, window, channel));
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// True when the read of `window` is lost to interrupt coalescing.
    pub fn drops_window(&self, window: u64) -> bool {
        self.config.drop_rate > 0.0 && unit(self.hash(TAG_DROP, window, 0)) < self.config.drop_rate
    }

    /// True when `window` falls inside a corruption burst.
    fn in_burst(&self, window: u64) -> bool {
        if self.config.burst_rate <= 0.0 {
            return false;
        }
        let len = u64::from(self.config.burst_len.max(1));
        let first = window.saturating_sub(len - 1);
        (first..=window).any(|start| unit(self.hash(TAG_BURST, start, 0)) < self.config.burst_rate)
    }

    /// True when `channel` is multiplexed out (reads stale) in `window`.
    fn multiplexed_out(&self, window: u64, channel: u64) -> bool {
        self.config.multiplex_rate > 0.0
            && unit(self.hash(TAG_MUX, window, channel)) < self.config.multiplex_rate
    }

    /// The fault decisions of the read of `window`: whether the model is
    /// the identity and whether the read falls inside a corruption burst
    /// are decided here, once per read, and every channel of the read is
    /// then corrupted through the returned [`ReadFaults`].
    pub fn read_faults(&self, window: u64) -> ReadFaults<'_> {
        let identity = self.is_identity();
        ReadFaults {
            model: self,
            window,
            identity,
            burst: !identity && self.in_burst(window),
        }
    }

    /// Corrupts one counter value. `prev` is the channel's previous
    /// *observed* value, served when the channel is multiplexed out (zero at
    /// the start of the stream).
    ///
    /// Zero-intensity configs return `value` unchanged without touching any
    /// floating-point path.
    pub fn corrupt_value(&self, window: u64, channel: u64, value: u64, prev: Option<u64>) -> u64 {
        self.read_faults(window).corrupt_value(channel, value, prev)
    }

    /// [`FaultModel::corrupt_value`] on a 32-bit read register, the width
    /// of every [`CounterSet`] channel ([`ReadFaults::corrupt_read`]).
    pub fn corrupt_read(&self, window: u64, channel: u64, value: u32, prev: Option<u32>) -> u32 {
        let v =
            self.read_faults(window)
                .corrupt_read(channel, u64::from(value), prev.map(u64::from));
        u32::try_from(v).expect("a 32-bit read saturates at u32::MAX")
    }

    /// Corrupts one [`CounterSet`] in place. `window` is the read's index in
    /// the committed stream; `prev` is the previously *observed* (possibly
    /// corrupted) set, used for stale multiplexed reads.
    pub fn corrupt_counters(
        &self,
        window: u64,
        counters: &mut CounterSet,
        prev: Option<&CounterSet>,
    ) {
        let faults = self.read_faults(window);
        let stale = prev.map(CounterSet::to_array);
        let mut out = counters.to_array();
        for (ch, o) in out.iter_mut().enumerate() {
            let v = faults.corrupt_read(ch as u64, u64::from(*o), stale.map(|s| u64::from(s[ch])));
            *o = u32::try_from(v).expect("a 32-bit read saturates at u32::MAX");
        }
        *counters = CounterSet::from_array(out);
    }
}

/// The fault decisions of one read, taken once by
/// [`FaultModel::read_faults`] and applied channel by channel.
#[derive(Debug, Clone, Copy)]
pub struct ReadFaults<'a> {
    model: &'a FaultModel,
    window: u64,
    identity: bool,
    burst: bool,
}

impl ReadFaults<'_> {
    /// Corrupts one channel's value ([`FaultModel::corrupt_value`]).
    pub fn corrupt_value(&self, channel: u64, value: u64, prev: Option<u64>) -> u64 {
        if self.identity {
            return value;
        }
        let (model, window) = (self.model, self.window);
        let c = &model.config;
        let mask = if c.counter_bits == 0 || c.counter_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << c.counter_bits) - 1
        };
        if self.burst {
            // Electrical garbage: a random value within the counter width
            // (or a plausible 32-bit range for unlimited counters).
            let garbage_mask = if c.counter_bits == 0 {
                u32::MAX as u64
            } else {
                mask
            };
            return model.hash(TAG_GARBAGE, window, channel) & garbage_mask;
        }
        if model.multiplexed_out(window, channel) {
            return prev.unwrap_or(0);
        }
        let mut v = value;
        if c.noise > 0.0 || c.additive > 0.0 {
            let mut f = v as f64;
            if c.noise > 0.0 {
                f *= 1.0 + c.noise * model.gauss(window, channel);
            }
            if c.additive > 0.0 {
                f += c.additive * model.gauss(window, channel ^ (1 << 32));
            }
            v = if f <= 0.0 { 0 } else { f.round() as u64 };
        }
        if c.counter_bits > 0 {
            v = match c.overflow {
                Overflow::Saturate => v.min(mask),
                Overflow::Wrap => v & mask,
            };
        }
        v
    }

    /// [`ReadFaults::corrupt_value`] on a 32-bit read register: a corrupt
    /// value past `u32::MAX` reads as `u32::MAX`. Only burst garbage of a
    /// counter wider than 32 bits, or noise on a count near the top of the
    /// range, gets there.
    pub fn corrupt_read(&self, channel: u64, value: u64, prev: Option<u64>) -> u64 {
        self.corrupt_value(channel, value, prev)
            .min(u64::from(u32::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stream(n: usize) -> Vec<CounterSet> {
        (0..n)
            .map(|i| CounterSet {
                instructions: 1_000,
                loads: 200 + i as u32,
                stores: 90,
                mispredicts: 12,
                dcache_misses: 40 + (i as u32 % 7),
                syscalls: i as u32 % 3,
                ..CounterSet::default()
            })
            .collect()
    }

    #[test]
    fn stable_hash_separates_configs() {
        let configs = [
            FaultConfig::none(),
            FaultConfig::noise(0.1),
            FaultConfig::noise(0.2),
            FaultConfig::dropping(0.1),
            FaultConfig::multiplexed(0.1),
            FaultConfig::bursty(0.1, 4),
            FaultConfig::saturating(12),
            FaultConfig::wrapping(12),
        ];
        let mut hashes: Vec<u64> = configs.iter().map(FaultConfig::stable_hash).collect();
        // Stable across calls …
        assert_eq!(hashes[1], FaultConfig::noise(0.1).stable_hash());
        // … and distinct across distinct configs (saturate vs wrap at the
        // same width differ only in the overflow field).
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), configs.len());
    }

    #[test]
    fn zero_intensity_is_bit_exact_identity() {
        let model = FaultModel::new(FaultConfig::none(), 99);
        assert!(model.is_identity());
        let mut prev = None;
        for (i, clean) in sample_stream(16).into_iter().enumerate() {
            assert!(!model.drops_window(i as u64));
            let mut read = clean;
            model.corrupt_counters(i as u64, &mut read, prev.as_ref());
            assert_eq!(read, clean);
            prev = Some(read);
        }
        assert_eq!(model.corrupt_value(3, 5, 123_456, Some(7)), 123_456);
    }

    #[test]
    fn saturation_caps_at_width() {
        let model = FaultModel::new(FaultConfig::saturating(8), 0);
        let v = model.corrupt_value(0, 0, 100_000, None);
        assert_eq!(v, 255);
        let small = model.corrupt_value(0, 1, 37, None);
        assert_eq!(small, 37);
    }

    #[test]
    fn wraparound_is_modular() {
        let model = FaultModel::new(FaultConfig::wrapping(8), 0);
        assert_eq!(model.corrupt_value(0, 0, 256 + 37, None), 37);
    }

    #[test]
    fn bursts_cover_consecutive_windows() {
        let config = FaultConfig::bursty(0.05, 4);
        let model = FaultModel::new(config, 9);
        let in_burst: Vec<bool> = (0..400).map(|w| model.in_burst(w)).collect();
        let hits = in_burst.iter().filter(|&&b| b).count();
        assert!(hits > 0, "a 5% burst rate over 400 windows should fire");
        // Every burst window belongs to a run whose start window hashes hot,
        // so runs of length >= 2 exist.
        assert!(in_burst.windows(2).any(|w| w[0] && w[1]));
    }

    #[test]
    fn serde_round_trip() {
        let config = FaultConfig {
            noise: 0.1,
            counter_bits: 16,
            overflow: Overflow::Wrap,
            drop_rate: 0.2,
            ..FaultConfig::none()
        };
        let json = serde_json::to_string(&FaultModel::new(config, 17)).unwrap();
        let back: FaultModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back.config(), &config);
        assert_eq!(back.seed(), 17);
    }
}
