//! Property tests of the parallel engine's determinism primitives: the
//! work-stealing pool (plain and watchdog maps), the per-program seed
//! derivation, and the feature cache.

use proptest::collection::vec;
use proptest::prelude::*;
use rhmd_core::engine::FeatureCache;
use rhmd_data::parallel_map_threads;
use rhmd_features::pipeline::project_windows;
use rhmd_features::vector::{FeatureKind, FeatureSpec};
use rhmd_runtime::pool::{Pool, RunReport, WatchdogConfig};
use rhmd_trace::seed::{derive_seed, mix_seed, splitmix64};

proptest! {
    /// The pool is a drop-in for a serial enumerate-map at any width.
    #[test]
    fn pool_map_equals_serial_map(
        items in vec(any::<u64>(), 0..200),
        threads in 1usize..16,
    ) {
        let f = |i: usize, x: u64| x.rotate_left((i % 64) as u32) ^ i as u64;
        let serial: Vec<u64> = items.iter().enumerate().map(|(i, &x)| f(i, x)).collect();
        let par = Pool::new(threads).map(&items, |i, &x| f(i, x));
        prop_assert_eq!(par, serial);
    }

    /// The ledger's `parallel_map_threads` forward to the pool agrees too.
    #[test]
    fn parallel_map_threads_equals_serial(
        items in vec(any::<u32>(), 0..150),
        threads in 1usize..12,
    ) {
        let serial: Vec<u64> = items.iter().map(|&x| u64::from(x) * 3 + 1).collect();
        let par = parallel_map_threads(threads, &items, |&x| u64::from(x) * 3 + 1);
        prop_assert_eq!(par, serial);
    }

    /// Derived seeds are pure functions of (run seed, stream id): the same
    /// pair always derives the same seed, and the derivation never depends
    /// on evaluation order.
    #[test]
    fn derive_seed_is_pure(run_seed in any::<u64>(), stream in any::<u64>()) {
        prop_assert_eq!(derive_seed(run_seed, stream), derive_seed(run_seed, stream));
    }

    /// Neighbouring stream ids — the common case: program indices 0..n —
    /// never collide under one run seed.
    #[test]
    fn derive_seed_separates_neighbouring_streams(
        run_seed in any::<u64>(),
        stream in 0u64..10_000,
    ) {
        prop_assert_ne!(derive_seed(run_seed, stream), derive_seed(run_seed, stream + 1));
    }

    /// splitmix64 is a bijection, so derived seeds inherit its full range:
    /// two run seeds give two different seed streams somewhere in 0..16.
    #[test]
    fn different_run_seeds_diverge(a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        let diverges = (0..16).any(|s| derive_seed(a, s) != derive_seed(b, s));
        prop_assert!(diverges);
    }

    /// Mixing a component into a seed is order-sensitive and collision-free
    /// for small component values (how stable hashes chain fields).
    #[test]
    fn mix_seed_is_order_sensitive(seed in any::<u64>(), a in 0u64..256, b in 0u64..256) {
        prop_assume!(a != b);
        prop_assert_ne!(mix_seed(mix_seed(seed, a), b), mix_seed(mix_seed(seed, b), a));
    }

    /// splitmix64 has no 2-cycles on sampled points (x -> y -> x would make
    /// two different derivations collide systematically).
    #[test]
    fn splitmix_has_no_short_cycles(x in any::<u64>()) {
        let y = splitmix64(x);
        prop_assert_ne!(y, x);
        prop_assert_ne!(splitmix64(y), x);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The watchdog map and the plain map share one stealing loop: on any
    /// length (empty and one item included) and width, under a skewed
    /// per-item cost that makes workers steal, both return the serial
    /// values in input order, and a clean watchdog run reports nothing.
    #[test]
    fn watchdog_map_equals_plain_map(
        items in vec(any::<u64>(), 0..300),
        threads in 1usize..=8,
        heavy in 0usize..300,
    ) {
        // Items from `heavy` on cost ~100x the others.
        let f = |i: usize, &x: &u64| {
            let rounds = if i >= heavy { 2_000u64 } else { 20 };
            (0..rounds).fold(x, |a, b| a.rotate_left(7) ^ b.wrapping_mul(31)) ^ i as u64
        };
        let pool = Pool::new(threads);
        let watchdog = WatchdogConfig::default();
        // The empty and one-item prefixes pin the serial short-circuit.
        for items in [&items[..0], &items[..items.len().min(1)], &items[..]] {
            let plain = pool.map(items, f);
            let serial: Vec<u64> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
            prop_assert_eq!(&plain, &serial);
            let (supervised, report) = pool.map_watchdog(items, &watchdog, f).unwrap();
            prop_assert_eq!(supervised, plain);
            let clean = RunReport {
                items: items.len() as u64,
                deadline_ms: watchdog.deadline.as_millis() as u64,
                ..RunReport::default()
            };
            prop_assert_eq!(report, clean);
        }
    }
}

/// Cache consistency against live traces costs a corpus build, so it runs
/// once over a grid instead of inside proptest's case loop.
#[test]
fn cache_serves_exactly_the_uncached_projection() {
    use rhmd_data::{Corpus, CorpusConfig, TracedCorpus};
    use rhmd_uarch::CoreConfig;

    let config = CorpusConfig::tiny();
    let traced = TracedCorpus::trace(Corpus::build(&config), config.limits(), CoreConfig::default());
    let cache = FeatureCache::new();
    for kind in FeatureKind::ALL {
        for period in [5_000u32, 10_000] {
            let spec = FeatureSpec::new(kind, period, vec![]);
            for program in 0..traced.corpus().len().min(6) {
                // Ask twice: a miss then a hit; both must equal the direct path.
                let direct = project_windows(traced.subwindows(program), &spec);
                for _ in 0..2 {
                    let cached = cache.vectors(&traced, program, &spec);
                    assert_eq!(cached.len(), direct.len(), "{kind} @{period} program {program}");
                    assert!(
                        cached.iter().eq(direct.iter().map(|v| v.as_slice())),
                        "{kind} @{period} program {program}"
                    );
                }
            }
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.hits, stats.misses, "every key asked exactly twice");
    assert!(stats.entries > 0);
}
