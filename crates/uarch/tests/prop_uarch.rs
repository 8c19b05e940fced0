//! Property-based tests of the microarchitecture model.

use proptest::prelude::*;
use rhmd_uarch::branch::{Btb, GsharePredictor};
use rhmd_uarch::cache::{Cache, CacheConfig};
use rhmd_uarch::events::CounterSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Misses never exceed accesses, and an immediate re-access always hits.
    #[test]
    fn cache_hit_after_access(addrs in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut cache = Cache::new(CacheConfig::l1_32k());
        for &a in &addrs {
            cache.access(a);
            prop_assert!(cache.access(a), "address {a:#x} should hit after access");
        }
        prop_assert!(cache.misses <= cache.accesses);
        prop_assert!((0.0..=1.0).contains(&cache.miss_rate()));
    }

    /// A working set that fits in one way-set never misses after warm-up.
    #[test]
    fn small_working_set_has_no_steady_misses(start in 0u64..1_000_000) {
        let mut cache = Cache::new(CacheConfig::l1_32k());
        let lines: Vec<u64> = (0..4).map(|i| (start + i * 64) & !63).collect();
        for &l in &lines {
            cache.access(l);
        }
        let warm_misses = cache.misses;
        for _ in 0..10 {
            for &l in &lines {
                cache.access(l);
            }
        }
        prop_assert_eq!(cache.misses, warm_misses);
    }

    /// Range accesses incur at most two misses.
    #[test]
    fn range_access_bounds(addr in 0u64..1_000_000, size in 1u8..16) {
        let mut cache = Cache::new(CacheConfig::l1_32k());
        let misses = cache.access_range(addr, size);
        prop_assert!(misses <= 2);
        prop_assert_eq!(cache.access_range(addr, size), 0);
    }

    /// The predictor's misprediction count never exceeds predictions, and a
    /// deterministic branch is eventually learned.
    #[test]
    fn predictor_sanity(pc in 0u64..1_000_000, taken in any::<bool>()) {
        let mut p = GsharePredictor::new(10);
        for _ in 0..200 {
            p.predict_and_update(pc, taken);
        }
        prop_assert!(p.mispredictions <= p.predictions);
        let before = p.mispredictions;
        for _ in 0..50 {
            p.predict_and_update(pc, taken);
        }
        prop_assert_eq!(p.mispredictions, before, "steady-state mispredictions");
    }

    /// BTB: a stable (pc → target) pair hits from the second lookup on.
    #[test]
    fn btb_stabilizes(pc in 0u64..1_000_000, target in 0u64..1_000_000) {
        let mut btb = Btb::new(64);
        btb.lookup_and_update(pc, target);
        for _ in 0..5 {
            prop_assert!(btb.lookup_and_update(pc, target));
        }
    }

    /// Counter arithmetic: add then subtract is the identity, and rates are
    /// finite.
    #[test]
    fn counter_arithmetic(
        a in 0u32..1_000_000, b in 0u32..1_000_000, c in 0u32..1_000_000,
    ) {
        let x = CounterSet { instructions: a.max(1), loads: b, mispredicts: c, ..CounterSet::default() };
        let y = CounterSet { instructions: b, dcache_misses: a, ..CounterSet::default() };
        prop_assert_eq!(x.checked_add(&y).unwrap() - y, x);
        let rates = rhmd_uarch::events::rates(&x.to_array().map(u64::from));
        prop_assert!(rates.iter().all(|r| r.is_finite()));
        prop_assert_eq!(rates[0], 1.0);
    }
}
