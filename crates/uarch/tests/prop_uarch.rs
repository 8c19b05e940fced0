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
        let (mut accesses, mut misses) = (0u64, 0u64);
        for &a in &addrs {
            misses += u64::from(!cache.access(a));
            let hit = cache.access(a);
            prop_assert!(hit, "address {a:#x} should hit after access");
            misses += u64::from(!hit);
            accesses += 2;
        }
        prop_assert!(misses <= accesses);
        prop_assert!((0.0..=1.0).contains(&(misses as f64 / accesses as f64)));
    }

    /// A working set that fits in one way-set never misses after warm-up.
    #[test]
    fn small_working_set_has_no_steady_misses(start in 0u64..1_000_000) {
        let mut cache = Cache::new(CacheConfig::l1_32k());
        let lines: Vec<u64> = (0..4).map(|i| (start + i * 64) & !63).collect();
        for &l in &lines {
            cache.access(l);
        }
        let mut steady_misses = 0u64;
        for _ in 0..10 {
            for &l in &lines {
                steady_misses += u64::from(!cache.access(l));
            }
        }
        prop_assert_eq!(steady_misses, 0);
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
        let warmup = (0..200).filter(|_| !p.predict_and_update(pc, taken)).count();
        prop_assert!(warmup <= 200);
        let steady = (0..50).filter(|_| !p.predict_and_update(pc, taken)).count();
        prop_assert_eq!(steady, 0, "steady-state mispredictions");
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
