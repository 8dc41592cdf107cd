//! Property-based tests for the simulation kernel.

// QUARANTINED (PR 1): these property tests depend on the `proptest` crate,
// which the offline build environment cannot fetch (empty cargo registry, no
// network). Enable the `proptests` feature after restoring the `proptest`
// dev-dependency to run them. Tracking: CHANGES.md (PR 1).
#![cfg(feature = "proptests")]

use hmp_sim::{ClockDomain, CoreCycle, Cycle, SplitMix64, Watchdog, WatchdogVerdict};
use proptest::prelude::*;

proptest! {
    #[test]
    fn gen_range_is_always_in_bounds(seed in any::<u64>(), bound in 1u64..10_000) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.gen_range(bound) < bound);
        }
    }

    #[test]
    fn equal_seeds_equal_streams(seed in any::<u64>()) {
        let mut a = SplitMix64::new(seed);
        let mut b = SplitMix64::new(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn split_streams_do_not_collide_early(seed in any::<u64>()) {
        let mut parent = SplitMix64::new(seed);
        let mut c1 = parent.split();
        let mut c2 = parent.split();
        let s1: Vec<u64> = (0..8).map(|_| c1.next_u64()).collect();
        let s2: Vec<u64> = (0..8).map(|_| c2.next_u64()).collect();
        prop_assert_ne!(s1, s2);
    }

    #[test]
    fn clock_domain_round_trip(mult in 1u32..8, bus in 0u64..100_000) {
        let dom = ClockDomain::new(mult);
        let core = dom.to_core(Cycle::new(bus));
        prop_assert_eq!(dom.to_bus_ceil(core), Cycle::new(bus));
        // Ceil rounding never loses time.
        let odd = CoreCycle::new(core.as_u64() + 1);
        prop_assert!(dom.to_bus_ceil(odd) >= Cycle::new(bus));
    }

    #[test]
    fn watchdog_trips_iff_window_elapses(
        window in 1u64..100,
        quiet in 0u64..200,
    ) {
        let mut dog = Watchdog::new(Cycle::new(window));
        dog.poll(Cycle::new(0), 0);
        let verdict = dog.poll(Cycle::new(quiet), 0);
        prop_assert_eq!(
            verdict == WatchdogVerdict::Stalled,
            quiet >= window,
            "window {}, quiet {}",
            window,
            quiet
        );
    }

    #[test]
    fn watchdog_never_trips_with_steady_progress(
        window in 1u64..50,
        steps in 1u64..300,
    ) {
        let mut dog = Watchdog::new(Cycle::new(window));
        for t in 0..steps {
            prop_assert_eq!(dog.poll(Cycle::new(t), t), WatchdogVerdict::Healthy);
        }
    }
}
