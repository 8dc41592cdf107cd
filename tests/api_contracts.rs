//! API-level contracts: thread-safety markers and facade re-exports.

use hmp::bus::{Bus, BusStats, LockRegister};
use hmp::cache::{DataCache, LineState, ProtocolKind};
use hmp::core::{SnoopLogic, Wrapper, WrapperPolicy};
use hmp::cpu::{Cpu, Program};
use hmp::mem::{Addr, LatencyModel, Memory, MemoryMap};
use hmp::platform::{PlatformSpec, Report, RunResult, System};
use hmp::sim::{CounterBank, MetricsObserver, SpanTracker, SplitMix64, Watchdog};
use hmp::workloads::Runner;

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}

/// Simulation state can be moved to worker threads (e.g. a parameter
/// sweep fanned out with `std::thread`) — everything is `Send`…
#[test]
fn simulation_types_are_send() {
    assert_send::<Bus>();
    assert_send::<BusStats>();
    assert_send::<LockRegister>();
    assert_send::<DataCache>();
    assert_send::<SnoopLogic>();
    assert_send::<Wrapper>();
    assert_send::<Cpu>();
    assert_send::<Program>();
    assert_send::<Memory>();
    assert_send::<MemoryMap>();
    assert_send::<PlatformSpec>();
    assert_send::<RunResult>();
    assert_send::<Report>();
    assert_send::<SplitMix64>();
    assert_send::<CounterBank>();
    assert_send::<SpanTracker>();
    assert_send::<MetricsObserver>();
    assert_send::<Watchdog>();
    assert_send::<System>();
    assert_send::<Runner>();
}

/// …and the plain-data types are `Sync` too.
#[test]
fn data_types_are_sync() {
    assert_sync::<Addr>();
    assert_sync::<LineState>();
    assert_sync::<ProtocolKind>();
    assert_sync::<LatencyModel>();
    assert_sync::<WrapperPolicy>();
    assert_sync::<BusStats>();
    assert_sync::<RunResult>();
    assert_sync::<CounterBank>();
}

/// The facade exposes every subsystem under its expected module name.
#[test]
fn facade_module_paths_resolve() {
    // Compilation of the `use` items above is the real assertion; a few
    // spot values keep the test observable.
    assert_eq!(ProtocolKind::ALL.len(), 5);
    assert_eq!(LatencyModel::TABLE4.line_burst().as_u64(), 13);
    assert_eq!(Addr::new(0x20).line_base(), Addr::new(0x20));
}

/// Parameter sweeps really can fan out across threads.
#[test]
fn runs_parallelise_across_threads() {
    use hmp::platform::Strategy;
    use hmp::workloads::{run, MicrobenchParams, RunSpec, Scenario};
    let handles: Vec<_> = [1u32, 2, 4]
        .into_iter()
        .map(|lines| {
            std::thread::spawn(move || {
                let params = MicrobenchParams {
                    lines_per_iter: lines,
                    outer_iters: 2,
                    ..Default::default()
                };
                run(&RunSpec::new(Scenario::Worst, Strategy::Proposed, params)).cycles_u64()
            })
        })
        .collect();
    let cycles: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(cycles[0] < cycles[1] && cycles[1] < cycles[2]);
}
