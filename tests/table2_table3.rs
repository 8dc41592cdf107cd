//! Integration reproduction of paper Tables 2 and 3.
//!
//! The four-step sequence (P1 reads, P2 reads, P2 writes, P1 reads) on one
//! shared line must read stale data under naive integration and stay
//! coherent under the paper's wrappers — with the exact intermediate line
//! states the tables print.

use hmp::cache::{LineState, ProtocolKind};
use hmp::cpu::{LockKind, LockLayout, ProgramBuilder};
use hmp::mem::Addr;
use hmp::platform::{layout, CpuSpec, PlatformSpec, RunOutcome, Strategy, System, WrapperMode};

struct Trace {
    /// (P1 state, P2 state) sampled after steps a–d.
    states: Vec<(LineState, LineState)>,
    violations: usize,
    final_p1_value: Option<u32>,
}

/// Runs the table's op sequence and samples line states after each step.
fn run_sequence(p1: ProtocolKind, p2: ProtocolKind, mode: WrapperMode) -> Trace {
    let (lay, map) = layout(2, Strategy::Proposed, LockKind::Turn, false);
    let lock = LockLayout::new(LockKind::Turn, lay.lock_base, 2);
    let mut spec = PlatformSpec::new(
        vec![CpuSpec::generic("P1", p1), CpuSpec::generic("P2", p2)],
        map,
        lock,
    );
    spec.wrapper_mode = mode;
    let c = lay.shared_base;
    let prog1 = ProgramBuilder::new().read(c).delay(600).read(c).build();
    let prog2 = ProgramBuilder::new()
        .delay(200)
        .read(c)
        .delay(150)
        .write(c, 0xAB)
        .build();
    let mut sys = System::new(&spec, vec![prog1, prog2]);
    sys.poke_word(c, 0x11);

    let state =
        |sys: &System, cpu: usize| sys.cache(cpu).line_state(c).unwrap_or(LineState::Invalid);
    let mut states = Vec::new();
    for sample_at in [100u64, 300, 500, 800] {
        while sys.now().as_u64() < sample_at {
            sys.step();
        }
        states.push((state(&sys, 0), state(&sys, 1)));
    }
    let result = sys.run(10_000);
    assert_eq!(result.outcome, RunOutcome::Completed);
    Trace {
        states,
        violations: result.violations.len(),
        final_p1_value: sys.cache(0).peek_word(Addr::new(c.as_u32())),
    }
}

#[test]
fn table2_naive_mei_mesi_reads_stale() {
    use LineState::*;
    let t = run_sequence(
        ProtocolKind::Mesi,
        ProtocolKind::Mei,
        WrapperMode::Transparent,
    );
    // The table's exact state walk:
    //   a: P1 E / P2 I;  b: P1 S / P2 E;  c: P1 S (stale) / P2 M;  d: same.
    assert_eq!(
        t.states,
        vec![
            (Exclusive, Invalid),
            (Shared, Exclusive),
            (Shared, Modified),
            (Shared, Modified)
        ]
    );
    assert!(t.violations > 0, "transaction d must read stale data");
    assert_eq!(
        t.final_p1_value,
        Some(0x11),
        "P1 keeps the stale pre-write value"
    );
}

#[test]
fn table2_wrapped_mei_mesi_is_coherent() {
    use LineState::*;
    let t = run_sequence(ProtocolKind::Mesi, ProtocolKind::Mei, WrapperMode::Paper);
    // With read→write conversion the S state never appears (paper §2.1):
    //   a: P1 E / P2 I;  b: P1 I / P2 E;  c: P1 I / P2 M;  d: P1 E / P2 I.
    assert_eq!(
        t.states,
        vec![
            (Exclusive, Invalid),
            (Invalid, Exclusive),
            (Invalid, Modified),
            (Exclusive, Invalid)
        ]
    );
    assert_eq!(t.violations, 0);
    assert_eq!(t.final_p1_value, Some(0xAB), "P1 sees P2's write");
}

#[test]
fn table3_naive_msi_mesi_reads_stale() {
    use LineState::*;
    let t = run_sequence(
        ProtocolKind::Msi,
        ProtocolKind::Mesi,
        WrapperMode::Transparent,
    );
    // Table 3: P1 (MSI) cannot assert the shared signal, so P2 (MESI)
    // fills E at step b and writes silently at step c.
    assert_eq!(
        t.states,
        vec![
            (Shared, Invalid),
            (Shared, Exclusive),
            (Shared, Modified),
            (Shared, Modified)
        ]
    );
    assert!(t.violations > 0);
    assert_eq!(t.final_p1_value, Some(0x11));
}

#[test]
fn table3_wrapped_msi_mesi_is_coherent() {
    use LineState::*;
    let t = run_sequence(ProtocolKind::Msi, ProtocolKind::Mesi, WrapperMode::Paper);
    // The wrapper forces the shared signal: P2 fills S at step b, pays an
    // upgrade at step c (invalidating P1), and P1 re-fetches at step d.
    assert_eq!(t.states[0], (Shared, Invalid));
    assert_eq!(
        t.states[1],
        (Shared, Shared),
        "E state removed (paper §2.2)"
    );
    assert_eq!(t.states[2], (Invalid, Modified), "upgrade invalidated P1");
    assert_eq!(t.violations, 0);
    assert_eq!(t.final_p1_value, Some(0xAB));
}

/// Every ordered pair of write-back protocols through the same sequence.
/// The paper's wrappers keep each one coherent. Naive integration reads
/// stale exactly where P1 keeps a copy while P2 fills E and then stores
/// silently: P1 is MSI, which cannot assert the shared signal, or P2 is
/// MEI, which ignores it. An MEI P1 gives its copy up on P2's read.
#[test]
fn every_ordered_pair_in_both_wrapper_modes() {
    use ProtocolKind::*;
    let stale = [
        (Msi, Mei),
        (Msi, Mesi),
        (Msi, Moesi),
        (Mesi, Mei),
        (Moesi, Mei),
    ];
    for p1 in ProtocolKind::WRITE_BACK {
        for p2 in ProtocolKind::WRITE_BACK {
            let wrapped = run_sequence(p1, p2, WrapperMode::Paper);
            assert_eq!(wrapped.violations, 0, "{p1}+{p2} wrapped must be coherent");
            assert_eq!(wrapped.final_p1_value, Some(0xAB), "{p1}+{p2}");
            let naive = run_sequence(p1, p2, WrapperMode::Transparent);
            let reads_stale = naive.violations > 0;
            assert_eq!(reads_stale, stale.contains(&(p1, p2)), "{p1}+{p2} naive");
        }
    }
}
