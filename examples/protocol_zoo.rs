//! Protocol zoo: every ordered pairing of paper §2's write-back protocols.
//!
//! For each pair (P1, P2) of MEI/MSI/MESI/MOESI this example prints the
//! reduced system protocol and P1's derived wrapper policy, then *runs*
//! the four-step sequence of the paper's Tables 2 and 3 on one shared
//! line (P1 reads, P2 reads, P2 writes, P1 reads) twice: once with
//! transparent (naive) wrappers, once with the paper's policies. The
//! stale reads it counts are the ones the wrappers eliminate.
//!
//! Run with: `cargo run --release --example protocol_zoo`

use hmp::cache::ProtocolKind;
use hmp::core::{derive_policy, reduce};
use hmp::cpu::{LockKind, LockLayout, ProgramBuilder};
use hmp::platform::{layout, CpuSpec, PlatformSpec, Strategy, System, WrapperMode};

/// Runs the Tables 2–3 sequence and returns the stale reads it saw.
fn violations(p1: ProtocolKind, p2: ProtocolKind, mode: WrapperMode) -> usize {
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
    sys.run(10_000).violations.len()
}

fn main() {
    println!(
        "{:<7} {:<7} {:<7} {:<9} {:<9} P1 wrapper policy",
        "P1", "P2", "system", "naive", "wrapped"
    );
    let mut stale = Vec::new();
    for p1 in ProtocolKind::WRITE_BACK {
        for p2 in ProtocolKind::WRITE_BACK {
            let system = reduce(&[p1, p2]).expect("valid pair");
            let naive = violations(p1, p2, WrapperMode::Transparent);
            let wrapped = violations(p1, p2, WrapperMode::Paper);
            println!(
                "{:<7} {:<7} {:<7} {:<9} {:<9} {}",
                p1.to_string(),
                p2.to_string(),
                system.to_string(),
                format!("{naive} stale"),
                format!("{wrapped} stale"),
                derive_policy(p1, system)
            );
            assert_eq!(wrapped, 0, "paper wrappers must be coherent for {p1}+{p2}");
            if naive > 0 {
                stale.push(format!("{p1}+{p2}"));
            }
        }
    }
    assert!(!stale.is_empty(), "some naive pairing must read stale data");
    println!("\nEvery pairing is coherent under the derived wrapper policies.");
    println!("Integrated naively, these read stale data, as in the paper's Tables 2 and 3:");
    println!("  {}", stale.join(", "));
}
