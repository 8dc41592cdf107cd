//! Host-speed normalisation of the benchmark's host times.
//!
//! The benchmark runs on shared machines. A neighbour's load slows the
//! simulator by up to 1.8× for tens of seconds at a time: longer than a
//! pass, and often longer than a whole run, so no median inside a run
//! removes it. A fixed reference batch is therefore timed between
//! passes, or between jobs while the daemon is idle. It has the two
//! kinds of work the simulator does: a cycle-by-cycle model of cores
//! sharing a bus, with predictable branches, and a MESI cache model over
//! a random access trace. It lives here, frozen, and calls nothing in the
//! workspace crates, so it slows with the host and never with the code
//! under test. Each pass's or job's host times are scaled by
//! the host's speed around it. A change to the program still moves the
//! figures in full; a slow spell on the host mostly does not.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one reference batch takes on the host the benchmark's figures
/// are normalised to: a 2-vCPU shared Xeon virtual machine in a quiet
/// phase. A normalised host time is the time the same work would take
/// there.
pub const REFERENCE_S: f64 = 0.0155;

/// Bus cycles of the cycle model in one reference batch.
const BATCH_CYCLES: u64 = 1_000_000;

/// Accesses of the cache model in one reference batch.
const BATCH_ACCESSES: u64 = 400_000;

/// Samples taken between two probes by [`normalised_samples`].
const SAMPLES_PER_PROBE: usize = 25;

const CORES: usize = 4;
const CACHES: usize = 4;
const SETS: usize = 128;
const WAYS: usize = 4;
/// Distinct lines the trace touches: four times what one cache holds.
const LINES: u64 = (SETS * WAYS * 4) as u64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Invalid,
    Shared,
    Exclusive,
    Modified,
}

/// One core of the cycle model.
#[derive(Debug, Clone, Copy)]
struct Core {
    pc: usize,
    acc: u64,
    stalled: bool,
}

/// Steps four cores through a fixed 64-instruction program for `cycles`
/// cycles. A bus instruction waits for its round-robin turn on an idle
/// bus, holds it for a 4–7 cycle burst and stalls its core until the
/// burst ends. Returns a fold of the final state.
fn cycle_model(cycles: u64) -> u64 {
    let program: Vec<(u8, u32)> = (0..64u32)
        .map(|i| ((i * 7 % 5) as u8, i * 13 % 29))
        .collect();
    let mut cores = [Core {
        pc: 0,
        acc: 1,
        stalled: false,
    }; CORES];
    let mut memory = vec![0u64; 4096];
    let mut owner: Option<usize> = None;
    let mut burst_left = 0u32;
    let mut turn = 0usize;
    let mut grants = 0u64;
    for cycle in 0..cycles {
        if burst_left > 0 {
            burst_left -= 1;
            if burst_left == 0 {
                if let Some(o) = owner.take() {
                    cores[o].stalled = false;
                }
            }
        }
        for (k, core) in cores.iter_mut().enumerate() {
            if core.stalled {
                continue;
            }
            let (op, arg) = program[core.pc];
            match op {
                0 | 1 => core.acc = core.acc.wrapping_add(u64::from(arg) ^ cycle),
                2 => core.acc = core.acc.rotate_left(arg % 63),
                3 => {
                    let at = (core.acc as usize + k * 1024) % memory.len();
                    memory[at] = memory[at].wrapping_add(core.acc);
                }
                _ if owner.is_none() && turn == k => {
                    owner = Some(k);
                    burst_left = 4 + arg % 4;
                    grants += 1;
                    core.stalled = true;
                }
                _ => continue,
            }
            core.pc = (core.pc + 1) % program.len();
        }
        turn = (turn + 1) % CORES;
    }
    cores.iter().fold(grants ^ memory[17], |x, c| x ^ c.acc)
}

/// Runs `accesses` seeded loads and stores through four snooping MESI
/// caches and returns the bus transactions they caused.
fn cache_model(accesses: u64) -> u64 {
    let mut tags = vec![[u32::MAX; WAYS]; CACHES * SETS];
    let mut states = vec![[State::Invalid; WAYS]; CACHES * SETS];
    let mut victims = vec![0usize; CACHES * SETS];
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut bus = 0u64;
    for _ in 0..accesses {
        // A fixed LCG rather than the workspace's generator, so nothing
        // the program defines changes the reference's work.
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let r = x >> 33;
        let cpu = (r & 3) as usize;
        let line = ((r >> 2) % LINES) as u32;
        let store = (r >> 16) & 7 == 0;
        let set = line as usize % SETS;
        let tag = line / SETS as u32;
        let find =
            |tags: &[[u32; WAYS]], c: usize| tags[c * SETS + set].iter().position(|&t| t == tag);
        let own = cpu * SETS + set;
        match find(&tags, cpu).filter(|&w| states[own][w] != State::Invalid) {
            Some(w) => {
                if store && states[own][w] != State::Modified {
                    bus += 1;
                    states[own][w] = State::Modified;
                    for other in (0..CACHES).filter(|&c| c != cpu) {
                        if let Some(w2) = find(&tags, other) {
                            states[other * SETS + set][w2] = State::Invalid;
                        }
                    }
                }
            }
            None => {
                bus += 1;
                let mut shared = false;
                for other in (0..CACHES).filter(|&c| c != cpu) {
                    let Some(w2) = find(&tags, other) else {
                        continue;
                    };
                    let s = &mut states[other * SETS + set][w2];
                    if *s == State::Invalid {
                        continue;
                    }
                    if *s == State::Modified {
                        bus += 1;
                    }
                    *s = if store { State::Invalid } else { State::Shared };
                    shared = true;
                }
                let w = victims[own];
                victims[own] = (w + 1) % WAYS;
                if states[own][w] == State::Modified {
                    bus += 1;
                }
                tags[own][w] = tag;
                states[own][w] = match (store, shared) {
                    (true, _) => State::Modified,
                    (false, true) => State::Shared,
                    (false, false) => State::Exclusive,
                };
            }
        }
    }
    bus
}

/// Reference batches timed between passes or jobs.
pub struct HostSpeed {
    probes: Vec<f64>,
}

impl HostSpeed {
    /// Starts with one timed batch, which opens the first interval.
    pub fn new() -> Self {
        let mut speed = HostSpeed { probes: Vec::new() };
        speed.probe();
        speed
    }

    /// Times one reference batch, closing the current interval and
    /// opening the next.
    pub fn probe(&mut self) {
        let t = Instant::now();
        black_box(cycle_model(black_box(BATCH_CYCLES)));
        black_box(cache_model(black_box(BATCH_ACCESSES)));
        self.probes.push(t.elapsed().as_secs_f64());
    }

    /// The interval now open, between the latest probe and the
    /// next.
    pub fn open_interval(&self) -> usize {
        self.probes.len() - 1
    }

    /// The host's speed during interval `i`, relative to the reference
    /// host: [`REFERENCE_S`] over the mean of the two batches around it.
    /// Below 1 the host ran slower than the reference host.
    ///
    /// # Panics
    ///
    /// Panics unless interval `i` has been closed by a probe.
    pub fn speed(&self, i: usize) -> f64 {
        2.0 * REFERENCE_S / (self.probes[i] + self.probes[i + 1])
    }

    /// Speeds of every closed interval, in order.
    pub fn speeds(&self) -> Vec<f64> {
        (0..self.probes.len() - 1).map(|i| self.speed(i)).collect()
    }
}

/// Takes `n` timings in seconds from `sample`, probing the host after
/// every [`SAMPLES_PER_PROBE`] of them, and returns each timing scaled by
/// the host's speed around it.
pub fn normalised_samples<E>(
    n: usize,
    mut sample: impl FnMut() -> Result<f64, E>,
) -> Result<Vec<f64>, E> {
    let mut host = HostSpeed::new();
    let mut raw = Vec::with_capacity(n);
    for chunk in 0..n.div_ceil(SAMPLES_PER_PROBE) {
        let len = SAMPLES_PER_PROBE.min(n - chunk * SAMPLES_PER_PROBE);
        for _ in 0..len {
            raw.push((chunk, sample()?));
        }
        host.probe();
    }
    Ok(raw.into_iter().map(|(i, s)| s * host.speed(i)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_kernel_does_fixed_work() {
        // Pinned, so an edit that changes the reference's work shows.
        assert_eq!(cache_model(10_000), 9_223);
        assert!(cache_model(20_000) > cache_model(10_000));
        assert_eq!(cycle_model(10_000), 12_794_321_452_297_365_774);
        assert_ne!(cycle_model(10_000), cycle_model(10_001));
    }

    #[test]
    fn speed_is_the_reference_time_over_the_bracketing_probes() {
        let speed = HostSpeed {
            probes: vec![REFERENCE_S, 3.0 * REFERENCE_S, REFERENCE_S],
        };
        assert_eq!(speed.speeds(), vec![0.5, 0.5]);
        let fresh = HostSpeed::new();
        assert_eq!(fresh.probes.len(), 1);
        assert!(fresh.speeds().is_empty());
    }

    #[test]
    fn normalised_samples_keep_count_and_order() {
        let mut next = 0.0;
        let samples = normalised_samples::<()>(SAMPLES_PER_PROBE + 3, || {
            next += 1.0;
            Ok(next)
        })
        .unwrap();
        assert_eq!(samples.len(), SAMPLES_PER_PROBE + 3);
        assert!(samples
            .windows(2)
            .take(SAMPLES_PER_PROBE - 1)
            .all(|w| w[0] < w[1]));
        assert_eq!(
            normalised_samples(3, || Err::<f64, _>("broken")),
            Err("broken")
        );
    }
}
