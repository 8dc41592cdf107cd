//! Streaming windowed time series with bounded memory.
//!
//! The end-of-run totals in [`crate::MetricsSnapshot`] answer *how much*;
//! this module answers *when*. A [`MetricsRegistry`] slices simulated
//! time into fixed-width cycle windows and accumulates one counter per
//! window per channel: bus busy cycles, per-master grants, per-segment
//! occupancy, bridge crossings, retries, quarantines, completions, and
//! the kernel's warp/cpu-only/full-step mix. Everything is preallocated
//! at construction and the hot path is integer adds into a flat array —
//! a run with telemetry armed stays allocation-free in steady state.
//!
//! # Decimation by merging
//!
//! The registry holds at most `capacity` windows per channel. When a run
//! outlives `capacity × window` cycles, adjacent window pairs are merged
//! in place (counts sum) and the effective window width doubles — so an
//! arbitrarily long run always fits in O(capacity) memory and every
//! sample still covers an exact, aligned cycle range. The number of
//! doublings applied is exposed as the snapshot's `scale`.
//!
//! Every decision the registry makes depends only on the cycle stamps it
//! is fed, never on wall time or kernel strategy: the fast-forward
//! kernel bulk-records warped data phases with [`MetricsRegistry::add_span`],
//! which distributes cycles across window boundaries exactly as the step
//! kernel's per-cycle adds would — so the two kernels produce
//! byte-identical [`TimeSeriesSnapshot`]s.

use crate::event::{Observer, SimEvent};
use crate::kernel::Kernel;
use crate::Cycle;
use std::fmt::Write as _;

/// Fixed channel: bus busy cycles (grant cycles + data cycles).
const CH_BUSY: usize = 0;
/// Fixed channel: retried (ARTRY'd) grants.
const CH_RETRIES: usize = 1;
/// Fixed channel: masters quarantined.
const CH_QUARANTINES: usize = 2;
/// Fixed channel: transactions whose data crossed the segment bridge.
const CH_BRIDGE: usize = 3;
/// Fixed channel: completed transactions.
const CH_COMPLETIONS: usize = 4;
/// Fixed channel (kernel mix): cycles skipped by warping.
const CH_WARPED: usize = 5;
/// Fixed channel (kernel mix): reduced CPU-only steps.
const CH_CPU_ONLY: usize = 6;
/// Fixed channel (kernel mix): full bus-cycle steps.
const CH_FULL: usize = 7;
/// Number of fixed channels before the per-master / per-segment blocks.
const FIXED_CHANNELS: usize = 8;

/// Configuration for the windowed telemetry registry.
///
/// `Copy` so it rides along [`RunSpec`-style](crate) builder types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeSeriesSpec {
    /// Base window width in bus cycles. Doubles on every decimation.
    pub window: u64,
    /// Maximum retained windows per channel (must be even and ≥ 2).
    pub capacity: usize,
}

impl Default for TimeSeriesSpec {
    fn default() -> Self {
        TimeSeriesSpec {
            window: 8192,
            capacity: 64,
        }
    }
}

impl TimeSeriesSpec {
    /// A spec with an explicit base window, keeping the default capacity.
    pub fn with_window(window: u64) -> Self {
        TimeSeriesSpec {
            window,
            ..Default::default()
        }
    }
}

/// Preallocated registry of windowed series, fed from the event stream
/// plus a few direct hooks (data-phase spans, bridge crossings, kernel
/// mix) the platform's cycle loop calls.
///
/// Channel layout is flat and channel-major: the fixed channels, then
/// one grants channel per master, then one occupancy channel per
/// segment.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    /// Base window width (cycles) before any decimation.
    window: u64,
    /// Retained windows per channel.
    capacity: usize,
    /// Decimation doublings applied so far.
    scale: u32,
    /// Closed windows currently held (`< capacity`).
    len: usize,
    /// Open-window accumulators, one per channel.
    cur: Box<[u64]>,
    /// Closed-window samples, channel-major: `data[c * capacity + i]`.
    data: Box<[u64]>,
    /// Master count (grants channels).
    masters: usize,
    /// Segment count (occupancy channels).
    segments: usize,
    /// Master → segment map (all zeros on a flat bus).
    segment_map: Box<[u8]>,
}

impl MetricsRegistry {
    /// Builds a registry for `masters` masters on `segments` bus
    /// segments. `segment_map` maps master index → segment (empty means
    /// a flat bus: every master on segment 0). All storage is allocated
    /// here; recording never allocates.
    ///
    /// # Panics
    ///
    /// Panics if the spec's window is zero or its capacity is odd or
    /// less than 2 (decimation halves the capacity, so it must be even).
    pub fn new(masters: usize, segments: usize, segment_map: &[u8], spec: TimeSeriesSpec) -> Self {
        assert!(spec.window > 0, "window width must be nonzero");
        assert!(
            spec.capacity >= 2 && spec.capacity.is_multiple_of(2),
            "capacity must be even and >= 2, got {}",
            spec.capacity
        );
        let channels = FIXED_CHANNELS + masters + segments.max(1);
        let mut map = vec![0u8; masters];
        for (i, s) in segment_map.iter().enumerate().take(masters) {
            map[i] = *s;
        }
        MetricsRegistry {
            window: spec.window,
            capacity: spec.capacity,
            scale: 0,
            len: 0,
            cur: vec![0; channels].into_boxed_slice(),
            data: vec![0; channels * spec.capacity].into_boxed_slice(),
            masters,
            segments: segments.max(1),
            segment_map: map.into_boxed_slice(),
        }
    }

    /// Zeroes every window and accumulator in place for reuse across
    /// runs: base window width restored (decimation undone), all samples
    /// cleared, every allocation kept.
    pub fn reset(&mut self) {
        self.scale = 0;
        self.len = 0;
        self.cur.fill(0);
        self.data.fill(0);
    }

    /// Total channel count.
    fn channels(&self) -> usize {
        self.cur.len()
    }

    /// Effective window width after decimation.
    fn eff_window(&self) -> u64 {
        self.window << self.scale
    }

    /// The segment a master drives (0 on a flat bus).
    fn segment_of(&self, master: usize) -> usize {
        usize::from(self.segment_map[master])
    }

    /// Closes windows until the open one covers cycle `at`, merging
    /// adjacent pairs whenever the ring fills.
    fn roll(&mut self, at: u64) {
        let channels = self.channels();
        loop {
            let eff = self.eff_window();
            if at < (self.len as u64 + 1) * eff {
                return;
            }
            for c in 0..channels {
                self.data[c * self.capacity + self.len] = self.cur[c];
                self.cur[c] = 0;
            }
            self.len += 1;
            if self.len == self.capacity {
                for c in 0..channels {
                    let base = c * self.capacity;
                    for i in 0..self.capacity / 2 {
                        self.data[base + i] = self.data[base + 2 * i] + self.data[base + 2 * i + 1];
                    }
                }
                self.scale += 1;
                self.len = self.capacity / 2;
            }
        }
    }

    /// Adds `v` to channel `ch` in the window covering cycle `at`.
    fn add(&mut self, ch: usize, at: u64, v: u64) {
        self.roll(at);
        self.cur[ch] += v;
    }

    /// Adds one count per cycle to channel `ch` over the half-open span
    /// `[from, from + count)`, splitting exactly at window boundaries —
    /// byte-identical to `count` single-cycle [`MetricsRegistry::add`]s.
    fn add_span(&mut self, ch: usize, mut from: u64, mut count: u64) {
        while count > 0 {
            self.roll(from);
            let open_end = (self.len as u64 + 1) * self.eff_window();
            let take = count.min(open_end - from);
            self.cur[ch] += take;
            from += take;
            count -= take;
        }
    }

    /// [`MetricsRegistry::add_span`] over several channels at once. The
    /// windowing state is shared across channels, so two sequential
    /// spans over the same range would mis-bucket the second (rolling is
    /// monotonic); one pass credits every channel per boundary split.
    fn add_span_multi(&mut self, chs: &[usize], mut from: u64, mut count: u64) {
        while count > 0 {
            self.roll(from);
            let open_end = (self.len as u64 + 1) * self.eff_window();
            let take = count.min(open_end - from);
            for &ch in chs {
                self.cur[ch] += take;
            }
            from += take;
            count -= take;
        }
    }

    /// Records `count` bus-busy data cycles starting at cycle `from`,
    /// attributed to `master`'s segment. Called by the platform for both
    /// the per-cycle data-phase step and the fast-forward kernel's bulk
    /// warp through a data phase.
    pub fn record_busy_span(&mut self, from: u64, count: u64, master: Option<usize>) {
        let seg = master.map_or(0, |m| self.segment_of(m));
        self.add_span_multi(&[CH_BUSY, FIXED_CHANNELS + self.masters + seg], from, count);
    }

    /// Records one transaction whose data crossed the segment bridge.
    pub fn record_bridge_crossing(&mut self, at: Cycle) {
        self.add(CH_BRIDGE, at.as_u64(), 1);
    }

    /// Total busy cycles recorded so far — closed windows plus the open
    /// bucket. A cheap read-only liveness probe (the allocation-freedom
    /// tests need to confirm traffic was recorded without taking a
    /// snapshot, which allocates its result vectors).
    pub fn recorded_busy(&self) -> u64 {
        let closed: u64 = self.data[CH_BUSY * self.capacity..CH_BUSY * self.capacity + self.len]
            .iter()
            .sum();
        closed + self.cur[CH_BUSY]
    }

    /// Decimation doublings applied so far (see [`TimeSeriesSnapshot::scale`]).
    pub fn scale(&self) -> u32 {
        self.scale
    }

    /// Records `cycles` warped (event-free, skipped) cycles starting at
    /// `from` in the kernel-mix series. When `busy` is set the bus was
    /// mid-data-phase for the whole window, so the same span also
    /// streams busy/occupancy cycles attributed to `master`'s segment —
    /// one pass, because the shared windowing state rolls monotonically.
    pub fn record_warp(&mut self, from: u64, cycles: u64, busy: bool, master: Option<usize>) {
        if busy {
            let seg = master.map_or(0, |m| self.segment_of(m));
            let occ = FIXED_CHANNELS + self.masters + seg;
            self.add_span_multi(&[CH_WARPED, CH_BUSY, occ], from, cycles);
        } else {
            self.add_span(CH_WARPED, from, cycles);
        }
    }

    /// Records one executed full bus-cycle step at `at`.
    pub fn record_full_step(&mut self, at: Cycle) {
        self.add(CH_FULL, at.as_u64(), 1);
    }

    /// Records one reduced CPU-only step at `at`.
    pub fn record_cpu_only_step(&mut self, at: Cycle) {
        self.add(CH_CPU_ONLY, at.as_u64(), 1);
    }

    /// Freezes the registry into an immutable snapshot covering cycles
    /// `0..=end`, closing any windows the clock ran past without events.
    /// The still-open window is included as the final (partial) sample.
    /// This is the run's only allocating telemetry call.
    pub fn snapshot(&mut self, end: Cycle) -> TimeSeriesSnapshot {
        self.roll(end.as_u64());
        let samples = self.len + 1;
        let series = |ch: usize| -> Vec<u64> {
            let mut v = Vec::with_capacity(samples);
            v.extend_from_slice(&self.data[ch * self.capacity..ch * self.capacity + self.len]);
            v.push(self.cur[ch]);
            v
        };
        TimeSeriesSnapshot {
            window: self.window,
            scale: self.scale,
            end_cycle: end.as_u64(),
            masters: self.masters,
            segments: self.segments,
            busy: series(CH_BUSY),
            retries: series(CH_RETRIES),
            quarantines: series(CH_QUARANTINES),
            bridge_crossings: series(CH_BRIDGE),
            completions: series(CH_COMPLETIONS),
            grants: (0..self.masters)
                .map(|m| series(FIXED_CHANNELS + m))
                .collect(),
            occupancy: (0..self.segments)
                .map(|s| series(FIXED_CHANNELS + self.masters + s))
                .collect(),
        }
    }

    /// Freezes the kernel-mix channels (warped / cpu-only / full-step
    /// counts per window). Split out of [`MetricsRegistry::snapshot`]
    /// because the mix is *kernel-dependent* by construction and must not
    /// take part in kernel-equivalence comparison.
    pub fn snapshot_mix(&mut self, end: Cycle) -> KernelMix {
        self.roll(end.as_u64());
        let samples = self.len + 1;
        let series = |ch: usize| -> Vec<u64> {
            let mut v = Vec::with_capacity(samples);
            v.extend_from_slice(&self.data[ch * self.capacity..ch * self.capacity + self.len]);
            v.push(self.cur[ch]);
            v
        };
        KernelMix {
            warped: series(CH_WARPED),
            cpu_only: series(CH_CPU_ONLY),
            full: series(CH_FULL),
        }
    }
}

impl Observer for MetricsRegistry {
    #[inline]
    fn on_event(&mut self, at: Cycle, event: SimEvent) {
        let t = at.as_u64();
        match event {
            SimEvent::BusGrant { master, .. } => {
                // A grant occupies the bus for its cycle: it counts
                // toward utilization exactly as BusStats does
                // (grants + data_cycles).
                self.add(CH_BUSY, t, 1);
                self.add(FIXED_CHANNELS + master, t, 1);
                let seg = self.segment_of(master);
                self.add(FIXED_CHANNELS + self.masters + seg, t, 1);
            }
            SimEvent::BusRetry { .. } => self.add(CH_RETRIES, t, 1),
            SimEvent::BusComplete { .. } => self.add(CH_COMPLETIONS, t, 1),
            SimEvent::MasterQuarantined { .. } => self.add(CH_QUARANTINES, t, 1),
            _ => {}
        }
    }
}

/// An immutable end-of-run view of every *deterministic* windowed series.
///
/// Two kernels running the same spec must produce equal snapshots — this
/// type takes part in [`PartialEq`] on run results, unlike
/// [`KernelProfile`].
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesSnapshot {
    /// Base window width in cycles (before decimation).
    pub window: u64,
    /// Decimation doublings applied; effective width is `window << scale`.
    pub scale: u32,
    /// Last simulated cycle the snapshot covers.
    pub end_cycle: u64,
    /// Master count (length of `grants`).
    pub masters: usize,
    /// Segment count (length of `occupancy`).
    pub segments: usize,
    /// Bus busy cycles (grant + data) per window.
    pub busy: Vec<u64>,
    /// Retried grants per window.
    pub retries: Vec<u64>,
    /// Quarantine events per window.
    pub quarantines: Vec<u64>,
    /// Bridge-crossing transactions per window.
    pub bridge_crossings: Vec<u64>,
    /// Completed transactions per window.
    pub completions: Vec<u64>,
    /// Grants per window, one series per master.
    pub grants: Vec<Vec<u64>>,
    /// Busy cycles per window, one series per segment.
    pub occupancy: Vec<Vec<u64>>,
}

impl TimeSeriesSnapshot {
    /// Effective window width after decimation.
    pub fn effective_window(&self) -> u64 {
        self.window << self.scale
    }

    /// Number of samples in every series (the last one may be partial).
    pub fn samples(&self) -> usize {
        self.busy.len()
    }

    /// First cycle window `i` covers.
    pub fn window_start(&self, i: usize) -> u64 {
        i as u64 * self.effective_window()
    }

    /// Cycles window `i` actually covers (the final window is clipped to
    /// the run's end).
    pub fn window_width(&self, i: usize) -> u64 {
        let start = self.window_start(i);
        (start + self.effective_window())
            .min(self.end_cycle + 1)
            .saturating_sub(start)
            .max(1)
    }

    /// Bus utilization in window `i`: busy cycles over the window width.
    pub fn utilization(&self, i: usize) -> f64 {
        self.busy[i] as f64 / self.window_width(i) as f64
    }

    /// Per-master grant shares within window `i`; all zeros if the
    /// window saw no grants.
    pub fn grant_shares(&self, i: usize) -> Vec<f64> {
        let total: u64 = self.grants.iter().map(|g| g[i]).sum();
        if total == 0 {
            return vec![0.0; self.masters];
        }
        self.grants
            .iter()
            .map(|g| g[i] as f64 / total as f64)
            .collect()
    }

    /// Total grants inside window `i` across all masters.
    pub fn window_grants(&self, i: usize) -> u64 {
        self.grants.iter().map(|g| g[i]).sum()
    }

    /// Sum of a whole series (e.g. `snap.total(&snap.busy)`).
    pub fn total(&self, series: &[u64]) -> u64 {
        series.iter().sum()
    }
}

/// Per-window kernel execution mix: how many cycles were warped, and how
/// many event cycles ran through the reduced CPU-only step versus the
/// full bus step. Deliberately *excluded* from result comparison — the
/// step kernel's mix is all full steps by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelMix {
    /// Warped (skipped, provably event-free) cycles per window.
    pub warped: Vec<u64>,
    /// Reduced CPU-only steps per window.
    pub cpu_only: Vec<u64>,
    /// Full bus-cycle steps per window.
    pub full: Vec<u64>,
}

/// Kernel self-profile: where the run loop's wall time went, plus the
/// step/warp mix. Wall-clock numbers are inherently machine- and
/// kernel-dependent, so this type never takes part in run-result
/// equality.
#[derive(Debug, Clone, Default)]
pub struct KernelProfile {
    /// The kernel that produced this profile.
    pub kernel: Kernel,
    /// Total wall time of the run loop, in nanoseconds.
    pub wall_ns: u64,
    /// Wall time spent planning fast-forward horizons (the plan that
    /// opens each iteration).
    pub plan_ns: u64,
    /// Wall time spent bulk-warping the dead cycles before each
    /// iteration's first event cycle.
    pub warp_ns: u64,
    /// Wall time spent in full bus-cycle steps.
    pub step_ns: u64,
    /// Wall time spent in CPU-local windows, including the re-planning
    /// and warps between the CPU-only steps inside them.
    pub cpu_only_ns: u64,
    /// Run-loop iterations executed. A fast-forward iteration is one
    /// full step or one CPU-local window, however many CPU-only steps
    /// the window runs.
    pub iterations: u64,
    /// Full bus-cycle steps executed.
    pub full_steps: u64,
    /// Reduced CPU-only steps executed, one per event cycle a CPU-local
    /// window runs.
    pub cpu_only_steps: u64,
    /// Cycles skipped by warping, inside windows as well as before them.
    pub warped_cycles: u64,
    /// Simulated cycles per wall-clock second (0 when wall time was not
    /// measured).
    pub cycles_per_sec: f64,
    /// Per-window kernel mix, when the timeseries registry was armed.
    pub mix: Option<KernelMix>,
}

/// Writes the `# HELP` and `# TYPE` lines that open one metric of a
/// Prometheus-style text exposition. `kind` is the metric type
/// (`counter`, `gauge`, `histogram`).
pub fn exposition_header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
}

/// Writes one sample line per window of an exposition series, labelled
/// with the window's starting cycle (plus any extra labels already
/// rendered into `extra`).
fn expo_series(out: &mut String, name: &str, extra: &str, snap: &TimeSeriesSnapshot, s: &[u64]) {
    for (i, v) in s.iter().enumerate() {
        let _ = writeln!(
            out,
            "{name}{{{extra}window=\"{}\"}} {v}",
            snap.window_start(i)
        );
    }
}

/// Renders the snapshot (and optional profile) in a hand-rolled,
/// dependency-free Prometheus-style text exposition format: `# TYPE`
/// metadata lines followed by `name{labels} value` samples. Windowed
/// series carry a `window` label holding the window's starting cycle.
pub fn exposition(snap: &TimeSeriesSnapshot, profile: Option<&KernelProfile>) -> String {
    let mut out = String::new();
    exposition_header(
        &mut out,
        "hmp_window_cycles",
        "gauge",
        "Effective window width",
    );
    let _ = writeln!(out, "hmp_window_cycles {}", snap.effective_window());
    exposition_header(
        &mut out,
        "hmp_run_cycles",
        "counter",
        "Last simulated cycle",
    );
    let _ = writeln!(out, "hmp_run_cycles {}", snap.end_cycle);

    let counters: [(&str, &str, &[u64]); 5] = [
        (
            "hmp_bus_busy_cycles",
            "Bus busy (grant + data) cycles per window",
            &snap.busy,
        ),
        (
            "hmp_bus_retries",
            "Retried (ARTRY) grants per window",
            &snap.retries,
        ),
        (
            "hmp_quarantines",
            "Masters quarantined per window",
            &snap.quarantines,
        ),
        (
            "hmp_bridge_crossings",
            "Bridge-crossing transactions per window",
            &snap.bridge_crossings,
        ),
        (
            "hmp_completions",
            "Completed transactions per window",
            &snap.completions,
        ),
    ];
    for (name, help, series) in counters {
        exposition_header(&mut out, name, "counter", help);
        expo_series(&mut out, name, "", snap, series);
    }

    exposition_header(
        &mut out,
        "hmp_grants",
        "counter",
        "Bus grants per master per window",
    );
    for (m, series) in snap.grants.iter().enumerate() {
        let extra = format!("master=\"{m}\",");
        expo_series(&mut out, "hmp_grants", &extra, snap, series);
    }

    exposition_header(
        &mut out,
        "hmp_segment_busy_cycles",
        "counter",
        "Busy cycles per segment per window",
    );
    for (s, series) in snap.occupancy.iter().enumerate() {
        let extra = format!("segment=\"{s}\",");
        expo_series(&mut out, "hmp_segment_busy_cycles", &extra, snap, series);
    }

    if let Some(p) = profile {
        exposition_header(
            &mut out,
            "hmp_kernel_wall_seconds",
            "gauge",
            "Run-loop wall time",
        );
        let phases = [
            ("total", p.wall_ns),
            ("plan", p.plan_ns),
            ("warp", p.warp_ns),
            ("step", p.step_ns),
            ("cpu_only", p.cpu_only_ns),
        ];
        for (phase, ns) in phases {
            let _ = writeln!(
                out,
                "hmp_kernel_wall_seconds{{phase=\"{phase}\"}} {:.9}",
                ns as f64 / 1e9
            );
        }
        exposition_header(
            &mut out,
            "hmp_kernel_cycles_per_sec",
            "gauge",
            "Simulated cycles per wall second",
        );
        let _ = writeln!(out, "hmp_kernel_cycles_per_sec {:.3}", p.cycles_per_sec);
        let steps = [
            ("full", p.full_steps),
            ("cpu_only", p.cpu_only_steps),
            ("warped_cycles", p.warped_cycles),
            ("iterations", p.iterations),
        ];
        exposition_header(&mut out, "hmp_kernel_steps", "counter", "Kernel step mix");
        for (kind, v) in steps {
            let _ = writeln!(out, "hmp_kernel_steps{{kind=\"{kind}\"}} {v}");
        }
        if let Some(mix) = &p.mix {
            let series = [
                ("warped", &mix.warped),
                ("cpu_only", &mix.cpu_only),
                ("full", &mix.full),
            ];
            exposition_header(
                &mut out,
                "hmp_kernel_mix",
                "counter",
                "Kernel step mix per window",
            );
            for (kind, s) in series {
                let extra = format!("kind=\"{kind}\",");
                expo_series(&mut out, "hmp_kernel_mix", &extra, snap, s);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg(window: u64, capacity: usize) -> MetricsRegistry {
        MetricsRegistry::new(2, 2, &[0, 1], TimeSeriesSpec { window, capacity })
    }

    #[test]
    fn defaults_are_sane() {
        let spec = TimeSeriesSpec::default();
        assert_eq!(spec.window, 8192);
        assert_eq!(spec.capacity, 64);
        assert_eq!(TimeSeriesSpec::with_window(100).window, 100);
    }

    #[test]
    fn windows_split_at_boundaries() {
        let mut r = reg(10, 4);
        r.record_busy_span(8, 4, Some(1)); // cycles 8..11 straddle 10
        let snap = r.snapshot(Cycle::new(11));
        assert_eq!(snap.busy, vec![2, 2]);
        assert_eq!(snap.occupancy[1], vec![2, 2]);
        assert_eq!(snap.occupancy[0], vec![0, 0]);
        assert_eq!(snap.samples(), 2);
    }

    #[test]
    fn span_equals_repeated_adds() {
        let mut a = reg(7, 8);
        let mut b = reg(7, 8);
        a.record_busy_span(3, 40, Some(0));
        for at in 3..43 {
            b.record_busy_span(at, 1, Some(0));
        }
        assert_eq!(a.snapshot(Cycle::new(50)), b.snapshot(Cycle::new(50)));
    }

    #[test]
    fn decimation_halves_samples_and_doubles_width() {
        let mut r = reg(10, 4);
        // One busy cycle in each of 8 base windows → merges twice.
        for w in 0..8u64 {
            r.record_busy_span(w * 10 + 1, 1, Some(0));
        }
        let snap = r.snapshot(Cycle::new(79));
        assert_eq!(snap.scale, 1);
        assert_eq!(snap.effective_window(), 20);
        assert_eq!(snap.busy, vec![2, 2, 2, 2]);
        assert_eq!(snap.total(&snap.busy), 8);
        assert!(snap.samples() <= 4);
    }

    #[test]
    fn memory_stays_bounded_over_long_runs() {
        let mut r = reg(10, 4);
        r.record_busy_span(1, 1_000_000, Some(0));
        let snap = r.snapshot(Cycle::new(1_000_000));
        assert!(snap.samples() <= 4, "{}", snap.samples());
        assert!(snap.scale >= 15, "{}", snap.scale);
        assert_eq!(snap.total(&snap.busy), 1_000_000);
    }

    #[test]
    fn idle_gaps_materialize_empty_windows() {
        let mut r = reg(10, 8);
        r.record_busy_span(5, 1, Some(0));
        let snap = r.snapshot(Cycle::new(45));
        assert_eq!(snap.busy, vec![1, 0, 0, 0, 0]);
    }

    #[test]
    fn grant_events_feed_busy_grants_and_occupancy() {
        let mut r = reg(100, 4);
        r.on_event(
            Cycle::new(5),
            SimEvent::BusGrant {
                master: 1,
                op: crate::BusOpKind::ReadLine,
                addr: 0x100,
                is_retry: false,
                is_drain: false,
            },
        );
        r.on_event(
            Cycle::new(6),
            SimEvent::BusRetry {
                master: 1,
                addr: 0x100,
                cause: crate::RetryCause::SnoopDrain,
            },
        );
        let snap = r.snapshot(Cycle::new(10));
        assert_eq!(snap.busy, vec![1]);
        assert_eq!(snap.grants[1], vec![1]);
        assert_eq!(snap.grants[0], vec![0]);
        assert_eq!(snap.occupancy[1], vec![1]);
        assert_eq!(snap.retries, vec![1]);
        assert_eq!(snap.window_grants(0), 1);
        assert_eq!(snap.grant_shares(0), vec![0.0, 1.0]);
    }

    #[test]
    fn utilization_clips_the_final_window() {
        let mut r = reg(10, 4);
        r.record_busy_span(11, 5, Some(0));
        let snap = r.snapshot(Cycle::new(14));
        assert_eq!(snap.window_width(0), 10);
        assert_eq!(snap.window_width(1), 5);
        assert!((snap.utilization(1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mix_is_split_from_the_deterministic_snapshot() {
        let mut r = reg(10, 4);
        r.record_warp(1, 9, false, None);
        r.record_full_step(Cycle::new(10));
        r.record_cpu_only_step(Cycle::new(11));
        let mix = r.snapshot_mix(Cycle::new(11));
        assert_eq!(mix.warped, vec![9, 0]);
        assert_eq!(mix.full, vec![0, 1]);
        assert_eq!(mix.cpu_only, vec![0, 1]);
        let snap = r.snapshot(Cycle::new(11));
        assert_eq!(snap.total(&snap.busy), 0);
    }

    #[test]
    fn exposition_has_type_lines_and_window_labels() {
        let mut r = reg(10, 4);
        r.record_busy_span(1, 3, Some(0));
        let snap = r.snapshot(Cycle::new(15));
        let text = exposition(&snap, None);
        assert!(text.contains("# TYPE hmp_bus_busy_cycles counter"));
        assert!(text.contains("hmp_bus_busy_cycles{window=\"0\"} 3"));
        assert!(text.contains("hmp_grants{master=\"0\",window=\"10\"}"));
        assert!(text.contains("hmp_segment_busy_cycles{segment=\"1\",window=\"0\"} 0"));
        assert!(!text.contains("hmp_kernel_wall_seconds"));
        let profile = KernelProfile {
            kernel: Kernel::FastForward,
            wall_ns: 1_000_000,
            cycles_per_sec: 5e6,
            ..Default::default()
        };
        let with_prof = exposition(&snap, Some(&profile));
        assert!(with_prof.contains("hmp_kernel_wall_seconds{phase=\"total\"} 0.001000000"));
        assert!(with_prof.contains("hmp_kernel_cycles_per_sec 5000000.000"));

        // Every metric and label shape, byte for byte: scrapers parse it.
        let full = KernelProfile {
            kernel: Kernel::FastForward,
            wall_ns: 1_000_000,
            plan_ns: 200_000,
            warp_ns: 300_000,
            step_ns: 400_000,
            cpu_only_ns: 50_000,
            iterations: 7,
            full_steps: 3,
            cpu_only_steps: 2,
            warped_cycles: 10,
            cycles_per_sec: 5e6,
            mix: Some(KernelMix {
                warped: vec![9, 1],
                cpu_only: vec![0, 2],
                full: vec![1, 2],
            }),
        };
        assert_eq!(exposition(&snap, Some(&full)), EXPOSITION_BYTES);
    }

    const EXPOSITION_BYTES: &str = r#"# HELP hmp_window_cycles Effective window width
# TYPE hmp_window_cycles gauge
hmp_window_cycles 10
# HELP hmp_run_cycles Last simulated cycle
# TYPE hmp_run_cycles counter
hmp_run_cycles 15
# HELP hmp_bus_busy_cycles Bus busy (grant + data) cycles per window
# TYPE hmp_bus_busy_cycles counter
hmp_bus_busy_cycles{window="0"} 3
hmp_bus_busy_cycles{window="10"} 0
# HELP hmp_bus_retries Retried (ARTRY) grants per window
# TYPE hmp_bus_retries counter
hmp_bus_retries{window="0"} 0
hmp_bus_retries{window="10"} 0
# HELP hmp_quarantines Masters quarantined per window
# TYPE hmp_quarantines counter
hmp_quarantines{window="0"} 0
hmp_quarantines{window="10"} 0
# HELP hmp_bridge_crossings Bridge-crossing transactions per window
# TYPE hmp_bridge_crossings counter
hmp_bridge_crossings{window="0"} 0
hmp_bridge_crossings{window="10"} 0
# HELP hmp_completions Completed transactions per window
# TYPE hmp_completions counter
hmp_completions{window="0"} 0
hmp_completions{window="10"} 0
# HELP hmp_grants Bus grants per master per window
# TYPE hmp_grants counter
hmp_grants{master="0",window="0"} 0
hmp_grants{master="0",window="10"} 0
hmp_grants{master="1",window="0"} 0
hmp_grants{master="1",window="10"} 0
# HELP hmp_segment_busy_cycles Busy cycles per segment per window
# TYPE hmp_segment_busy_cycles counter
hmp_segment_busy_cycles{segment="0",window="0"} 3
hmp_segment_busy_cycles{segment="0",window="10"} 0
hmp_segment_busy_cycles{segment="1",window="0"} 0
hmp_segment_busy_cycles{segment="1",window="10"} 0
# HELP hmp_kernel_wall_seconds Run-loop wall time
# TYPE hmp_kernel_wall_seconds gauge
hmp_kernel_wall_seconds{phase="total"} 0.001000000
hmp_kernel_wall_seconds{phase="plan"} 0.000200000
hmp_kernel_wall_seconds{phase="warp"} 0.000300000
hmp_kernel_wall_seconds{phase="step"} 0.000400000
hmp_kernel_wall_seconds{phase="cpu_only"} 0.000050000
# HELP hmp_kernel_cycles_per_sec Simulated cycles per wall second
# TYPE hmp_kernel_cycles_per_sec gauge
hmp_kernel_cycles_per_sec 5000000.000
# HELP hmp_kernel_steps Kernel step mix
# TYPE hmp_kernel_steps counter
hmp_kernel_steps{kind="full"} 3
hmp_kernel_steps{kind="cpu_only"} 2
hmp_kernel_steps{kind="warped_cycles"} 10
hmp_kernel_steps{kind="iterations"} 7
# HELP hmp_kernel_mix Kernel step mix per window
# TYPE hmp_kernel_mix counter
hmp_kernel_mix{kind="warped",window="0"} 9
hmp_kernel_mix{kind="warped",window="10"} 1
hmp_kernel_mix{kind="cpu_only",window="0"} 0
hmp_kernel_mix{kind="cpu_only",window="10"} 2
hmp_kernel_mix{kind="full",window="0"} 1
hmp_kernel_mix{kind="full",window="10"} 2
"#;

    #[test]
    #[should_panic(expected = "capacity must be even")]
    fn odd_capacity_is_rejected() {
        reg(10, 5);
    }
}
