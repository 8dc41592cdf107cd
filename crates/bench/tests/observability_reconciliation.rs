//! Metrics/trace reconciliation on the golden WCS figure cell.
//!
//! The observability stack must be a pure read-side: with spans and
//! histograms enabled, the golden (Worst, Proposed) cell of
//! `golden_totals.rs` must not move a cycle, and the span layer must
//! account *exactly* for the bus's own `BusStats` totals. A histogram
//! that under- or over-counts by one would pass any eyeball check of a
//! timeline; it cannot pass this.

use hmp_bench::figure_params;
use hmp_platform::{metrics_json, Strategy};
use hmp_sim::export::{chrome_trace, validate_json};
use hmp_sim::RetryCause;
use hmp_workloads::{prepare, RunSpec, Scenario};

/// The pinned golden (Worst, Proposed) totals from `golden_totals.rs`.
const GOLDEN: (u64, u64, u64, u64) = (30852, 4488, 1824, 256);

#[test]
fn metrics_reconcile_exactly_on_the_golden_wcs_cell() {
    let spec = RunSpec::new(Scenario::Worst, Strategy::Proposed, figure_params(32, 1))
        .with_spans(8192)
        .with_invariants();
    let mut sys = prepare(&spec);
    let r = sys.run(spec.max_cycles);
    assert!(r.is_clean_completion(), "{r}");

    // Observability must be side-effect-free on timing: the golden cell
    // may not drift just because metrics and invariants are enabled.
    assert_eq!(
        (r.cycles_u64(), r.bus.grants, r.bus.retries, r.bus.drains),
        GOLDEN,
        "enabling metrics/invariants moved the golden totals"
    );

    let snap = r.metrics.as_ref().expect("span capacity > 0");
    assert_eq!(
        RetryCause::ALL
            .map(|c| r.stats.retry(c))
            .iter()
            .sum::<u64>(),
        r.bus.retries,
        "per-cause retry split must sum to the total"
    );

    // Span accounting: every completed bus transaction closed exactly one
    // span, and every closed span landed in both latency histograms.
    let completions = r.bus.completions;
    assert_eq!(snap.span_orphans, 0, "no event may miss its span");
    assert_eq!(snap.spans_recorded, completions, "one span per txn");
    assert_eq!(snap.service_time.count(), completions);
    assert_eq!(snap.acquire_wait.count(), completions);
    assert_eq!(snap.retries_per_txn.count(), completions);
    assert_eq!(
        snap.retries_per_txn.sum(),
        r.bus.retries,
        "per-span retry attribution must sum to the bus total"
    );

    // The WCS workload actually exercises the interesting paths.
    assert!(snap.isr_latency.count() > 0, "WCS drains through the ISR");
    assert!(!snap.top_retry_addrs.is_empty(), "hot addresses tracked");

    // Both exports parse, and the timeline carries one complete ("X")
    // event per retained completed span.
    let m = sys.metrics().unwrap();
    let trace = chrome_trace(m.spans().iter(), m.events().iter(), sys.cpu_names());
    validate_json(&trace).expect("chrome trace must parse");
    let complete_events = trace.matches(r#""ph":"X""#).count() as u64;
    let retained = snap.spans_recorded - snap.spans_dropped;
    assert!(
        complete_events >= retained,
        "trace has {complete_events} complete events for {retained} retained spans"
    );

    let mjson = metrics_json(&r).expect("metrics enabled");
    validate_json(&mjson).expect("metrics JSON must parse");
    assert!(
        mjson.contains(&format!("\"grants\":{}", r.bus.grants)),
        "{mjson}"
    );
}

#[test]
fn all_golden_cells_reconcile_spans_with_completions() {
    for (scenario, strategy) in [
        (Scenario::Worst, Strategy::CacheDisabled),
        (Scenario::Worst, Strategy::SoftwareDrain),
        (Scenario::Best, Strategy::Proposed),
        (Scenario::Typical, Strategy::Proposed),
    ] {
        let spec = RunSpec::new(scenario, strategy, figure_params(8, 1)).with_spans(65536);
        let mut sys = prepare(&spec);
        let r = sys.run(spec.max_cycles);
        assert!(r.is_clean_completion(), "{scenario}/{strategy}: {r}");
        let snap = r.metrics.as_ref().unwrap();
        assert_eq!(snap.span_orphans, 0, "{scenario}/{strategy}");
        assert_eq!(
            snap.spans_recorded, r.bus.completions,
            "{scenario}/{strategy}"
        );
        assert_eq!(
            snap.retries_per_txn.sum(),
            r.bus.retries,
            "{scenario}/{strategy}"
        );
        let m = sys.metrics().unwrap();
        let trace = chrome_trace(m.spans().iter(), m.events().iter(), sys.cpu_names());
        validate_json(&trace).unwrap_or_else(|e| panic!("{scenario}/{strategy}: {e}"));
    }
}
