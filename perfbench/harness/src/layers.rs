//! The per-layer metrics of a traced run, one table for every workload.
//!
//! Every traced run prints every metric of [`PER_LAYER`]; a layer the
//! workload never calls reads 0. Times are self ms per pass over the
//! workload's job list (per run for `serve`), counters are per pass.

use crate::report::Metrics;
use crate::trace::Trace;

/// Where a per-layer value comes from.
#[derive(Debug, Clone, Copy)]
pub enum Src {
    /// A span's self time, per pass.
    Ms(&'static str),
    /// A counter, per pass.
    Count(&'static str),
    /// A counter taken as is (a high-water mark or a run-level value).
    Level(&'static str),
    /// One counter over another (0 when the base is 0).
    Ratio(&'static str, &'static str),
    /// A first-pass result counter averaged over the pass's jobs.
    StatMean(&'static str),
    /// Host ns of `sim` per simulated cycle per cell.
    NsPerCellCycle,
    /// Sum of all spans over the untraced time of the same jobs.
    Coverage,
    /// Traced replay time over untraced time, minus one, in percent.
    OverheadPct,
}

/// `(name, unit, better, source)` of every per-layer metric.
#[rustfmt::skip]
pub const PER_LAYER: &[(&str, &str, &str, Src)] = &[
    ("sim.self_ms", "ms", "lower", Src::Ms("sim")),
    ("sim.runs", "count", "lower", Src::Count("sim.runs")),
    ("sim.cycles", "count", "lower", Src::Count("sim.cycles")),
    ("sim.ns_per_cell_cycle", "ns", "lower", Src::NsPerCellCycle),
    ("sim.memo_ms", "ms", "lower", Src::Ms("sim.memo")),
    ("core.candidates_ms", "ms", "lower", Src::Ms("core.candidates")),
    ("boolex.minimize_ms", "ms", "lower", Src::Ms("boolex.minimize")),
    ("core.precheck_ms", "ms", "lower", Src::Ms("core.precheck")),
    ("core.precheck_rejects", "count", "higher", Src::Count("core.precheck_rejects")),
    ("core.estimator_ms", "ms", "lower", Src::Ms("core.estimator")),
    ("core.score_ms", "ms", "lower", Src::Ms("core.score")),
    ("core.evaluated", "count", "lower", Src::Count("core.evaluated")),
    ("timing.sta_ms", "ms", "lower", Src::Ms("timing.sta")),
    ("power.estimate_ms", "ms", "lower", Src::Ms("power.estimate")),
    ("core.transform_ms", "ms", "lower", Src::Ms("core.transform")),
    ("core.accepted", "count", "higher", Src::Count("core.accepted")),
    ("core.accept_ratio", "ratio", "higher", Src::Ratio("core.accepted", "core.evaluated")),
    ("core.power_reduction_pct", "%", "higher", Src::StatMean("power_reduction_pct")),
    ("designs.parse_ms", "ms", "lower", Src::Ms("designs.parse")),
    ("designs.emit_ms", "ms", "lower", Src::Ms("designs.emit")),
    ("verify.transform_ms", "ms", "lower", Src::Ms("verify.transform")),
    ("verify.check_ms", "ms", "lower", Src::Ms("verify.check")),
    ("verify.checked", "count", "higher", Src::Count("verify.checked")),
    ("verify.proved", "count", "higher", Src::Count("verify.proved")),
    ("verify.sampled", "count", "lower", Src::Count("verify.sampled")),
    ("verify.skipped", "count", "lower", Src::Count("verify.skipped")),
    ("verify.violations", "count", "lower", Src::Count("verify.violations")),
    ("verify.proved_ratio", "ratio", "higher", Src::Ratio("verify.proved", "verify.checked")),
    ("bdd.peak_nodes", "count", "lower", Src::Level("bdd.peak_nodes")),
    ("bdd.reorders", "count", "lower", Src::Count("bdd.reorders")),
    ("activity.self_ms", "ms", "lower", Src::Ms("activity")),
    ("activity.bdd_nodes", "count", "lower", Src::Count("activity.bdd_nodes")),
    ("activity.nets", "count", "higher", Src::Count("activity.nets")),
    ("activity.exact_ratio", "ratio", "higher", Src::Ratio("activity.exact_nets", "activity.nets")),
    ("activity.budget_blown", "count", "lower", Src::Count("activity.budget_blown")),
    ("lint.self_ms", "ms", "lower", Src::Ms("lint")),
    ("lint.proved", "count", "higher", Src::Count("lint.proved")),
    ("lint.sampled", "count", "lower", Src::Count("lint.sampled")),
    ("lint.diagnostics", "count", "lower", Src::Count("lint.diagnostics")),
    ("serve.handler_ms", "ms", "lower", Src::Level("serve.handler_ms")),
    ("serve.overhead_ms", "ms", "lower", Src::Level("serve.overhead_ms")),
    ("serve.late_ms", "ms", "lower", Src::Level("serve.late_ms")),
    ("serve.cache_lookups", "count", "higher", Src::Level("serve.cache_lookups")),
    ("serve.cache_hit_ratio", "ratio", "higher", Src::Ratio("serve.cache_hits", "serve.cache_lookups")),
    ("serve.memo_lookups", "count", "higher", Src::Level("serve.memo_lookups")),
    ("serve.memo_hit_ratio", "ratio", "higher", Src::Ratio("serve.memo_hits", "serve.memo_lookups")),
    ("serve.shed", "count", "lower", Src::Level("serve.shed")),
    ("trace.coverage", "ratio", "higher", Src::Coverage),
    ("trace.overhead_pct", "%", "lower", Src::OverheadPct),
];

/// What a traced run hands to [`per_layer`].
pub struct LayerInput<'a> {
    /// Spans and counters of the traced work.
    pub trace: &'a Trace,
    /// First-pass result counters.
    pub stats: &'a Trace,
    /// Passes the trace covers.
    pub passes: f64,
    /// Untraced time of the traced jobs, ms.
    pub untraced_ms: f64,
    /// Traced time of the same jobs, ms.
    pub traced_ms: f64,
}

/// Every per-layer metric.
pub fn per_layer(input: &LayerInput<'_>) -> Metrics {
    let t = input.trace;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut metrics = Metrics::default();
    for &(name, unit, _, src) in PER_LAYER {
        let value = match src {
            Src::Ms(span) => t.ms(span) / input.passes,
            Src::Count(c) => t.get(c) / input.passes,
            Src::Level(c) => t.get(c),
            Src::Ratio(num, den) => ratio(t.get(num), t.get(den)),
            Src::StatMean(c) => ratio(input.stats.get(c), input.stats.get("jobs")),
            Src::NsPerCellCycle => ratio(t.ms("sim") * 1e6, t.get("sim.cell_cycles")),
            Src::Coverage => ratio(t.covered_ms(), input.untraced_ms),
            Src::OverheadPct => {
                ratio(input.traced_ms - input.untraced_ms, input.untraced_ms) * 100.0
            }
        };
        metrics.set(name, value, unit);
    }
    metrics
}
