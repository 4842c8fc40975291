//! The metric tables, the `BENCHMARK.json` they define, and the result
//! line every run ends with.

use crate::workloads::Workload;
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the runtime sees, measured with tracing off. The error
/// rate is reported as the result line's `failed` / `attempted` (and
/// printed by name) rather than as a metric: it reads 0 on a healthy run.
/// Host-time bounds are wide because on the shared 2-vCPU host they were
/// set on, host speed drifts by 25-35% between phases lasting minutes
/// (`NOTES.md`); the simulated figures repeat exactly per seed and vary
/// under 1% across seeds.
pub const END_TO_END: [MetricSpec; 5] = [
    e2e("job_s", "s", Lower, 0.25),
    e2e("virt_makespan_s", "s", Lower, 0.05),
    e2e("efficiency", "ratio", Higher, 0.05),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.1),
];

/// Single layers, measured by the traced run from outside: wrapped kernel
/// calls (`apps`), timed `compile` (`compiler`), the rest of a job's host
/// time (`runtime`: the `dlb-sim` kernel and the `dlb-core` master,
/// engines and session, reachable only together through `try_run`), and
/// the counters the run reports (`sim`, `balancer`, `session`,
/// `recovery`, `fault`).
pub const PER_LAYER: [MetricSpec; 41] = [
    layer("apps.compute_s", "s", Lower),
    layer("apps.calls", "count", Lower),
    layer("apps.ns_per_call", "ns", Lower),
    layer("apps.share", "ratio", Lower),
    layer("apps.gflops", "GFLOP/s", Higher),
    layer("apps.input_s", "s", Lower),
    layer("compiler.compile_s", "s", Lower),
    layer("runtime.self_s", "s", Lower),
    layer("runtime.ns_per_event", "ns", Lower),
    layer("runtime.ns_per_msg", "ns", Lower),
    layer("sim.events", "count", Lower),
    layer("sim.polls", "count", Lower),
    layer("sim.wakeups", "count", Lower),
    layer("sim.stale_wakes", "count", Lower),
    layer("sim.stale_wake_ratio", "ratio", Lower),
    layer("sim.batches", "count", Lower),
    layer("sim.mean_batch", "count", Higher),
    layer("sim.max_batch", "count", Higher),
    layer("sim.pool_workers", "count", Higher),
    layer("sim.os_threads_peak", "count", Lower),
    layer("sim.msgs", "count", Lower),
    layer("sim.wire_mb", "MB", Lower),
    layer("balancer.statuses", "count", Lower),
    layer("balancer.decisions", "count", Lower),
    layer("balancer.moves_issued", "count", Lower),
    layer("balancer.units_moved", "count", Lower),
    layer("balancer.cancelled_threshold", "count", Lower),
    layer("balancer.cancelled_profitability", "count", Lower),
    layer("balancer.move_yield", "ratio", Higher),
    layer("session.checkpoints_banked", "count", Lower),
    layer("recovery.slaves_declared_dead", "count", Lower),
    layer("recovery.false_evictions", "count", Lower),
    layer("recovery.rollbacks", "count", Lower),
    layer("recovery.units_rolled_back", "count", Lower),
    layer("recovery.speculation_yield", "ratio", Higher),
    layer("recovery.resends", "count", Lower),
    layer("fault.msgs_dropped", "count", Lower),
    layer("fault.msgs_duplicated", "count", Lower),
    layer("trace.job_s", "s", Lower),
    layer("trace.untraced_job_s", "s", Lower),
    layer("trace.overhead_s", "s", Lower),
];

/// The metrics a run reports: per-layer when traced, else end-to-end.
pub fn table(trace: bool) -> &'static [MetricSpec] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// How the benchmark is invoked from the root of a checkout.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "jobbench/Cargo.toml",
    "--",
];

/// Host seconds one run measures.
pub const RUN_SECONDS: u32 = 15;

/// The `BENCHMARK.json` these tables define (`--emit-spec`).
pub fn spec_json() -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let metrics = |specs: &[MetricSpec]| {
        specs
            .iter()
            .map(|m| {
                let better = match m.better {
                    Higher => "higher",
                    Lower => "lower",
                };
                let bound = m
                    .bound
                    .map(|b| format!(", \"bound\": {b}"))
                    .unwrap_or_default();
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
                    m.name, m.unit
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let workloads = Workload::LISTED
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"jobbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&COMMAND),
        metrics(&END_TO_END),
        metrics(&PER_LAYER),
    )
}

/// The run's last line: `correct`, `attempted`, `failed`, and a value for
/// exactly the metrics of `specs`, in their units. Errs if a metric is
/// missing, unlisted, repeated or not a finite number.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &[(&str, f64)],
    specs: &[MetricSpec],
) -> Result<String, String> {
    let mut names: Vec<&str> = values.iter().map(|(n, _)| *n).collect();
    let mut listed: Vec<&str> = specs.iter().map(|m| m.name).collect();
    names.sort_unstable();
    listed.sort_unstable();
    if names != listed {
        return Err(format!(
            "metrics {names:?} do not match the table {listed:?}"
        ));
    }
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, spec) in specs.iter().enumerate() {
        let value = values
            .iter()
            .find(|(n, _)| *n == spec.name)
            .map(|&(_, v)| v)
            .expect("names checked above");
        if !value.is_finite() {
            return Err(format!("{} is not finite: {value}", spec.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            spec.name, spec.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_units_and_bounds_are_well_formed() {
        let all: Vec<&MetricSpec> = END_TO_END.iter().chain(&PER_LAYER).collect();
        for m in &all {
            let first = m.name.chars().next().unwrap();
            assert!(first.is_ascii_alphanumeric(), "{}", m.name);
            assert!(m.name.len() <= 64);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names repeat");
        for m in &END_TO_END {
            assert!(
                matches!(m.bound, Some(b) if b > 0.0 && b <= 0.25),
                "{}",
                m.name
            );
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END
            .iter()
            .map(|m| m.bound.unwrap())
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "set-up time has the largest bound"
        );
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn committed_spec_matches_the_tables() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed, spec_json(), "regenerate with --emit-spec");
    }

    #[test]
    fn result_line_names_every_metric_with_its_unit() {
        let values: Vec<(&str, f64)> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name, 0.5 + i as f64))
            .collect();
        let line = result_json(true, 12, 0, &values, &END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, "));
        for m in &END_TO_END {
            let entry = format!("\"{}\": {{\"value\": ", m.name);
            assert!(line.contains(&entry), "{line}");
            assert!(line.contains(&format!("\"unit\": \"{}\"", m.unit)));
        }
        assert!(line.contains("\"job_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.ends_with("}}"));
    }

    #[test]
    fn result_line_rejects_missing_extra_and_non_finite_metrics() {
        let mut values: Vec<(&str, f64)> = END_TO_END.iter().map(|m| (m.name, 1.0)).collect();
        values.pop();
        assert!(result_json(true, 1, 0, &values, &END_TO_END).is_err());
        values.push(("peak_rss_mb", 1.0));
        values.push(("error_rate", 0.0));
        assert!(result_json(true, 1, 0, &values, &END_TO_END).is_err());
        values.pop();
        values[0].1 = f64::NAN;
        assert!(result_json(true, 1, 0, &values, &END_TO_END).is_err());
    }
}
