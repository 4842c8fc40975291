//! A run: set the workload up, then submit jobs back to back (a closed
//! loop with one client) until the measuring time is spent.

use crate::args::Options;
use crate::job::{submit, Done, Facts};
use crate::report::table;
use crate::stats::{median, percentile, quantiles, ratio, tail_percentile};
use crate::timed::{timed_spec, Meter, MeterReading};
use crate::workloads::{build_app, cluster, compile, App, VARIANTS};
use dlb_compiler::ParallelPlan;
use dlb_core::driver::AppSpec;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up repeats at least this many times and for at least
/// `SETUP_SECONDS`; set-up time is the median repetition.
const SETUP_REPS: usize = 51;
const SETUP_SECONDS: f64 = 0.5;

/// What a run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One value per metric of the run's table (end-to-end or per-layer).
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines: every metric by name and unit, plus sample
    /// counts and failures.
    pub notes: Vec<String>,
}

/// The set-up a run measures: input generation and compilation, repeated.
struct Setup {
    app: App,
    plan: ParallelPlan,
    input_s: f64,
    compile_s: f64,
    total_s: f64,
}

fn setup(opts: &Options) -> Setup {
    let (mut input, mut comp, mut total) = (vec![], vec![], vec![]);
    let mut last = None;
    let start = Instant::now();
    while total.len() < SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        let t0 = Instant::now();
        let app = build_app(opts.workload, opts.seed);
        let t1 = Instant::now();
        let plan = compile(&app);
        let t2 = Instant::now();
        input.push((t1 - t0).as_secs_f64());
        comp.push((t2 - t1).as_secs_f64());
        total.push((t2 - t0).as_secs_f64());
        last = Some((app, plan));
    }
    let (app, plan) = last.expect("set-up ran at least once");
    Setup {
        app,
        plan,
        input_s: median(&input),
        compile_s: median(&comp),
        total_s: median(&total),
    }
}

/// Counts attempts and failures, and checks every job of a variant
/// simulated exactly what that variant's first job did.
struct Ledger {
    attempted: u64,
    failed: u64,
    facts: Vec<Option<Facts>>,
    notes: Vec<String>,
}

impl Ledger {
    /// Book one job's outcome, passing it through if the job passed.
    fn book(&mut self, label: &str, variant: usize, outcome: Result<Done, String>) -> Option<Done> {
        self.attempted += 1;
        let why = match outcome {
            Ok(done) => match &self.facts[variant] {
                None => {
                    self.facts[variant] = Some(done.facts.clone());
                    return Some(done);
                }
                Some(first) if *first == done.facts => return Some(done),
                Some(first) => format!("simulated {:?}, its first job {first:?}", done.facts),
            },
            Err(e) => e,
        };
        self.failed += 1;
        self.notes.push(format!(
            "# {label} job {} (variant {variant}) failed: {why}",
            self.attempted
        ));
        None
    }
}

/// A traced job: host time, the wrapped kernel's meter, and what it
/// simulated.
type TracedJob = (f64, MeterReading, Facts);

pub fn run(opts: &Options) -> Outcome {
    let s = setup(opts);
    let reference = s.app.sequential();
    let measure = Duration::from_secs_f64(opts.seconds);
    let variants = VARIANTS as usize;
    let mut ledger = Ledger {
        attempted: 0,
        failed: 0,
        facts: vec![None; variants],
        notes: vec![],
    };
    let job = |ledger: &mut Ledger, label: &str, variant: usize, spec: AppSpec| {
        let cfg = cluster(opts.workload, opts.seed, variant as u64);
        ledger.book(
            label,
            variant,
            submit(&s.app, spec, &s.plan, cfg, &reference),
        )
    };

    // Rounds cycle through the variants; a round is one job, or an
    // untraced/traced pair of the same variant. Round 0 warms caches and
    // the allocator and is not sampled. The loop runs until the measuring
    // time is spent and every variant has run.
    let mut untraced: Vec<f64> = vec![];
    let mut traced: Vec<TracedJob> = vec![];
    let start = Instant::now();
    for round in 0.. {
        let variant = round % variants;
        let plain = job(&mut ledger, "untraced", variant, s.app.spec());
        let metered = opts.trace.then(|| {
            let meter = Arc::new(Meter::default());
            job(
                &mut ledger,
                "traced",
                variant,
                timed_spec(&s.app, meter.clone()),
            )
            .map(|done| (done.wall_s, meter.read(), done.facts))
        });
        if round > 0 {
            untraced.extend(plain.map(|done| done.wall_s));
            traced.extend(metered.flatten());
        }
        if round + 1 >= variants && start.elapsed() >= measure {
            break;
        }
    }

    let mut notes = vec![format!(
        "# {} seed {}: {} jobs over {variants} cluster variants, {} failed; \
         worker_threads default, {} cores",
        opts.workload.name(),
        opts.seed,
        ledger.attempted,
        ledger.failed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    )];
    notes.append(&mut ledger.notes);
    // Variants without a passing job drop out of the means; their
    // failures already count against the run.
    let facts: Vec<Facts> = ledger.facts.into_iter().flatten().collect();
    if untraced.is_empty() || (opts.trace && traced.is_empty()) {
        notes.push("# no sampled job passed; nothing to report".into());
        return Outcome {
            attempted: ledger.attempted,
            failed: ledger.failed,
            metrics: vec![],
            notes,
        };
    }
    let hashes: Vec<String> = facts
        .iter()
        .map(|f| format!("{:016x}", f.trace_hash))
        .collect();
    notes.push(format!(
        "# trace_hash per passing variant: {}",
        hashes.join(" ")
    ));

    let metrics = if opts.trace {
        layer_metrics(&facts, s.input_s, s.compile_s, &untraced, &traced)
    } else {
        notes.push(timing_note("job_s", &untraced));
        notes.push(format!(
            "error_rate = {} ratio ({} of {} jobs failed)",
            ratio(ledger.failed as f64, ledger.attempted as f64),
            ledger.failed,
            ledger.attempted
        ));
        end_to_end_metrics(&facts, &untraced, s.total_s, peak_rss_mb())
    };
    for (name, value) in &metrics {
        let unit = table(opts.trace)
            .iter()
            .find(|m| m.name == *name)
            .map_or("?", |m| m.unit);
        notes.push(format!("{name} = {value} {unit}"));
    }
    Outcome {
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
        notes,
    }
}

/// The mean of `g` over the variants' facts.
fn mean(facts: &[Facts], g: impl Fn(&Facts) -> f64) -> f64 {
    facts.iter().map(g).sum::<f64>() / facts.len() as f64
}

/// Median, quartiles and the highest percentile with ten samples beyond
/// it, with the sample count.
fn timing_note(name: &str, xs: &[f64]) -> String {
    let p = tail_percentile(xs.len());
    let quartiles = if xs.len() >= 2 {
        let q = quantiles(xs, 4);
        format!("q1 {:.6} q3 {:.6} ", q[0], q[2])
    } else {
        String::new()
    };
    format!(
        "# {name}: n = {} samples, median {:.6} s, {quartiles}p{p} {:.6} s",
        xs.len(),
        median(xs),
        percentile(xs, p)
    )
}

/// End-to-end metrics of an untraced run: the median job time over
/// `job_s` samples, the simulated figures averaged over the variants,
/// set-up time and peak memory.
fn end_to_end_metrics(
    facts: &[Facts],
    job_s: &[f64],
    setup_s: f64,
    peak_rss_mb: f64,
) -> Vec<(&'static str, f64)> {
    vec![
        ("job_s", median(job_s)),
        ("virt_makespan_s", mean(facts, |f| f.makespan_s)),
        ("efficiency", mean(facts, |f| f.efficiency)),
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss_mb),
    ]
}

/// Per-layer metrics of a traced run. Host-time figures are medians over
/// the traced jobs, each derived within its job first; counts are means
/// over the variants (they repeat exactly per variant), and ratios of
/// counts are ratios of those means.
fn layer_metrics(
    facts: &[Facts],
    input_s: f64,
    compile_s: f64,
    untraced: &[f64],
    traced: &[TracedJob],
) -> Vec<(&'static str, f64)> {
    let per_job = |g: &dyn Fn(f64, &MeterReading, &Facts) -> f64| {
        let xs: Vec<f64> = traced.iter().map(|(wall, m, f)| g(*wall, m, f)).collect();
        median(&xs)
    };
    let c = |x: u64| x as f64;
    let avg = |g: fn(&Facts) -> u64| mean(facts, |f| c(g(f)));
    let self_s = |wall: f64, m: &MeterReading| wall - m.busy_s;
    let traced_job_s = per_job(&|wall, _, _| wall);
    let untraced_job_s = median(untraced);
    vec![
        ("apps.compute_s", per_job(&|_, m, _| m.busy_s)),
        ("apps.calls", per_job(&|_, m, _| c(m.calls))),
        (
            "apps.ns_per_call",
            per_job(&|_, m, _| ratio(m.busy_s, c(m.calls)) * 1e9),
        ),
        ("apps.share", per_job(&|wall, m, _| ratio(m.busy_s, wall))),
        (
            "apps.gflops",
            per_job(&|_, m, _| ratio(c(m.flops), m.busy_s) * 1e-9),
        ),
        ("apps.input_s", input_s),
        ("compiler.compile_s", compile_s),
        ("runtime.self_s", per_job(&|w, m, _| self_s(w, m))),
        (
            "runtime.ns_per_event",
            per_job(&|w, m, f| ratio(self_s(w, m), c(f.events)) * 1e9),
        ),
        (
            "runtime.ns_per_msg",
            per_job(&|w, m, f| ratio(self_s(w, m), c(f.msgs)) * 1e9),
        ),
        ("sim.events", avg(|f| f.events)),
        ("sim.polls", avg(|f| f.polls)),
        ("sim.wakeups", avg(|f| f.wakeups)),
        ("sim.stale_wakes", avg(|f| f.stale_wakes)),
        (
            "sim.stale_wake_ratio",
            ratio(avg(|f| f.stale_wakes), avg(|f| f.wakeups)),
        ),
        ("sim.batches", avg(|f| f.batches)),
        (
            "sim.mean_batch",
            ratio(avg(|f| f.polls), avg(|f| f.batches)),
        ),
        ("sim.max_batch", avg(|f| f.max_batch)),
        ("sim.pool_workers", avg(|f| f.pool_workers)),
        ("sim.os_threads_peak", avg(|f| f.os_threads_peak)),
        ("sim.msgs", avg(|f| f.msgs)),
        ("sim.wire_mb", avg(|f| f.wire_bytes) / 1e6),
        ("balancer.statuses", avg(|f| f.statuses)),
        ("balancer.decisions", avg(|f| f.decisions)),
        ("balancer.moves_issued", avg(|f| f.moves_issued)),
        ("balancer.units_moved", avg(|f| f.units_moved)),
        (
            "balancer.cancelled_threshold",
            avg(|f| f.cancelled_threshold),
        ),
        (
            "balancer.cancelled_profitability",
            avg(|f| f.cancelled_profitability),
        ),
        (
            "balancer.move_yield",
            ratio(avg(|f| f.moves_issued), avg(|f| f.decisions)),
        ),
        ("session.checkpoints_banked", avg(|f| f.checkpoints_banked)),
        (
            "recovery.slaves_declared_dead",
            avg(|f| f.slaves_declared_dead),
        ),
        (
            "recovery.false_evictions",
            avg(|f| f.slaves_declared_dead.saturating_sub(f.crashed_nodes)),
        ),
        ("recovery.rollbacks", avg(|f| f.rollbacks)),
        ("recovery.units_rolled_back", avg(|f| f.units_rolled_back)),
        (
            "recovery.speculation_yield",
            ratio(
                avg(|f| f.speculations_committed),
                avg(|f| f.speculations_launched),
            ),
        ),
        ("recovery.resends", avg(|f| f.resends)),
        ("fault.msgs_dropped", avg(|f| f.msgs_dropped)),
        ("fault.msgs_duplicated", avg(|f| f.msgs_duplicated)),
        ("trace.job_s", traced_job_s),
        ("trace.untraced_job_s", untraced_job_s),
        ("trace.overhead_s", traced_job_s - untraced_job_s),
    ]
}

/// The process's peak resident set (`VmHWM`), in MB (10^6 bytes).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::result_json;

    #[test]
    fn runs_name_exactly_the_listed_metrics() {
        let one = Facts {
            makespan_s: 10.0,
            efficiency: 0.5,
            events: 10,
            msgs: 4,
            wakeups: 8,
            stale_wakes: 2,
            polls: 12,
            batches: 3,
            decisions: 5,
            moves_issued: 2,
            slaves_declared_dead: 3,
            crashed_nodes: 1,
            ..Facts::default()
        };
        let other = Facts {
            makespan_s: 20.0,
            efficiency: 0.7,
            events: 30,
            wakeups: 12,
            stale_wakes: 3,
            ..one.clone()
        };
        let facts = [one, other];
        let e2e = end_to_end_metrics(&facts, &[1.0, 3.0, 2.0], 0.25, 40.0);
        assert!(result_json(true, 4, 0, &e2e, table(false)).is_ok());
        assert_eq!(
            &e2e[..3],
            &[
                ("job_s", 2.0),
                ("virt_makespan_s", 15.0),
                ("efficiency", 0.6)
            ]
        );

        let reading = MeterReading {
            calls: 4,
            busy_s: 0.5,
            flops: 2_000_000_000,
        };
        let [one, other] = facts.clone();
        let traced = [
            (2.0, reading, one.clone()),
            (3.0, reading, other),
            (2.5, reading, one),
        ];
        let layers = layer_metrics(&facts, 0.1, 0.2, &[1.5, 1.7], &traced);
        assert!(result_json(true, 4, 0, &layers, table(true)).is_ok());
        let get = |name: &str| layers.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("apps.share"), 0.2);
        assert_eq!(get("apps.ns_per_call"), 0.125e9);
        assert_eq!(get("apps.gflops"), 4.0);
        assert_eq!(get("runtime.self_s"), 2.0);
        // Per job 1.5/10, 2.5/30, 2.0/10 seconds per event: median 0.15.
        assert_eq!(get("runtime.ns_per_event"), 0.15e9);
        assert_eq!(get("sim.events"), 20.0);
        assert_eq!(get("sim.stale_wake_ratio"), 0.25);
        assert_eq!(get("sim.mean_batch"), 4.0);
        assert_eq!(get("balancer.move_yield"), 0.4);
        assert_eq!(get("recovery.false_evictions"), 2.0);
        // Nothing launched: the yield reads 0, not NaN.
        assert_eq!(get("recovery.speculation_yield"), 0.0);
        assert_eq!(get("trace.overhead_s"), 2.5 - 1.6);
    }
}
