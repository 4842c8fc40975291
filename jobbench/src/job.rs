//! One job: a single `try_run` timed from outside, then checked.

use crate::workloads::App;
use dlb_compiler::ParallelPlan;
use dlb_core::driver::{try_run, AppSpec, RunConfig, RunReport};
use dlb_sim::SimDuration;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Everything a job simulated. Deterministic for a given seed, so it must
/// repeat exactly from job to job, traced or not; host-side figures (wall
/// time, kernel call timings) stay out.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Facts {
    pub trace_hash: u64,
    /// `RunReport::compute_time`, seconds.
    pub makespan_s: f64,
    /// The paper's §5.1 efficiency against the sequential reference time.
    pub efficiency: f64,
    pub events: u64,
    pub polls: u64,
    pub wakeups: u64,
    pub stale_wakes: u64,
    pub batches: u64,
    pub max_batch: u64,
    pub pool_workers: u64,
    pub os_threads_peak: u64,
    pub msgs: u64,
    pub wire_bytes: u64,
    pub statuses: u64,
    pub decisions: u64,
    pub moves_issued: u64,
    pub units_moved: u64,
    pub cancelled_threshold: u64,
    pub cancelled_profitability: u64,
    pub checkpoints_banked: u64,
    pub slaves_declared_dead: u64,
    pub crashed_nodes: u64,
    pub rollbacks: u64,
    pub units_rolled_back: u64,
    pub speculations_launched: u64,
    pub speculations_committed: u64,
    /// Sum of every `*_resends` recovery counter.
    pub resends: u64,
    pub msgs_dropped: u64,
    pub msgs_duplicated: u64,
}

impl Facts {
    pub fn of(r: &RunReport, seq_time: SimDuration) -> Facts {
        let (s, b, rec, f) = (&r.sim, &r.stats, &r.recovery, &r.sim.fault);
        Facts {
            trace_hash: s.trace_hash,
            makespan_s: r.compute_time.as_secs_f64(),
            efficiency: r.efficiency(seq_time),
            events: s.events_processed,
            polls: s.sched.polls,
            wakeups: s.sched.wakeups,
            stale_wakes: s.sched.stale_wakes,
            batches: s.sched.batches,
            max_batch: s.sched.max_batch as u64,
            pool_workers: s.sched.pool_workers as u64,
            os_threads_peak: s.sched.os_threads_peak as u64,
            msgs: s.actors.iter().map(|a| a.msgs_sent).sum(),
            wire_bytes: s.actors.iter().map(|a| a.bytes_sent).sum(),
            statuses: b.statuses,
            decisions: b.decisions,
            moves_issued: b.moves_issued,
            units_moved: b.units_moved,
            cancelled_threshold: b.cancelled_threshold,
            cancelled_profitability: b.cancelled_profitability,
            checkpoints_banked: rec.checkpoints_banked,
            slaves_declared_dead: rec.slaves_declared_dead,
            crashed_nodes: f.crashed_nodes.len() as u64,
            rollbacks: rec.rollbacks,
            units_rolled_back: rec.units_rolled_back,
            speculations_launched: rec.speculations_launched,
            speculations_committed: rec.speculations_committed,
            resends: rec.restore_resends
                + rec.instr_resends
                + rec.start_resends
                + rec.invocation_start_resends
                + rec.gather_resends
                + rec.transfer_resends,
            msgs_dropped: f.msgs_dropped,
            msgs_duplicated: f.msgs_duplicated,
        }
    }
}

/// A job that completed: its host time and what it simulated.
#[derive(Clone, Debug)]
pub struct Done {
    /// Host wall seconds of the `try_run` call alone.
    pub wall_s: f64,
    pub facts: Facts,
}

/// Submit one job and check it. Only the `try_run` call is timed; the
/// bit-exact comparison with `reference` runs after the clock stops.
/// `Err` names why the job failed: `try_run` erred or panicked (a
/// livelock exhausts the event budget by panicking), or the result is not
/// bit-identical to the sequential reference.
pub fn submit(
    app: &App,
    spec: AppSpec,
    plan: &ParallelPlan,
    cfg: RunConfig,
    reference: &[Vec<f64>],
) -> Result<Done, String> {
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| try_run(spec, plan, cfg)));
    let wall_s = start.elapsed().as_secs_f64();
    let report = match outcome {
        Ok(Ok(report)) => report,
        Ok(Err(e)) => return Err(format!("try_run failed: {e}")),
        Err(panic) => return Err(format!("try_run panicked: {}", panic_message(&*panic))),
    };
    if !bit_exact(&app.result(&report.result), reference) {
        return Err("result differs from the sequential reference".into());
    }
    Ok(Done {
        wall_s,
        facts: Facts::of(&report, app.sequential_time()),
    })
}

/// Bitwise equality (`==` on floats would equate 0.0 with -0.0).
pub fn bit_exact(got: &[Vec<f64>], want: &[Vec<f64>]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.len() == w.len() && g.iter().zip(w).all(|(a, b)| a.to_bits() == b.to_bits())
        })
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_exact_distinguishes_signed_zero_and_shape() {
        let a = vec![vec![0.0, 1.5]];
        assert!(bit_exact(&a, &a.clone()));
        assert!(!bit_exact(&a, &[vec![-0.0, 1.5]]));
        assert!(!bit_exact(&a, &[vec![0.0]]));
        assert!(!bit_exact(&a, &[vec![0.0, 1.5], vec![]]));
    }
}
