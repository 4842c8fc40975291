//! The three benchmark workloads: one fixed plan and cluster each, with the
//! seed feeding input generation and the simulated environment (which
//! slaves are loaded, when, and what the fault plan does).
//!
//! Every job of a run is a fresh `try_run` on the same kernel, plan and
//! cluster, so every simulated figure repeats exactly from job to job.

use dlb_apps::{Calibration, Lu, MatMul, Sor};
use dlb_compiler::ParallelPlan;
use dlb_core::driver::{AppSpec, RunConfig};
use dlb_core::msg::UnitData;
use dlb_sim::{FaultPlan, LoadModel, NodeConfig, Pcg32, SimDuration, SimTime};
use std::sync::Arc;

/// Which job the closed loop submits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Independent engine: MM under staggered oscillating competing load,
    /// the paper's Fig. 9 environment.
    MmShared,
    /// Pipelined engine: SOR wavefront at width 256.
    SorWide,
    /// Shrinking engine: LU in fault mode with wire faults and a crash.
    LuFaulty,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::MmShared, Workload::SorWide, Workload::LuFaulty];

    /// The workloads `BENCHMARK.json` lists. `lu_faulty` stays runnable
    /// but unlisted: on about one fault plan in twenty the shrinking engine
    /// returns a wrong factorization (see `NOTES.md`), and a benchmark
    /// workload must not fail.
    pub const LISTED: [Workload; 2] = [Workload::MmShared, Workload::SorWide];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MmShared => "mm_shared",
            Workload::SorWide => "sor_wide",
            Workload::LuFaulty => "lu_faulty",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark and which layers it should
    /// move (recorded in `BENCHMARK.json`; at most 200 characters).
    pub fn why(self) -> &'static str {
        match self {
            Workload::MmShared => {
                "paper Fig. 9 MM, 4 of 16 slaves under staggered square-wave load, ~270 balancer \
                 moves, apps ~85% of job time: apps->job_s, balancer->makespan+efficiency, runtime flat"
            }
            Workload::SorWide => {
                "SOR at width 256: ~275k events, ~63k msgs, apps <5% of job time: runtime+sim \
                 events/polls->job_s, balancer->makespan+efficiency, apps flat, recovery zero"
            }
            Workload::LuFaulty => {
                "LU, 32 slaves, 1% drop+dup and a crash: checkpoint/rollback/resend heavy, 31 of 32 \
                 evicted: runtime+sim wire_mb+recovery->job_s/peak_rss_mb/makespan"
            }
        }
    }

    /// Event budget per job: about ten times the observed event count, so
    /// a protocol livelock fails the job instead of stalling the run.
    fn max_events(self) -> u64 {
        match self {
            Workload::MmShared => 2_000_000,
            Workload::SorWide => 5_000_000,
            Workload::LuFaulty => 20_000_000,
        }
    }
}

/// The kernel of a workload, kept concretely typed so the result can be
/// checked against the kernel's own `sequential()`.
pub enum App {
    Mm(Arc<MatMul>),
    Sor(Arc<Sor>),
    Lu(Arc<Lu>),
}

impl App {
    /// The `AppSpec` `try_run` takes (the untimed kernel itself).
    pub fn spec(&self) -> AppSpec {
        match self {
            App::Mm(k) => AppSpec::Independent(k.clone()),
            App::Sor(k) => AppSpec::Pipelined(k.clone()),
            App::Lu(k) => AppSpec::Shrinking(k.clone()),
        }
    }

    pub fn program(&self) -> dlb_compiler::Program {
        match self {
            App::Mm(k) => k.program(),
            App::Sor(k) => k.program(),
            App::Lu(k) => k.program(),
        }
    }

    /// Sequential execution time on one dedicated reference node (the
    /// numerator of the paper's efficiency).
    pub fn sequential_time(&self) -> SimDuration {
        match self {
            App::Mm(k) => k.sequential_time(),
            App::Sor(k) => k.sequential_time(),
            App::Lu(k) => k.sequential_time(),
        }
    }

    /// The sequential reference result, in the shape [`App::result`]
    /// returns.
    pub fn sequential(&self) -> Vec<Vec<f64>> {
        match self {
            App::Mm(k) => k.sequential(),
            App::Sor(k) => k.sequential(),
            App::Lu(k) => k.sequential(),
        }
    }

    /// The gathered run result reassembled for comparison with
    /// [`App::sequential`].
    pub fn result(&self, gathered: &[UnitData]) -> Vec<Vec<f64>> {
        match self {
            App::Mm(_) => MatMul::result_c(gathered),
            App::Sor(k) => k.result_grid(gathered),
            App::Lu(_) => Lu::result_cols(gathered),
        }
    }
}

/// Input generation: the kernel with its seeded data and cost model.
pub fn build_app(w: Workload, seed: u64) -> App {
    match w {
        Workload::MmShared => App::Mm(Arc::new(MatMul::new(512, 8, seed, &Calibration::new(1.0)))),
        Workload::SorWide => App::Sor(Arc::new(Sor::new(300, 40, seed, &Calibration::new(0.02)))),
        Workload::LuFaulty => App::Lu(Arc::new(Lu::new(320, seed, &Calibration::new(0.1)))),
    }
}

/// Compile the workload's IR program to the plan every job runs.
pub fn compile(app: &App) -> ParallelPlan {
    dlb_compiler::compile(&app.program()).expect("the paper's programs compile")
}

/// Cluster variants per run seed. The closed loop cycles through them, so
/// the simulated figures of a run average over this many load phasings or
/// fault cascades instead of hanging on one draw.
pub const VARIANTS: u64 = 16;

/// The simulated cluster of one job: variant `variant` of run seed `seed`.
/// Built fresh per job (`try_run` consumes it); the same seed and variant
/// always give the same cluster.
pub fn cluster(w: Workload, seed: u64, variant: u64) -> RunConfig {
    let mut rng = Pcg32::with_stream(seed, variant);
    let mut cfg = match w {
        Workload::MmShared => {
            // Four of sixteen slaves carry the Fig. 9 square wave (20 s
            // period, 10 s loaded), staggered 5 s apart; the seed jitters
            // each phase by up to 0.5 s.
            let mut cfg = RunConfig::homogeneous(16);
            for (k, slave) in [1, 5, 9, 13].into_iter().enumerate() {
                let jitter = rng.gen_range(0, 500);
                let phase = SimDuration::from_millis(5_000 * k as u64 + jitter);
                cfg.slave_nodes[slave] = NodeConfig::with_load(square_wave(
                    SimDuration::from_secs(20),
                    SimDuration::from_secs(10),
                    phase,
                    SimDuration::from_secs(600),
                ));
            }
            cfg
        }
        Workload::SorWide => {
            // Sixteen seeded slaves of 256 carry one constant competing task.
            let mut cfg = RunConfig::homogeneous(256);
            for slave in distinct(&mut rng, 16, 256) {
                cfg.slave_nodes[slave] = NodeConfig::with_load(LoadModel::Constant(1));
            }
            cfg
        }
        Workload::LuFaulty => {
            let mut cfg = RunConfig::homogeneous(32);
            let loaded = rng.gen_index(0, 32);
            cfg.slave_nodes[loaded] = NodeConfig::with_load(LoadModel::Constant(1));
            // One seeded slave (node = slave + 1; node 0 is the master)
            // crashes between 4 s and 12 s of virtual time.
            let crashed = rng.gen_index(0, 32) + 1;
            let at = SimTime(rng.gen_range(4_000_000, 12_000_000));
            cfg.fault_plan = Some(
                FaultPlan::new(rng.next_u64())
                    .drop_all(0.01)
                    .dup_all(0.01)
                    .crash(crashed, at),
            );
            cfg
        }
    };
    cfg.max_events = Some(w.max_events());
    cfg
}

/// `count` distinct indices in `0..n`, in ascending order.
fn distinct(rng: &mut Pcg32, count: usize, n: usize) -> Vec<usize> {
    assert!(count <= n);
    let mut picked = vec![false; n];
    let mut left = count;
    while left > 0 {
        let i = rng.gen_index(0, n);
        if !picked[i] {
            picked[i] = true;
            left -= 1;
        }
    }
    (0..n).filter(|&i| picked[i]).collect()
}

/// One competing task for the first `duty` of every `period`, shifted by
/// `phase`, until `horizon`; dedicated afterwards.
fn square_wave(
    period: SimDuration,
    duty: SimDuration,
    phase: SimDuration,
    horizon: SimDuration,
) -> LoadModel {
    assert!(duty < period && phase < period);
    let (period, duty, phase, horizon) = (
        period.micros(),
        duty.micros(),
        phase.micros(),
        horizon.micros(),
    );
    let mut points = Vec::new();
    // The wave that started before t = 0 may still be loaded at 0.
    if phase + duty > period {
        points.push((SimTime(0), 1));
        points.push((SimTime(phase + duty - period), 0));
    } else {
        points.push((SimTime(0), 0));
    }
    let mut start = phase;
    while start < horizon {
        points.push((SimTime(start), 1));
        points.push((SimTime(start + duty), 0));
        start += period;
    }
    LoadModel::Trace(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{} why too long", w.name());
        }
        assert_eq!(Workload::from_name("mm"), None);
    }

    #[test]
    fn square_wave_is_loaded_half_the_time() {
        let s = |x: u64| SimDuration::from_secs(x);
        let wave = square_wave(s(20), s(10), s(15), s(100));
        let at = |x: u64| wave.tasks_at(SimTime(x * 1_000_000));
        // Phase 15: loaded [15, 25), [35, 45), ... and the tail of the
        // wave that began at -5: [0, 5).
        assert_eq!(
            [at(0), at(4), at(5), at(14), at(15), at(24), at(25)],
            [1, 1, 0, 0, 1, 1, 0]
        );
        assert_eq!(at(99), 1);
        assert_eq!(at(200), 0);
    }

    #[test]
    fn clusters_repeat_per_seed_and_differ_across_seeds() {
        let loads = |w, seed, variant| {
            let cfg = cluster(w, seed, variant);
            let nodes: Vec<String> = cfg
                .slave_nodes
                .iter()
                .map(|n| format!("{:?}", n.load))
                .collect();
            (nodes, format!("{:?}", cfg.fault_plan))
        };
        for w in Workload::ALL {
            assert_eq!(loads(w, 7, 1), loads(w, 7, 1), "{}", w.name());
            assert_ne!(loads(w, 7, 1), loads(w, 8, 1), "{}", w.name());
            assert_ne!(loads(w, 7, 1), loads(w, 7, 2), "{}", w.name());
        }
        let sor = cluster(Workload::SorWide, 3, 0);
        let loaded = sor
            .slave_nodes
            .iter()
            .filter(|n| !n.load.is_dedicated())
            .count();
        assert_eq!(loaded, 16);
    }
}
