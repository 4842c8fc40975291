//! The traced run's view of the `apps` layer: delegating kernels that time
//! every call into the wrapped kernel and count its floating-point work.
//!
//! The wrappers forward every trait method unchanged — including the cost
//! model the simulator charges — so a traced job simulates exactly what an
//! untraced one does; only host time is added.

use crate::workloads::App;
use dlb_core::driver::AppSpec;
use dlb_core::kernels::{IndependentKernel, PipelinedKernel, ShrinkingKernel};
use dlb_core::msg::UnitData;
use dlb_sim::CpuWork;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Host time and work spent inside kernel calls. Calls may run on several
/// pool workers at once, so `busy` sums per-call time across threads.
#[derive(Debug, Default)]
pub struct Meter {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    flops: AtomicU64,
}

/// A reading of a [`Meter`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MeterReading {
    pub calls: u64,
    pub busy_s: f64,
    pub flops: u64,
}

impl Meter {
    /// Time `f` as one call doing `flops` operations. The counters only
    /// publish statistics, so `Relaxed` suffices.
    fn time<R>(&self, flops: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.flops.fetch_add(flops, Ordering::Relaxed);
        out
    }

    pub fn read(&self) -> MeterReading {
        MeterReading {
            calls: self.calls.load(Ordering::Relaxed),
            busy_s: self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            flops: self.flops.load(Ordering::Relaxed),
        }
    }
}

/// The workload's kernel behind a timing wrapper, sharing `meter`. Flop
/// counts follow the kernels' own cost models: 2n² per MM row, 6 per SOR
/// element, one division plus 2 per trailing row of an LU column update.
pub fn timed_spec(app: &App, meter: Arc<Meter>) -> AppSpec {
    match app {
        App::Mm(k) => AppSpec::Independent(Arc::new(TimedIndependent {
            flops_per_call: 2 * (k.n() * k.n()) as u64,
            inner: k.clone(),
            meter,
        })),
        App::Sor(k) => AppSpec::Pipelined(Arc::new(TimedPipelined {
            inner: k.clone(),
            meter,
            flops_per_elem: 6,
        })),
        App::Lu(k) => AppSpec::Shrinking(Arc::new(TimedShrinking {
            inner: k.clone(),
            meter,
        })),
    }
}

struct TimedIndependent {
    inner: Arc<dyn IndependentKernel>,
    meter: Arc<Meter>,
    flops_per_call: u64,
}

impl IndependentKernel for TimedIndependent {
    fn n_units(&self) -> usize {
        self.inner.n_units()
    }
    fn invocations(&self) -> u64 {
        self.inner.invocations()
    }
    fn init_unit(&self, idx: usize) -> UnitData {
        self.inner.init_unit(idx)
    }
    fn compute(&self, idx: usize, unit: &mut UnitData, invocation: u64) {
        self.meter.time(self.flops_per_call, || {
            self.inner.compute(idx, unit, invocation)
        })
    }
    fn unit_cost(&self) -> CpuWork {
        self.inner.unit_cost()
    }
    fn unit_cost_for(&self, idx: usize, invocation: u64) -> CpuWork {
        self.inner.unit_cost_for(idx, invocation)
    }
    fn local_metric(&self, idx: usize, unit: &UnitData) -> f64 {
        self.inner.local_metric(idx, unit)
    }
    fn converged(&self, invocation: u64, metric: f64) -> bool {
        self.inner.converged(invocation, metric)
    }
}

struct TimedPipelined {
    inner: Arc<dyn PipelinedKernel>,
    meter: Arc<Meter>,
    flops_per_elem: u64,
}

impl PipelinedKernel for TimedPipelined {
    fn n_units(&self) -> usize {
        self.inner.n_units()
    }
    fn col_len(&self) -> usize {
        self.inner.col_len()
    }
    fn sweeps(&self) -> u64 {
        self.inner.sweeps()
    }
    fn init_unit(&self, idx: usize) -> Vec<f64> {
        self.inner.init_unit(idx)
    }
    fn left_wall(&self) -> Vec<f64> {
        self.inner.left_wall()
    }
    fn right_wall(&self) -> Vec<f64> {
        self.inner.right_wall()
    }
    fn compute_block(
        &self,
        col: &mut [f64],
        left: &[f64],
        right_old: &[f64],
        rows: std::ops::Range<usize>,
    ) {
        let flops = self.flops_per_elem * rows.len() as u64;
        self.meter.time(flops, || {
            self.inner.compute_block(col, left, right_old, rows)
        })
    }
    fn elem_cost(&self) -> CpuWork {
        self.inner.elem_cost()
    }
}

struct TimedShrinking {
    inner: Arc<dyn ShrinkingKernel>,
    meter: Arc<Meter>,
}

impl ShrinkingKernel for TimedShrinking {
    fn n_units(&self) -> usize {
        self.inner.n_units()
    }
    fn init_unit(&self, idx: usize) -> Vec<f64> {
        self.inner.init_unit(idx)
    }
    fn pivot_payload(&self, k: usize, pivot_col: &[f64]) -> Vec<f64> {
        self.inner.pivot_payload(k, pivot_col)
    }
    fn update(&self, j: usize, col: &mut [f64], pivot: &[f64], k: usize) {
        let flops = 1 + 2 * col.len().saturating_sub(k + 1) as u64;
        self.meter
            .time(flops, || self.inner.update(j, col, pivot, k))
    }
    fn step_cost(&self, k: usize) -> CpuWork {
        self.inner.step_cost(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{build_app, Workload};

    /// Every wrapper returns what its kernel returns, call for call, and
    /// counts each timed call once.
    #[test]
    fn wrappers_delegate_exactly() {
        let meter = Arc::new(Meter::default());
        for w in Workload::ALL {
            let app = build_app(w, 5);
            match (app.spec(), timed_spec(&app, meter.clone())) {
                (AppSpec::Independent(k), AppSpec::Independent(t)) => {
                    assert_eq!(
                        (
                            k.n_units(),
                            k.invocations(),
                            k.unit_cost(),
                            k.unit_cost_for(3, 1)
                        ),
                        (
                            t.n_units(),
                            t.invocations(),
                            t.unit_cost(),
                            t.unit_cost_for(3, 1)
                        )
                    );
                    let (mut a, mut b) = (k.init_unit(3), t.init_unit(3));
                    assert_eq!(a, b);
                    k.compute(3, &mut a, 0);
                    t.compute(3, &mut b, 0);
                    assert_eq!(a, b);
                    assert_eq!(k.local_metric(3, &a), t.local_metric(3, &b));
                    assert_eq!(k.converged(0, 1.0), t.converged(0, 1.0));
                }
                (AppSpec::Pipelined(k), AppSpec::Pipelined(t)) => {
                    assert_eq!(
                        (k.n_units(), k.col_len(), k.sweeps(), k.elem_cost()),
                        (t.n_units(), t.col_len(), t.sweeps(), t.elem_cost())
                    );
                    assert_eq!(k.left_wall(), t.left_wall());
                    assert_eq!(k.right_wall(), t.right_wall());
                    let (mut a, mut b) = (k.init_unit(4), t.init_unit(4));
                    assert_eq!(a, b);
                    let (left, right) = (k.init_unit(3), k.init_unit(5));
                    k.compute_block(&mut a, &left, &right, 1..40);
                    t.compute_block(&mut b, &left, &right, 1..40);
                    assert_eq!(a, b);
                }
                (AppSpec::Shrinking(k), AppSpec::Shrinking(t)) => {
                    assert_eq!((k.n_units(), k.step_cost(2)), (t.n_units(), t.step_cost(2)));
                    let pivot_col = k.init_unit(0);
                    let pivot = k.pivot_payload(0, &pivot_col);
                    assert_eq!(pivot, t.pivot_payload(0, &pivot_col));
                    let (mut a, mut b) = (k.init_unit(7), t.init_unit(7));
                    assert_eq!(a, b);
                    k.update(7, &mut a, &pivot, 0);
                    t.update(7, &mut b, &pivot, 0);
                    assert_eq!(a, b);
                }
                _ => panic!("{}: wrapper changed the pattern", w.name()),
            }
        }
        let r = meter.read();
        assert_eq!(r.calls, 3);
        // MM row (2·512²) + 39 SOR elements (6 each) + LU step 0 on a
        // 320-long column (1 + 2·319).
        assert_eq!(r.flops, 2 * 512 * 512 + 39 * 6 + 1 + 2 * 319);
        assert!(r.busy_s > 0.0);
    }
}
