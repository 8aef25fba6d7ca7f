//! `TimedEngine`: an [`AmcEngine`] decorator that times every engine
//! call from outside the program.
//!
//! The decorator forwards every trait method to the wrapped engine —
//! including the buffer-reusing `inv_into`/`mvm_into`, so the batch hot
//! path is not replaced by the trait's allocating default — and adds
//! the call's wall time to a shared [`Probe`]. Clones (replicas, the
//! per-worker copies of a parallel batch, the server's cached solvers)
//! share the probe, so one probe sees every engine call of a workload.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use amc_linalg::Matrix;
use blockamc::engine::{AmcEngine, EngineStats, Operand};
use blockamc::Result;

/// Call count and summed wall time of one engine primitive.
#[derive(Debug, Default)]
struct OpTimer {
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl OpTimer {
    fn record(&self, started: Instant) {
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Statistics only: no other data is published through these.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn read(&self) -> OpTotals {
        OpTotals {
            calls: self.calls.load(Ordering::Relaxed),
            busy_s: self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }
}

/// A point-in-time reading of one [`OpTimer`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpTotals {
    /// Calls so far.
    pub calls: u64,
    /// Summed wall time of those calls, seconds.
    pub busy_s: f64,
}

impl std::ops::Add for OpTotals {
    type Output = OpTotals;

    fn add(self, rhs: OpTotals) -> OpTotals {
        OpTotals {
            calls: self.calls + rhs.calls,
            busy_s: self.busy_s + rhs.busy_s,
        }
    }
}

impl std::ops::Sub for OpTotals {
    type Output = OpTotals;

    fn sub(self, rhs: OpTotals) -> OpTotals {
        OpTotals {
            calls: self.calls - rhs.calls,
            busy_s: self.busy_s - rhs.busy_s,
        }
    }
}

/// A reading of all three primitives; subtract two readings to get the
/// engine work done between them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineTotals {
    /// `program` calls.
    pub program: OpTotals,
    /// `inv` and `inv_into` calls.
    pub inv: OpTotals,
    /// `mvm` and `mvm_into` calls.
    pub mvm: OpTotals,
}

impl EngineTotals {
    /// Wall time spent in `inv` + `mvm`, seconds.
    pub fn analog_ops_s(&self) -> f64 {
        self.inv.busy_s + self.mvm.busy_s
    }
}

impl std::ops::Add for EngineTotals {
    type Output = EngineTotals;

    fn add(self, rhs: EngineTotals) -> EngineTotals {
        EngineTotals {
            program: self.program + rhs.program,
            inv: self.inv + rhs.inv,
            mvm: self.mvm + rhs.mvm,
        }
    }
}

impl std::ops::Sub for EngineTotals {
    type Output = EngineTotals;

    fn sub(self, rhs: EngineTotals) -> EngineTotals {
        EngineTotals {
            program: self.program - rhs.program,
            inv: self.inv - rhs.inv,
            mvm: self.mvm - rhs.mvm,
        }
    }
}

/// Shared sink of every [`TimedEngine`] clone.
///
/// With lanes on, the probe also keeps, per thread, the window from the
/// start of its first engine call to the end of its last one. A worker
/// of a parallel batch makes engine calls back to back until its
/// shards run out, so the window is that worker's busy time, measured
/// without touching the pool.
#[derive(Debug, Default)]
pub struct Probe {
    program: OpTimer,
    inv: OpTimer,
    mvm: OpTimer,
    lanes: Option<Mutex<HashMap<ThreadId, (Instant, Instant)>>>,
}

impl Probe {
    /// A probe counting calls and busy time only.
    pub fn new() -> Arc<Probe> {
        Arc::new(Probe::default())
    }

    /// A probe that also keeps per-thread busy windows
    /// (see [`Probe::take_lane_busy_s`]).
    pub fn with_lanes() -> Arc<Probe> {
        Arc::new(Probe {
            lanes: Some(Mutex::new(HashMap::new())),
            ..Probe::default()
        })
    }

    /// The current totals.
    pub fn totals(&self) -> EngineTotals {
        EngineTotals {
            program: self.program.read(),
            inv: self.inv.read(),
            mvm: self.mvm.read(),
        }
    }

    /// Sums and clears the per-thread busy windows recorded since the
    /// last call: the summed worker busy time, seconds (0 without
    /// lanes).
    pub fn take_lane_busy_s(&self) -> f64 {
        let Some(lanes) = &self.lanes else {
            return 0.0;
        };
        let mut lanes = lanes
            .lock()
            .expect("probe lane lock poisoned by a panicking worker");
        let busy = lanes
            .values()
            .map(|(first, last)| last.duration_since(*first).as_secs_f64())
            .sum();
        lanes.clear();
        busy
    }

    fn record(&self, timer: &OpTimer, started: Instant) {
        timer.record(started);
        if let Some(lanes) = &self.lanes {
            let now = Instant::now();
            let mut lanes = lanes
                .lock()
                .expect("probe lane lock poisoned by a panicking worker");
            lanes
                .entry(std::thread::current().id())
                .and_modify(|window| window.1 = now)
                .or_insert((started, now));
        }
    }
}

/// An engine whose every call is timed into a shared [`Probe`];
/// outputs are the wrapped engine's, bit for bit.
#[derive(Debug, Clone)]
pub struct TimedEngine<E> {
    inner: E,
    probe: Arc<Probe>,
}

impl<E> TimedEngine<E> {
    /// Wraps `inner`, timing its calls into `probe`.
    pub fn new(inner: E, probe: Arc<Probe>) -> Self {
        TimedEngine { inner, probe }
    }
}

impl<E: AmcEngine + Clone + 'static> AmcEngine for TimedEngine<E> {
    fn program(&mut self, a: &Matrix) -> Result<Operand> {
        let started = Instant::now();
        let out = self.inner.program(a);
        self.probe.record(&self.probe.program, started);
        out
    }

    fn inv(&mut self, operand: &mut Operand, b: &[f64]) -> Result<Vec<f64>> {
        let started = Instant::now();
        let out = self.inner.inv(operand, b);
        self.probe.record(&self.probe.inv, started);
        out
    }

    fn mvm(&mut self, operand: &mut Operand, x: &[f64]) -> Result<Vec<f64>> {
        let started = Instant::now();
        let out = self.inner.mvm(operand, x);
        self.probe.record(&self.probe.mvm, started);
        out
    }

    fn inv_into(&mut self, operand: &mut Operand, b: &[f64], out: &mut Vec<f64>) -> Result<()> {
        let started = Instant::now();
        let done = self.inner.inv_into(operand, b, out);
        self.probe.record(&self.probe.inv, started);
        done
    }

    fn mvm_into(&mut self, operand: &mut Operand, x: &[f64], out: &mut Vec<f64>) -> Result<()> {
        let started = Instant::now();
        let done = self.inner.mvm_into(operand, x, out);
        self.probe.record(&self.probe.mvm, started);
        done
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn stats(&self) -> EngineStats {
        self.inner.stats()
    }

    fn clone_boxed(&self) -> Box<dyn AmcEngine> {
        Box::new(self.clone())
    }
}
