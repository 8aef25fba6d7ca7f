//! The per-layer metrics of a traced run.
//!
//! Every traced run prints all of them, on every workload. Busy times
//! and call counts are per op (the workload's unit of work: a prepare
//! plus a solve, a batch, a request, a trial). A layer the workload
//! does not exercise reads 0.

use crate::report::{metric, ratio, Metric};
use crate::timed::EngineTotals;

/// Per-layer metrics; see `README.md` for each one's definition.
#[derive(Debug, Clone, Default)]
#[allow(missing_docs)]
pub struct Layers {
    pub engine_program_calls: f64,
    pub engine_program_busy_s: f64,
    pub engine_inv_calls: f64,
    pub engine_inv_busy_s: f64,
    pub engine_mvm_calls: f64,
    pub engine_mvm_busy_s: f64,
    pub prepare_busy_s: f64,
    pub prepare_self_s: f64,
    pub prepare_vs_lu: f64,
    pub prepare_flops: f64,
    pub prepare_gflop_per_s: f64,
    pub cascade_busy_s: f64,
    pub cascade_self_s: f64,
    pub cascade_engine_share: f64,
    pub cascade_flops: f64,
    pub cascade_gflop_per_s: f64,
    pub batch_wall_s: f64,
    pub par_worker_busy_s: f64,
    pub par_idle_s: f64,
    pub par_efficiency: f64,
    pub serve_hit_latency_p50_ms: f64,
    pub serve_miss_latency_p50_ms: f64,
    pub serve_inline_resubmits: f64,
    pub serve_busy_retries: f64,
    pub cache_hit_ratio: f64,
    pub cache_evictions: f64,
    pub serve_wait_us_p50: f64,
    pub serve_dispatch_us_p50: f64,
    pub serve_batch_rhs_mean: f64,
    pub serve_dispatch_engine_share: f64,
    pub wire_codec_us: f64,
    pub serve_unattributed_share: f64,
    pub op_unattributed_share: f64,
    pub trace_overhead_ratio: f64,
}

impl Layers {
    /// Sets the engine metrics from the engine work of `ops` ops.
    pub fn set_engine(&mut self, engine: EngineTotals, ops: f64) {
        self.engine_program_calls = ratio(engine.program.calls as f64, ops);
        self.engine_program_busy_s = ratio(engine.program.busy_s, ops);
        self.engine_inv_calls = ratio(engine.inv.calls as f64, ops);
        self.engine_inv_busy_s = ratio(engine.inv.busy_s, ops);
        self.engine_mvm_calls = ratio(engine.mvm.calls as f64, ops);
        self.engine_mvm_busy_s = ratio(engine.mvm.busy_s, ops);
    }

    /// Sets the prepare metrics from one prepare's mean `busy_s`, the
    /// engine `program` time inside it, the plain-LU baseline time and
    /// the computed FLOPs.
    pub fn set_prepare(&mut self, busy_s: f64, program_s: f64, lu_s: f64, flops: f64) {
        self.prepare_busy_s = busy_s;
        self.prepare_self_s = busy_s - program_s;
        self.prepare_vs_lu = ratio(busy_s, lu_s);
        self.prepare_flops = flops;
        self.prepare_gflop_per_s = ratio(flops, busy_s) * 1e-9;
    }

    /// Sets the cascade metrics from one op's mean solve `busy_s`, the
    /// engine `inv` + `mvm` time inside it and the computed FLOPs.
    pub fn set_cascade(&mut self, busy_s: f64, engine_s: f64, flops: f64) {
        self.cascade_busy_s = busy_s;
        self.cascade_self_s = busy_s - engine_s;
        self.cascade_engine_share = ratio(engine_s, busy_s);
        self.cascade_flops = flops;
        self.cascade_gflop_per_s = ratio(flops, busy_s) * 1e-9;
    }

    /// All metrics, named and with units as in `BENCHMARK.json`.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric(
                "engine.program.calls",
                self.engine_program_calls,
                "count/op",
            ),
            metric("engine.program.busy_s", self.engine_program_busy_s, "s/op"),
            metric("engine.inv.calls", self.engine_inv_calls, "count/op"),
            metric("engine.inv.busy_s", self.engine_inv_busy_s, "s/op"),
            metric("engine.mvm.calls", self.engine_mvm_calls, "count/op"),
            metric("engine.mvm.busy_s", self.engine_mvm_busy_s, "s/op"),
            metric("prepare.busy_s", self.prepare_busy_s, "s/op"),
            metric("prepare.self_s", self.prepare_self_s, "s/op"),
            metric("prepare.vs_lu", self.prepare_vs_lu, "ratio"),
            metric("prepare.flops_computed", self.prepare_flops, "flop/op"),
            metric("prepare.gflop_per_s", self.prepare_gflop_per_s, "GFLOP/s"),
            metric("cascade.busy_s", self.cascade_busy_s, "s/op"),
            metric("cascade.self_s", self.cascade_self_s, "s/op"),
            metric("cascade.engine_share", self.cascade_engine_share, "ratio"),
            metric("cascade.flops_computed", self.cascade_flops, "flop/op"),
            metric("cascade.gflop_per_s", self.cascade_gflop_per_s, "GFLOP/s"),
            metric("batch.wall_s", self.batch_wall_s, "s/op"),
            metric("par.worker_busy_s", self.par_worker_busy_s, "s/op"),
            metric("par.idle_s", self.par_idle_s, "s/op"),
            metric("par.efficiency", self.par_efficiency, "ratio"),
            metric(
                "serve.hit_latency_p50_ms",
                self.serve_hit_latency_p50_ms,
                "ms",
            ),
            metric(
                "serve.miss_latency_p50_ms",
                self.serve_miss_latency_p50_ms,
                "ms",
            ),
            metric(
                "serve.inline_resubmits",
                self.serve_inline_resubmits,
                "count/op",
            ),
            metric("serve.busy_retries", self.serve_busy_retries, "count/op"),
            metric("cache.hit_ratio", self.cache_hit_ratio, "ratio"),
            metric("cache.evictions", self.cache_evictions, "count/op"),
            metric("serve.wait_us.p50", self.serve_wait_us_p50, "us"),
            metric("serve.dispatch_us.p50", self.serve_dispatch_us_p50, "us"),
            metric("serve.batch_rhs.mean", self.serve_batch_rhs_mean, "rhs"),
            metric(
                "serve.dispatch.engine_share",
                self.serve_dispatch_engine_share,
                "ratio",
            ),
            metric("wire.codec_us", self.wire_codec_us, "us"),
            metric(
                "serve.unattributed_share",
                self.serve_unattributed_share,
                "ratio",
            ),
            metric("op.unattributed_share", self.op_unattributed_share, "ratio"),
            metric("trace.overhead_ratio", self.trace_overhead_ratio, "ratio"),
        ]
    }
}
