//! Pipelined batch solving.
//!
//! The macro's two S&H banks exist so that "the pipelining of the
//! algorithm … improv\[es\] the throughput of the system" (paper §III.B):
//! while problem *k* drains through steps 3–5, problem *k+1* can already
//! occupy the earlier phases. This module solves a batch of right-hand
//! sides against one prepared facade solver (arrays programmed once —
//! matrices are nonvolatile) and reports both the solutions and the
//! pipelined/unpipelined timing derived from the macro model.
//!
//! Batches run through [`crate::solver::PreparedSolver::solve_batch`],
//! so any architecture and per-level signal plan the facade supports can
//! be batched.

use amc_circuit::opamp::OpAmpSpec;
use amc_circuit::timing;
use amc_linalg::Matrix;

use crate::engine::{AmcEngine, EngineStats};
use crate::macro_model::MacroTiming;
use crate::solver::BlockAmcSolver;
use crate::Result;

/// Result of a batch solve.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSolution {
    /// One solution per right-hand side, in input order.
    pub solutions: Vec<Vec<f64>>,
    /// Macro timing (per-phase settle times fed by the circuit model).
    pub timing: MacroTiming,
    /// Total batch latency with pipelining: the first solve pays the full
    /// 5-phase latency, each subsequent one only a cycle.
    pub batch_time_pipelined_s: f64,
    /// Total batch latency without pipelining (solves strictly serialize).
    pub batch_time_unpipelined_s: f64,
    /// Engine cost of the whole batch call — the one preparation plus
    /// every solve, summed over *all* workers for the parallel path
    /// (each replica's counters are folded in, so nothing executed on a
    /// stolen shard goes missing). Identical at every worker count.
    pub stats: EngineStats,
}

impl BatchSolution {
    /// Throughput speedup delivered by the S&H double-buffering for this
    /// batch.
    pub fn pipeline_speedup(&self) -> f64 {
        if self.batch_time_pipelined_s == 0.0 {
            1.0
        } else {
            self.batch_time_unpipelined_s / self.batch_time_pipelined_s
        }
    }

    /// Total batch latency when the batch is sharded across `workers`
    /// independently-programmed macro instances, each pipelining its own
    /// shard — the multi-macro extension of the paper's §III.B timing
    /// model.
    ///
    /// The `k` right-hand sides are dealt as evenly as possible, so the
    /// slowest macro processes `⌈k/workers⌉` of them: it fills its
    /// five-phase pipe once (`latency_s`) and then retires one solution
    /// per `cycle_s`. `workers` is clamped to at least 1; with more
    /// workers than right-hand sides every macro solves at most one RHS
    /// and the batch takes a single pipeline latency.
    pub fn batch_time_parallel_s(&self, workers: usize) -> f64 {
        let k = self.solutions.len();
        if k == 0 {
            return 0.0;
        }
        let per_macro = k.div_ceil(workers.max(1)) as f64;
        self.timing.latency_s + (per_macro - 1.0) * self.timing.cycle_s
    }
}

/// Estimates the five per-phase settle times of a one-stage macro for the
/// partitioned matrix `a` (INV phases from the block eigenvalues, MVM
/// phases from row-conductance sums).
///
/// # Errors
///
/// Propagates timing-model failures (e.g. a singular block).
pub fn phase_settle_times(a: &Matrix, opamp: &OpAmpSpec) -> Result<[f64; 5]> {
    let p = crate::partition::BlockPartition::halves(a)?;
    let a4s = p.schur_complement()?;
    let eps = timing::DEFAULT_SETTLE_EPSILON;
    let norm = |m: &Matrix| m.scaled(1.0 / m.max_abs().max(f64::MIN_POSITIVE));
    let inv1 = timing::inv_settle_time(&norm(&p.a1), opamp, eps)?;
    let inv3 = timing::inv_settle_time(&norm(&a4s), opamp, eps)?;
    // MVM phases: row-sum-based (normalized matrices have max element 1).
    let mvm_row = |m: &Matrix| {
        let nm = norm(m);
        nm.norm_inf()
    };
    let mvm2 = timing::mvm_settle_time(mvm_row(&p.a3), opamp, eps)?;
    let mvm4 = timing::mvm_settle_time(mvm_row(&p.a2), opamp, eps)?;
    Ok([inv1, mvm2, inv3, mvm4, inv1])
}

/// Prepares `a` once on the facade solver, solves every right-hand side
/// of `batch` against the programmed arrays, and derives the pipeline
/// timing; `conversion_s` is the DAC/ADC conversion time.
///
/// The timing model describes the one-stage macro's five phases (the
/// midpoint partition of `a`), matching the paper's pipelining analysis;
/// the solutions honour whatever architecture and signal plan `solver`
/// is configured with.
///
/// # Errors
///
/// * [`crate::BlockAmcError::InvalidConfig`] for an empty batch.
/// * Preparation, shape, and engine failures per solve.
pub fn solve_batch<E: AmcEngine>(
    solver: &mut BlockAmcSolver<E>,
    a: &Matrix,
    batch: &[Vec<f64>],
    opamp: &OpAmpSpec,
    conversion_s: f64,
) -> Result<BatchSolution> {
    // Reject before programming: a failed call must not consume the
    // engine's variation stream or pollute its stats.
    if batch.is_empty() {
        return Err(crate::BlockAmcError::config(
            "batch must contain at least one RHS",
        ));
    }
    let before = solver.engine().stats();
    let span = solver.recorder_mut().enter("batch");
    let solutions = solver.prepare(a)?.solve_batch(batch)?;
    let rhs = batch.len() as f64;
    solver.recorder_mut().exit_with(span, &[("rhs", rhs)]);
    let stats = solver.engine().stats() - before;
    assemble_solution(solutions, stats, a, batch.len(), opamp, conversion_s)
}

/// Derives the pipeline timing and packs a [`BatchSolution`].
fn assemble_solution(
    solutions: Vec<Vec<f64>>,
    stats: EngineStats,
    a: &Matrix,
    k: usize,
    opamp: &OpAmpSpec,
    conversion_s: f64,
) -> Result<BatchSolution> {
    let phases = phase_settle_times(a, opamp)?;
    let timing = MacroTiming::from_phase_times(phases, conversion_s)?;
    let k = k as f64;
    // Pipelined: fill the 5-stage pipe once, then one result per cycle.
    let batch_time_pipelined_s = timing.latency_s + (k - 1.0) * timing.cycle_s;
    let batch_time_unpipelined_s = k * timing.latency_s;
    Ok(BatchSolution {
        solutions,
        timing,
        batch_time_pipelined_s,
        batch_time_unpipelined_s,
        stats,
    })
}

/// Number of shards dealt per worker: a few more shards than workers
/// keeps the stealing pool balanced when solve times vary (deeper
/// recursion on some shards, OS jitter) without shrinking shards into
/// scheduling noise.
pub(crate) const SHARDS_PER_WORKER: usize = 4;

/// Parallel [`solve_batch`]: prepares `a` once, replicates the prepared
/// solver across `workers` independently-owned macro instances
/// ([`crate::solver::PreparedSolver::replicate`]), and shards the
/// right-hand sides over a work-stealing pool (`amc_par`).
///
/// **Bit-identical to the serial path at every worker count.** Each
/// replica shares the arrays programmed by the one `prepare` call —
/// the same effective conductances, hence the same variation draw — so a right-hand side produces the same solution no
/// matter which worker solves it, and the merged output (always in
/// input order) equals `solve_batch`'s exactly. `workers == 1` runs
/// the serial path itself.
///
/// Worker 0 drives the original prepared arrays directly, so only
/// `workers − 1` replicas are cloned. As a consequence `solver`'s
/// engine counters reflect the preparation plus whatever shards worker
/// 0 happened to execute — a scheduling-dependent *count*; the
/// solutions themselves are scheduling-independent. The replicas'
/// counters are not lost: every worker's delta is summed into
/// [`BatchSolution::stats`], which therefore reports the full batch
/// cost (one preparation + all solves) at every worker count.
///
/// # Errors
///
/// * [`crate::BlockAmcError::InvalidConfig`] for an empty batch or
///   `workers == 0`.
/// * Preparation, shape, and engine failures per solve.
pub fn solve_batch_parallel<E: AmcEngine + Clone + Send>(
    solver: &mut BlockAmcSolver<E>,
    a: &Matrix,
    batch: &[Vec<f64>],
    opamp: &OpAmpSpec,
    conversion_s: f64,
    workers: usize,
) -> Result<BatchSolution> {
    if batch.is_empty() {
        return Err(crate::BlockAmcError::config(
            "batch must contain at least one RHS",
        ));
    }
    if workers == 0 {
        return Err(crate::BlockAmcError::config(
            "parallel batch needs at least one worker",
        ));
    }
    let before = solver.engine().stats();
    let mut prepared = solver.prepare(a)?;
    if workers == 1 {
        let solutions = prepared.solve_batch(batch)?;
        let stats = prepared.engine().stats() - before;
        return assemble_solution(solutions, stats, a, batch.len(), opamp, conversion_s);
    }
    // Replicas clone the engine *after* preparation, so their counters
    // start at this baseline; only what they solve on top is theirs.
    let replica_base = prepared.engine().stats();
    // Worker 0 owns the original programmed arrays; workers 1.. own
    // bitwise replicas — `workers` solving instances, `workers − 1`
    // copies.
    let replicas = prepared.replicate(workers - 1);
    let mut states: Vec<ShardWorker<'_, '_, E>> = Vec::with_capacity(workers);
    states.push(ShardWorker::Original(&mut prepared));
    states.extend(
        replicas
            .into_iter()
            .map(|r| ShardWorker::Replica(Box::new(r))),
    );
    // Contiguous shards, several per worker; input order is restored by
    // the index-preserving pool merge.
    let shard_len = batch.len().div_ceil(workers * SHARDS_PER_WORKER).max(1);
    let shards: Vec<&[Vec<f64>]> = batch.chunks(shard_len).collect();
    let sharded = amc_par::map_with_states(&mut states, shards, |worker, _, shard| {
        shard
            .iter()
            .map(|b| worker.solve_x(b))
            .collect::<Result<Vec<_>>>()
    });
    let mut solutions = Vec::with_capacity(batch.len());
    for shard in sharded {
        solutions.extend(shard?);
    }
    // Aggregate the per-worker counters: worker 0's delta (preparation
    // plus its shards) plus each replica's solves-only delta.
    let mut stats = EngineStats::default();
    for state in &states {
        stats += match state {
            ShardWorker::Original(prepared) => prepared.engine().stats() - before,
            ShardWorker::Replica(replica) => replica.engine().stats() - replica_base,
        };
    }
    assemble_solution(solutions, stats, a, batch.len(), opamp, conversion_s)
}

/// A shard worker's solving instance: the caller's prepared solver
/// (worker 0) or an owned replica (the rest). Either way the programmed
/// array values are identical, which is what keeps sharding invisible
/// in the output.
enum ShardWorker<'p, 'e, E: AmcEngine> {
    Original(&'p mut crate::solver::PreparedSolver<'e, E>),
    /// Boxed: a replica owns engine + config + tree, far larger than
    /// the borrow in [`ShardWorker::Original`].
    Replica(Box<crate::solver::SolverReplica<E>>),
}

impl<E: AmcEngine> ShardWorker<'_, '_, E> {
    fn solve_x(&mut self, b: &[f64]) -> Result<Vec<f64>> {
        match self {
            ShardWorker::Original(prepared) => prepared.solve(b).map(|r| r.x),
            ShardWorker::Replica(replica) => replica.solve(b).map(|r| r.x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NumericEngine;
    use crate::solver::Stages;
    use amc_linalg::{generate, lu, vector};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup(n: usize) -> (Matrix, Vec<Vec<f64>>) {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = generate::wishart_default(n, &mut rng).unwrap();
        let batch = (0..4)
            .map(|_| generate::random_vector(n, &mut rng))
            .collect();
        (a, batch)
    }

    fn one_stage_solver() -> BlockAmcSolver<NumericEngine> {
        BlockAmcSolver::new(NumericEngine::new(), Stages::One)
    }

    #[test]
    fn batch_solutions_match_individual_solves() {
        let (a, batch) = setup(12);
        let mut solver = one_stage_solver();
        let out = solve_batch(&mut solver, &a, &batch, &OpAmpSpec::ideal(), 1e-7).unwrap();
        assert_eq!(out.solutions.len(), 4);
        for (b, x) in batch.iter().zip(&out.solutions) {
            let x_ref = lu::solve(&a, b).unwrap();
            assert!(vector::approx_eq(x, &x_ref, 1e-8));
        }
    }

    #[test]
    fn arrays_programmed_once_for_the_whole_batch() {
        let (a, batch) = setup(8);
        let mut solver = one_stage_solver();
        let _ = solve_batch(&mut solver, &a, &batch, &OpAmpSpec::ideal(), 0.0).unwrap();
        assert_eq!(solver.engine().stats().program_ops, 4); // A1, A2, A3, A4s once
        assert_eq!(solver.engine().stats().inv_ops, 3 * 4); // 3 INVs per solve
    }

    #[test]
    fn batch_runs_any_architecture() {
        // The pre-redesign API could only batch the one-stage module
        // path; the facade routing batches deeper cascades too.
        let (a, batch) = setup(16);
        let mut solver = BlockAmcSolver::new(NumericEngine::new(), Stages::Two);
        let out = solve_batch(&mut solver, &a, &batch, &OpAmpSpec::ideal(), 0.0).unwrap();
        for (b, x) in batch.iter().zip(&out.solutions) {
            let x_ref = lu::solve(&a, b).unwrap();
            assert!(vector::approx_eq(x, &x_ref, 1e-8));
        }
        // 16 quarter-size arrays, programmed once for the whole batch.
        assert_eq!(solver.engine().stats().program_ops, 16);
    }

    #[test]
    fn pipelining_approaches_5x_for_long_batches() {
        let (a, _) = setup(8);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let batch: Vec<Vec<f64>> = (0..50)
            .map(|_| generate::random_vector(8, &mut rng))
            .collect();
        let mut solver = one_stage_solver();
        let out = solve_batch(&mut solver, &a, &batch, &OpAmpSpec::ideal(), 0.0).unwrap();
        let speedup = out.pipeline_speedup();
        assert!(speedup > 3.0, "speedup {speedup}");
        assert!(speedup <= 5.0 + 1e-9);
    }

    #[test]
    fn phase_times_are_positive_and_inv_phases_match() {
        let (a, _) = setup(10);
        let phases = phase_settle_times(&a, &OpAmpSpec::ideal()).unwrap();
        assert!(phases.iter().all(|&t| t > 0.0));
        assert_eq!(phases[0], phases[4], "steps 1 and 5 share the A1 array");
    }

    #[test]
    fn empty_batch_rejected_before_any_programming() {
        let (a, _) = setup(8);
        let mut solver = one_stage_solver();
        assert!(solve_batch(&mut solver, &a, &[], &OpAmpSpec::ideal(), 0.0).is_err());
        // Validation precedes side effects: no arrays were programmed.
        assert_eq!(solver.engine().stats().program_ops, 0);
    }

    #[test]
    fn parallel_batch_is_bit_identical_to_serial() {
        use crate::engine::{CircuitEngine, CircuitEngineConfig};
        let (a, _) = setup(16);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let batch: Vec<Vec<f64>> = (0..13)
            .map(|_| generate::random_vector(16, &mut rng))
            .collect();
        // Variation makes solutions draw-dependent: identity across
        // worker counts then proves the replicas share the draw.
        let serial = {
            let engine = CircuitEngine::new(CircuitEngineConfig::paper_variation(), 7);
            let mut solver = BlockAmcSolver::new(engine, Stages::One);
            solve_batch(&mut solver, &a, &batch, &OpAmpSpec::ideal(), 0.0).unwrap()
        };
        for workers in [1usize, 2, 4] {
            let engine = CircuitEngine::new(CircuitEngineConfig::paper_variation(), 7);
            let mut solver = BlockAmcSolver::new(engine, Stages::One);
            let out =
                solve_batch_parallel(&mut solver, &a, &batch, &OpAmpSpec::ideal(), 0.0, workers)
                    .unwrap();
            assert_eq!(out.solutions, serial.solutions, "workers={workers}");
            assert_eq!(out.timing, serial.timing);
        }
    }

    #[test]
    fn parallel_batch_aggregates_stats_across_workers() {
        // Replica counters must be folded in, not dropped: the batch
        // stats report one preparation plus every solve, identically at
        // 1, 2, and 4 workers.
        let (a, _) = setup(16);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let batch: Vec<Vec<f64>> = (0..13)
            .map(|_| generate::random_vector(16, &mut rng))
            .collect();
        let mut expected = None;
        for workers in [1usize, 2, 4] {
            let mut solver = one_stage_solver();
            let out =
                solve_batch_parallel(&mut solver, &a, &batch, &OpAmpSpec::ideal(), 0.0, workers)
                    .unwrap();
            // One-stage tree: 4 arrays once, 3 INV + 2 MVM per solve.
            assert_eq!(out.stats.program_ops, 4, "workers={workers}");
            assert_eq!(out.stats.inv_ops, 3 * 13, "workers={workers}");
            assert_eq!(out.stats.mvm_ops, 2 * 13, "workers={workers}");
            match &expected {
                None => expected = Some(out.stats),
                Some(first) => assert_eq!(&out.stats, first, "workers={workers}"),
            }
        }
        // The serial convenience path reports the same totals.
        let mut solver = one_stage_solver();
        let serial = solve_batch(&mut solver, &a, &batch, &OpAmpSpec::ideal(), 0.0).unwrap();
        assert_eq!(Some(serial.stats), expected);
    }

    #[test]
    fn parallel_batch_validates_inputs() {
        let (a, batch) = setup(8);
        let mut solver = one_stage_solver();
        assert!(
            solve_batch_parallel(&mut solver, &a, &batch, &OpAmpSpec::ideal(), 0.0, 0).is_err()
        );
        assert!(solve_batch_parallel(&mut solver, &a, &[], &OpAmpSpec::ideal(), 0.0, 2).is_err());
    }

    #[test]
    fn parallel_timing_model_matches_hand_computation() {
        let timing = MacroTiming::from_phase_times([1e-6; 5], 1e-6).unwrap();
        let k = 10;
        let sol = BatchSolution {
            solutions: vec![vec![0.0]; k],
            timing,
            batch_time_pipelined_s: timing.latency_s + 9.0 * timing.cycle_s,
            batch_time_unpipelined_s: 10.0 * timing.latency_s,
            stats: EngineStats::default(),
        };
        let (lat, cyc) = (timing.latency_s, timing.cycle_s);
        // One macro: the pipelined time itself.
        assert_eq!(sol.batch_time_parallel_s(1), sol.batch_time_pipelined_s);
        // Two macros: slowest shard has ⌈10/2⌉ = 5 solves.
        assert_eq!(sol.batch_time_parallel_s(2), lat + 4.0 * cyc);
        // Three macros: ⌈10/3⌉ = 4 solves on the slowest.
        assert_eq!(sol.batch_time_parallel_s(3), lat + 3.0 * cyc);
        // More macros than RHS: a single pipeline latency.
        assert_eq!(sol.batch_time_parallel_s(16), lat);
        // workers = 0 is clamped to one macro.
        assert_eq!(sol.batch_time_parallel_s(0), sol.batch_time_pipelined_s);
    }
}
