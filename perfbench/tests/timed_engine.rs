//! `TimedEngine` must not change a single output bit: wrapped and
//! unwrapped engines are compared with `f64::to_bits` through a direct
//! solve, replicas and a parallel batch, and a server whose registry
//! builds wrapped engines.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use amc_engine_simd::SimdEngine;
use amc_linalg::{generate, Matrix};
use amc_perfbench::timed::{Probe, TimedEngine};
use amc_perfbench::{boxed, two_stage};
use amc_serve::client::Client;
use amc_serve::server::{Server, ServerConfig};
use amc_serve::wire::{EngineRef, MatrixRef};
use blockamc::engine::{
    AmcEngine, CircuitEngine, CircuitEngineConfig, EngineRegistry, EngineStats, NumericEngine,
    Operand,
};
use blockamc::solver::BlockAmcSolver;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const N: usize = 32;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn inputs(seed: u64) -> (Matrix, Vec<Vec<f64>>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let a = generate::wishart_default(N, &mut rng).unwrap();
    let rhs = (0..6)
        .map(|_| generate::random_vector(N, &mut rng))
        .collect();
    (a, rhs)
}

/// Every output of one engine, in order: a direct solve of each
/// right-hand side, the same through a replica, and the whole set as a
/// parallel batch on two workers.
fn outputs<E: AmcEngine + Clone + 'static>(engine: E, a: &Matrix, rhs: &[Vec<f64>]) -> Vec<u64> {
    let mut solver = BlockAmcSolver::from_config(engine, two_stage());
    let mut prepared = solver.prepare(a).unwrap();
    let mut out = Vec::new();
    for b in rhs {
        out.extend(bits(&prepared.solve(b).unwrap().x));
    }
    let mut replica = prepared.replicate(1).remove(0);
    for b in rhs {
        out.extend(bits(&replica.solve(b).unwrap().x));
    }
    for x in replica.solve_batch_parallel(rhs, 2).unwrap() {
        out.extend(bits(&x));
    }
    out
}

fn assert_wrapping_is_invisible<E: AmcEngine + Clone + 'static>(engine: E) {
    let (a, rhs) = inputs(11);
    let probe = Probe::with_lanes();
    let plain = outputs(engine.clone(), &a, &rhs);
    let wrapped = outputs(
        TimedEngine::new(engine.clone(), Arc::clone(&probe)),
        &a,
        &rhs,
    );
    assert_eq!(
        plain,
        wrapped,
        "{} outputs changed under TimedEngine",
        engine.name()
    );
    let boxed = outputs(boxed(engine.clone(), &Some(Arc::clone(&probe))), &a, &rhs);
    assert_eq!(
        plain,
        boxed,
        "{} outputs changed behind the trait object",
        engine.name()
    );
    let seen = probe.totals();
    assert!(seen.program.calls > 0 && seen.inv.calls > 0 && seen.mvm.calls > 0);
}

#[test]
fn numeric_outputs_are_bit_identical() {
    assert_wrapping_is_invisible(NumericEngine::new());
}

#[test]
fn simd_outputs_are_bit_identical() {
    assert_wrapping_is_invisible(SimdEngine::new());
}

#[test]
fn circuit_outputs_are_bit_identical() {
    assert_wrapping_is_invisible(CircuitEngine::new(CircuitEngineConfig::paper_full(), 5));
}

#[test]
fn probe_counts_match_the_engine_counters() {
    let (a, rhs) = inputs(3);
    let probe = Probe::new();
    let mut solver = BlockAmcSolver::from_config(
        TimedEngine::new(NumericEngine::new(), Arc::clone(&probe)),
        two_stage(),
    );
    let mut prepared = solver.prepare(&a).unwrap();
    for b in &rhs {
        prepared.solve(b).unwrap();
    }
    let stats = prepared.engine().stats();
    let seen = probe.totals();
    assert_eq!(seen.program.calls, stats.program_ops as u64);
    assert_eq!(seen.inv.calls, stats.inv_ops as u64);
    assert_eq!(seen.mvm.calls, stats.mvm_ops as u64);
}

#[test]
fn served_answers_match_direct_solves_with_wrapped_registry() {
    let (a, rhs) = inputs(7);
    let probe = Probe::new();
    let mut registry = EngineRegistry::empty();
    let registered = Some(Arc::clone(&probe));
    registry.register("numeric", move |_seed| {
        Ok(boxed(NumericEngine::new(), &registered))
    });
    let server = Server::new(ServerConfig::default(), registry);
    let engine = EngineRef::new("numeric", 0);
    let config = two_stage();
    let mut client = Client::new(server.loopback());
    let (fingerprint, _) = client.prepare(&a, &config, &engine).unwrap();

    let mut direct = BlockAmcSolver::from_config(NumericEngine::new(), config.clone());
    let mut direct = direct.prepare(&a).unwrap();
    for b in &rhs {
        let served = client
            .solve(MatrixRef::Cached(fingerprint), &config, &engine, b)
            .unwrap();
        assert_eq!(bits(&served), bits(&direct.solve(b).unwrap().x));
    }
    drop(client);
    drop(server);
    assert!(
        probe.totals().inv.calls > 0,
        "the server's engines were not the wrapped ones"
    );
}

/// An engine whose allocating `inv`/`mvm` must never run: it proves the
/// decorator forwards the buffer-reusing entry points as themselves.
#[derive(Debug, Clone, Default)]
struct IntoOnly {
    inner: NumericEngine,
    into_calls: Arc<AtomicUsize>,
}

impl AmcEngine for IntoOnly {
    fn program(&mut self, a: &Matrix) -> blockamc::Result<Operand> {
        self.inner.program(a)
    }

    fn inv(&mut self, _: &mut Operand, _: &[f64]) -> blockamc::Result<Vec<f64>> {
        panic!("inv_into was replaced by the allocating inv")
    }

    fn mvm(&mut self, _: &mut Operand, _: &[f64]) -> blockamc::Result<Vec<f64>> {
        panic!("mvm_into was replaced by the allocating mvm")
    }

    fn inv_into(
        &mut self,
        op: &mut Operand,
        b: &[f64],
        out: &mut Vec<f64>,
    ) -> blockamc::Result<()> {
        self.into_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.inv_into(op, b, out)
    }

    fn mvm_into(
        &mut self,
        op: &mut Operand,
        x: &[f64],
        out: &mut Vec<f64>,
    ) -> blockamc::Result<()> {
        self.into_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.mvm_into(op, x, out)
    }

    fn name(&self) -> &'static str {
        "into-only"
    }

    fn stats(&self) -> EngineStats {
        self.inner.stats()
    }

    fn clone_boxed(&self) -> Box<dyn AmcEngine> {
        Box::new(self.clone())
    }
}

#[test]
fn buffer_reusing_calls_are_forwarded() {
    let engine = IntoOnly::default();
    let calls = Arc::clone(&engine.into_calls);
    let probe = Probe::new();
    let mut timed = TimedEngine::new(engine, Arc::clone(&probe));
    let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]).unwrap();
    let mut op = timed.program(&a).unwrap();
    let mut out = Vec::new();
    timed.inv_into(&mut op, &[4.0, 3.0], &mut out).unwrap();
    assert!((out[0] + 1.0).abs() < 1e-12 && (out[1] + 1.0).abs() < 1e-12);
    timed.mvm_into(&mut op, &[1.0, 1.0], &mut out).unwrap();
    assert_eq!(out, [-4.0, -3.0]);
    assert_eq!(calls.load(Ordering::Relaxed), 2);
    let seen = probe.totals();
    assert_eq!((seen.inv.calls, seen.mvm.calls), (1, 1));
}
