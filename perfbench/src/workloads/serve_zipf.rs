//! `serve_zipf`: an in-process `amc-serve` server (numeric engine,
//! n = 256, cache of 8, 2 dispatcher workers, 1 batch worker) under two
//! closed-loop clients over loopback. Each request picks one of 32
//! matrices with Zipf(s = 1.1), tries `MatrixRef::Cached` first and
//! resubmits `Inline` on `NotPrepared`. Hits read through lookup → wait
//! → dispatch; misses write: inline prepare, LFU insert and evict.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use amc_linalg::lu::LuFactor;
use amc_linalg::{generate, Matrix};
use amc_obs::{HistogramSummary, MetricValue, MetricsSnapshot};
use amc_serve::client::Client;
use amc_serve::error::ServeError;
use amc_serve::server::{LoopbackTransport, Server, ServerConfig};
use amc_serve::wire::{EngineRef, MatrixRef, Request, Response};
use blockamc::engine::{EngineRegistry, NumericEngine};
use blockamc::solver::{BlockAmcSolver, SolverConfig, SolverReplica};
use rand::Rng;

use super::input_rng;
use crate::report::{median, ratio, rel_err};
use crate::timed::Probe;
use crate::{boxed, totals, Phase, Workload};

/// Problem size.
pub const N: usize = 256;
/// Distinct matrices requests pick from.
pub const MATRICES: usize = 32;
/// Zipf exponent of the matrix popularity.
pub const ZIPF_S: f64 = 1.1;
/// Concurrent closed-loop clients.
pub const CLIENTS: usize = 2;
/// One answer in this many is checked against a direct solve.
pub const CHECK_ONE_IN: u32 = 8;
/// Server cache capacity (prepared solvers).
pub const CACHE_CAPACITY: usize = 8;
/// `Busy` retries before a request gives up (and counts as failed).
const BUSY_RETRY_CAP: u32 = 64;
/// `NotPrepared` answers before a request gives up.
const RESUBMIT_CAP: u32 = 64;
const ENGINE: &str = "numeric";

/// Set-up state of `serve_zipf`.
pub struct ServeZipf {
    matrices: Vec<Matrix>,
    fingerprints: Vec<u64>,
    refs: Vec<LuFactor>,
    /// Direct solvers under the same configuration, for the
    /// bit-identity check of served answers.
    direct: Vec<Mutex<SolverReplica<NumericEngine>>>,
    /// Cumulative Zipf popularity over the matrices.
    cdf: Vec<f64>,
    config: SolverConfig,
    engine: EngineRef,
    seed: u64,
    probe: Option<Arc<Probe>>,
    server: Server,
}

/// One request as its client saw it.
struct Sent {
    latency_s: f64,
    ok: bool,
    /// Resubmitted inline after `NotPrepared` (a cache miss).
    inline: bool,
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    requests: Vec<Sent>,
    rel_errs: Vec<f64>,
    resubmits: u64,
    busy_retries: u64,
}

impl Workload for ServeZipf {
    const THREADS: &'static str =
        "2 closed-loop clients, 2 dispatcher workers, 1 batch worker, 1 connection thread per client";

    fn setup(seed: u64, traced: bool) -> Result<Self, String> {
        let mut rng = input_rng(seed, 3);
        let config = crate::two_stage();
        let matrices: Vec<Matrix> = (0..MATRICES)
            .map(|_| generate::diagonally_dominant(N, 1.0, &mut rng))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let refs = matrices
            .iter()
            .map(LuFactor::new_auto)
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let direct = matrices
            .iter()
            .map(|m| {
                let mut solver = BlockAmcSolver::from_config(NumericEngine::new(), config.clone());
                let prepared = solver.prepare(m).map_err(|e| e.to_string())?;
                Ok(Mutex::new(prepared.replicate(1).remove(0)))
            })
            .collect::<Result<_, String>>()?;

        let probe = traced.then(Probe::new);
        let mut registry = EngineRegistry::empty();
        let registered = probe.clone();
        registry.register(ENGINE, move |_seed| {
            Ok(boxed(NumericEngine::new(), &registered))
        });
        let server = Server::new(
            ServerConfig {
                cache_capacity: CACHE_CAPACITY,
                solver_workers: 2,
                batch_workers: 1,
                ..ServerConfig::default()
            },
            registry,
        );
        // Warm the cache with the most popular matrices.
        let engine = EngineRef::new(ENGINE, 0);
        let mut client = Client::new(server.loopback());
        let fingerprints = matrices
            .iter()
            .enumerate()
            .map(|(i, m)| {
                if i < CACHE_CAPACITY {
                    client.prepare(m, &config, &engine).map(|(fp, _)| fp)
                } else {
                    Ok(m.fingerprint())
                }
            })
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;

        let weights: Vec<f64> = (1..=MATRICES).map(|k| (k as f64).powf(-ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        Ok(ServeZipf {
            matrices,
            fingerprints,
            refs,
            direct,
            cdf,
            config,
            engine,
            seed,
            probe,
            server,
        })
    }

    fn measure(&mut self, seconds: f64) -> Phase {
        let stats0 = self.server.stats();
        let e0 = totals(&self.probe);
        let mut phase = Phase::start();
        let deadline = phase.started + Duration::from_secs_f64(seconds);
        let this = &*self;
        let logs: Vec<ClientLog> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let transport = this.server.loopback();
                    scope.spawn(move || this.client_loop(c, transport, deadline))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        phase.wall_s = Some(phase.started.elapsed().as_secs_f64());

        let (mut hit_s, mut miss_s) = (Vec::new(), Vec::new());
        let (mut resubmits, mut busy_retries) = (0, 0);
        for log in logs {
            for sent in log.requests {
                phase.record(sent.latency_s, 1, sent.ok);
                match (sent.ok, sent.inline) {
                    (true, false) => hit_s.push(sent.latency_s),
                    (true, true) => miss_s.push(sent.latency_s),
                    (false, _) => {}
                }
            }
            phase.rel_errs.extend(log.rel_errs);
            resubmits += log.resubmits;
            busy_retries += log.busy_retries;
        }

        if self.probe.is_some() {
            let requests = phase.attempted() as f64;
            let stats = self.server.stats();
            let engine = totals(&self.probe) - e0;
            let metrics = self.server.metrics();
            let wait = histogram(&metrics, "serve.wait_us");
            let dispatch = histogram(&metrics, "serve.dispatch_us");
            let batch_rhs = histogram(&metrics, "serve.batch_rhs");
            let codec_us = self.codec_us();
            let hit_p50_ms = median(&hit_s) * 1e3;
            let layers = &mut phase.layers;
            layers.set_engine(engine, requests);
            layers.serve_hit_latency_p50_ms = hit_p50_ms;
            layers.serve_miss_latency_p50_ms = median(&miss_s) * 1e3;
            layers.serve_inline_resubmits = resubmits as f64 / requests;
            layers.serve_busy_retries = busy_retries as f64 / requests;
            let (hits, misses) = (stats.hits - stats0.hits, stats.misses - stats0.misses);
            layers.cache_hit_ratio = ratio(hits as f64, (hits + misses) as f64);
            layers.cache_evictions = (stats.evictions - stats0.evictions) as f64 / requests;
            layers.serve_wait_us_p50 = wait.p50 as f64;
            layers.serve_dispatch_us_p50 = dispatch.p50 as f64;
            layers.serve_batch_rhs_mean = batch_rhs.mean;
            let dispatch_s = dispatch.mean * dispatch.count as f64 * 1e-6;
            layers.serve_dispatch_engine_share = ratio(engine.analog_ops_s(), dispatch_s);
            layers.wire_codec_us = codec_us;
            layers.serve_unattributed_share = 1.0
                - ratio(
                    wait.p50 as f64 + dispatch.p50 as f64 + codec_us,
                    hit_p50_ms * 1e3,
                );
            layers.op_unattributed_share = layers.serve_unattributed_share;
        }
        phase
    }
}

impl ServeZipf {
    /// One closed-loop client: requests until `deadline`, each timed
    /// from first send to answer, then checked.
    fn client_loop(&self, c: usize, transport: LoopbackTransport, deadline: Instant) -> ClientLog {
        let mut client = Client::new(transport);
        let mut rng = input_rng(self.seed, 30 + c as u64);
        let mut log = ClientLog::default();
        while Instant::now() < deadline {
            let u: f64 = rng.gen();
            let pick = self.cdf.partition_point(|&c| c < u).min(MATRICES - 1);
            let b = generate::random_vector(N, &mut rng);
            let check = rng.gen_range(0..CHECK_ONE_IN) == 0;

            let t0 = Instant::now();
            let (mut inline, mut resubmits, mut busy) = (false, 0u32, 0u32);
            let answer = loop {
                let matrix = if inline {
                    MatrixRef::Inline(self.matrices[pick].clone())
                } else {
                    MatrixRef::Cached(self.fingerprints[pick])
                };
                match client.solve(matrix, &self.config, &self.engine, &b) {
                    // Not cached (or evicted before dispatch): resubmit
                    // the matrix inline, as `amc_serve::loadgen` does.
                    Err(ServeError::NotPrepared { .. }) if resubmits < RESUBMIT_CAP => {
                        inline = true;
                        resubmits += 1;
                    }
                    Err(ServeError::Busy) if busy < BUSY_RETRY_CAP => {
                        std::thread::sleep(Duration::from_micros(100 << busy.min(5)));
                        busy += 1;
                    }
                    other => break other,
                }
            };
            let latency_s = t0.elapsed().as_secs_f64();
            log.resubmits += u64::from(resubmits);
            log.busy_retries += u64::from(busy);

            // Checks run after the timer.
            let ok = match answer {
                Ok(x) if x.iter().all(|v| v.is_finite()) => {
                    !check || self.check(pick, &b, &x, &mut log)
                }
                _ => false,
            };
            log.requests.push(Sent {
                latency_s,
                ok,
                inline,
            });
        }
        log
    }

    /// A served answer must equal a direct solve bit for bit; its
    /// distance from the LU reference is recorded.
    fn check(&self, pick: usize, b: &[f64], x: &[f64], log: &mut ClientLog) -> bool {
        let direct = self.direct[pick]
            .lock()
            .expect("direct solver lock poisoned by a panicking client")
            .solve(b);
        let Ok(direct) = direct else {
            return false;
        };
        let reference = self.refs[pick].solve(b).expect("reference solve");
        log.rel_errs.push(rel_err(x, &reference));
        direct.x.len() == x.len()
            && direct
                .x
                .iter()
                .zip(x)
                .all(|(d, s)| d.to_bits() == s.to_bits())
    }

    /// Median wall time, µs, of encoding and decoding one n = 256
    /// `Solve` request and its `Solved` response — the codec cost of a
    /// cache-hit request.
    fn codec_us(&self) -> f64 {
        let rhs = vec![0.5; N];
        let request = Request::Solve {
            matrix: MatrixRef::Cached(self.fingerprints[0]),
            config: self.config.clone(),
            engine: self.engine.clone(),
            rhs: rhs.clone(),
            accept_degraded: false,
        };
        let response = Response::Solved {
            x: rhs,
            degraded: false,
        };
        let rounds: Vec<f64> = (0..501)
            .map(|_| {
                let started = Instant::now();
                let req = Request::decode(&request.encode()).expect("request round-trips");
                let resp = Response::decode(&response.encode()).expect("response round-trips");
                let elapsed = started.elapsed().as_secs_f64();
                std::hint::black_box((req, resp));
                elapsed * 1e6
            })
            .collect();
        median(&rounds)
    }
}

/// A server histogram by name (empty if never recorded).
fn histogram(metrics: &MetricsSnapshot, name: &str) -> HistogramSummary {
    match metrics.get(name) {
        Some(MetricValue::Histogram(h)) => h.clone(),
        _ => HistogramSummary {
            count: 0,
            min: 0,
            max: 0,
            mean: 0.0,
            p50: 0,
            p95: 0,
            p99: 0,
        },
    }
}
