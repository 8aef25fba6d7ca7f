//! Bit-level pins of the unified execution core.
//!
//! Every architecture runs through the one recursive cascade in
//! `multi_stage`, reached through the builder facade
//! (`SolverConfig::builder()` → `BlockAmcSolver::prepare` →
//! `PreparedSolver::solve`). These tests hold its output fixed to the
//! bit:
//!
//! * golden `f64::to_bits` patterns of `Stages::One` and `Stages::Two`
//!   under the variation-drawing `CircuitEngine`, captured from the
//!   one-stage and two-stage module solvers this facade replaced (and
//!   proven bit-identical to them before those modules were removed).
//!   Any change to programming order, variation-stream consumption,
//!   quadrant tiling, or the cascade's arithmetic moves a bit here;
//! * golden FNV-1a checksums of the digital Schur complement (dense
//!   and sparse kernels) and of a `NumericEngine` two-stage solve at
//!   `n = 200`, large enough that the LU spans many cache panels, so
//!   any change to the elimination loop's arithmetic moves a bit here;
//! * the whole cascade through a type-erased `Box<dyn AmcEngine>` is
//!   bit-identical to the concrete engine it wraps.

use blockamc::engine::{AmcEngine, CircuitEngine, CircuitEngineConfig, NumericEngine};
use blockamc::partition::BlockPartition;
use blockamc::solver::{SolverConfig, Stages};

use amc_linalg::{generate, Matrix};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Strategy: a well-conditioned SPD system of size 4..=20 derived from
/// a seed (so failures reproduce from the seed alone).
fn workload() -> impl Strategy<Value = (Matrix, Vec<f64>, u64)> {
    (4usize..=20, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = generate::wishart_default(n, &mut rng).unwrap();
        let b = generate::random_vector(n, &mut rng);
        (a, b, seed)
    })
}

/// Diagonally dominant matrix and RHS with exactly-representable
/// entries, generated without any RNG or libm call.
fn dyadic_workload(n: usize) -> (Matrix, Vec<f64>) {
    let a = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            4.0
        } else {
            ((i * 3 + j * 5) % 7) as f64 * 0.125 - 0.375
        }
    });
    let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 * 0.25 - 0.5).collect();
    (a, b)
}

fn facade_x<E: AmcEngine>(engine: E, a: &Matrix, b: &[f64], stages: Stages) -> Vec<f64> {
    let mut solver = SolverConfig::builder()
        .stages(stages)
        .build(engine)
        .unwrap();
    let mut prepared = solver.prepare(a).unwrap();
    prepared.solve(b).unwrap().x
}

/// `(stages, n, engine seed, expected x as f64 bit patterns)`.
const GOLDEN: [(Stages, usize, u64, &[u64]); 8] = [
    (
        Stages::One,
        8,
        7,
        &[
            0xbfc0c39ea49b1e57,
            0xbf9614f95a4d4603,
            0x3fc172ddaf74460f,
            0xbfac009606174dc1,
            0x3fb33a27d9fc4bb8,
            0xbfbfc78cc4f8351f,
            0x3f8428851cfeb950,
            0x3fbbde6b55f65578,
        ],
    ),
    (
        Stages::One,
        8,
        2024,
        &[
            0xbfbdce4ac5b36fdd,
            0xbf942b151653d556,
            0x3fbe2aab0a5f2522,
            0xbfaf3df80e9e8633,
            0x3fb41763dedca44f,
            0xbfbd60c522505a22,
            0x3f81fa849959a7dd,
            0x3fba58759d59b5cc,
        ],
    ),
    (
        Stages::One,
        13,
        7,
        &[
            0xbfc3297e5b3c6b22,
            0xbf7ed61463563e14,
            0x3fbafee417e6bf20,
            0xbfb3e721c192dd11,
            0x3fb81505562ecd1d,
            0xbfc0ee5e53545864,
            0x3f9bdda3ec2fa317,
            0x3fb8fcdff5fe1fac,
            0xbfaec9a13e01b492,
            0x3fa8f370152ff9ef,
            0xbfc412eebd013621,
            0x3fa1427149a7c4ab,
            0x3fc179fb390b4d0e,
        ],
    ),
    (
        Stages::One,
        13,
        2024,
        &[
            0xbfc0dc66abda77bd,
            0xbf857cf7c93d24dd,
            0x3fbd38c68f488356,
            0xbfb17e106876bc93,
            0x3fb84fff01ff0e2b,
            0xbfbf1c286fd889d7,
            0x3f9c896bba7eb598,
            0x3fb608787815b6d2,
            0xbfb18f627f7093fd,
            0x3fa8ba787dabfd5b,
            0xbfc248f653619b8c,
            0x3fa3cde5615197b4,
            0x3fbfe8fd304a560b,
        ],
    ),
    (
        Stages::Two,
        8,
        7,
        &[
            0xbfc0c33b8f71c56a,
            0xbf94056427e07286,
            0x3fbe16ba84f7c485,
            0xbfacc26b24ca867b,
            0x3fb336583321c873,
            0xbfbf8d548412e05d,
            0x3f8228cb8e55a0cf,
            0x3fbbb93771b7e2f8,
        ],
    ),
    (
        Stages::Two,
        8,
        2024,
        &[
            0xbfbdcb16c9bbb059,
            0xbf958467fffb42d6,
            0x3fbfdea4f2fefb6d,
            0xbfac4074a7c4f9f5,
            0x3fb3b1eb708237d2,
            0xbfbc8412d72826d8,
            0x3f81b16174560dc3,
            0x3fbd0a0afccae618,
        ],
    ),
    (
        Stages::Two,
        13,
        7,
        &[
            0xbfc2d79267433ba0,
            0xbf8765a6dce7a5bc,
            0x3fc04efff3199bbc,
            0xbfb281df6e938b3a,
            0x3fb86e63668d0fba,
            0xbfc08fea63e24d77,
            0x3f9fe8e11bf99471,
            0x3fb76fcd411f53b2,
            0xbfb3448382879451,
            0x3fa77e7f0c4891a0,
            0xbfc0918abc13965f,
            0x3fa0e303fa77f891,
            0x3fc3443c7d6489b7,
        ],
    ),
    (
        Stages::Two,
        13,
        2024,
        &[
            0xbfc0eafbd924d4b6,
            0xbf812691c55ed934,
            0x3fbb162b5bd8a635,
            0xbfb433ccf3627a12,
            0x3fb9bc0f6013538a,
            0xbfbe3fb8c27731bf,
            0x3f9cc99ea76d1e8e,
            0x3fb72eaeb3abdba5,
            0xbfaf2c7f963682ce,
            0x3fa6d7a4bd93b67b,
            0xbfc170a0b5d13fbf,
            0x3fa0e83b9486926a,
            0x3fc1ca45d4a2b864,
        ],
    ),
];

#[test]
fn one_and_two_stage_circuit_outputs_match_golden_bits() {
    for (stages, n, seed, expected) in GOLDEN {
        let (a, b) = dyadic_workload(n);
        let engine = CircuitEngine::new(CircuitEngineConfig::paper_variation(), seed);
        let bits: Vec<u64> = facade_x(engine, &a, &b, stages)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(bits, expected, "{stages:?} n={n} seed={seed}");
    }
}

/// FNV-1a (64-bit) over the little-endian bytes of every
/// `f64::to_bits` — one number that moves if any output bit does.
fn fnv1a(values: &[f64]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Asserts `values` against a golden `(checksum, first four bit
/// patterns)` pin.
fn assert_golden(label: &str, values: &[f64], checksum: u64, head: [u64; 4]) {
    let got: Vec<u64> = values[..4].iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, head, "{label}: leading entries");
    assert_eq!(fnv1a(values), checksum, "{label}: checksum");
}

/// The `n = 200` seeded Wishart system behind the large-`n` pins.
fn wishart_200() -> (Matrix, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    let a = generate::wishart_default(200, &mut rng).unwrap();
    let b = generate::random_vector(200, &mut rng);
    (a, b)
}

/// `A4 − A3·A1⁻¹·A2` of [`wishart_200`] at the halves split (A1 is
/// 100×100); the dense and sparse kernels agree bitwise on it.
const SCHUR_200_FNV: u64 = 0x09ac_2a78_a511_1c0d;
const SCHUR_200_HEAD: [u64; 4] = [
    0x3fef814ccb3458b9,
    0x3f8f9e12acc418f4,
    0x3f8367e92f8c3ed2,
    0xbf79ef73440b664c,
];
/// `x` of the `NumericEngine` `Stages::Two` solve of [`wishart_200`].
const TWO_STAGE_200_FNV: u64 = 0x853c_8832_704a_7b7a;
const TWO_STAGE_200_HEAD: [u64; 4] = [
    0x3fe770383904c904,
    0x3fea3355e792ec60,
    0x3fe19a85a106acae,
    0xbfe4054a7eb1469f,
];

#[test]
fn schur_complements_at_n200_match_golden_bits() {
    let (a, _) = wishart_200();
    let p = BlockPartition::halves(&a).unwrap();
    for (label, a4s) in [
        ("dense", p.schur_complement_dense().unwrap()),
        ("sparse", p.schur_complement_sparse().unwrap()),
    ] {
        assert_golden(label, a4s.as_slice(), SCHUR_200_FNV, SCHUR_200_HEAD);
    }
}

#[test]
fn numeric_two_stage_at_n200_matches_golden_bits() {
    let (a, b) = wishart_200();
    let x = facade_x(NumericEngine::new(), &a, &b, Stages::Two);
    assert_golden("two-stage", &x, TWO_STAGE_200_FNV, TWO_STAGE_200_HEAD);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn boxed_engine_is_bit_identical_to_concrete((a, b, seed) in workload()) {
        // The acceptance pin of the open backend API: the full cascade
        // through `Box<dyn AmcEngine>` equals the concrete engine
        // bitwise — including under variation, where any divergence in
        // programming order or RNG consumption would show immediately.
        let cfg = CircuitEngineConfig::paper_variation();
        let concrete = facade_x(CircuitEngine::new(cfg, seed), &a, &b, Stages::Two);
        let boxed: Box<dyn AmcEngine> = Box::new(CircuitEngine::new(cfg, seed));
        let erased = facade_x(boxed, &a, &b, Stages::Two);
        prop_assert_eq!(concrete, erased);
    }
}
