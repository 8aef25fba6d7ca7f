//! Cache-blocked digital backend with buffer-reusing hot paths.

use std::any::Any;

use amc_linalg::{lu::LuFactor, Matrix};

use super::{AmcEngine, EngineStats, OnceDerived, Operand, OperandState};
use crate::{BlockAmcError, Result};

/// Default LU panel width of [`BlockedNumericEngine`]: 32 columns of
/// `f64` is 256 bytes per pivot-row panel — comfortably L1-resident
/// alongside the streamed trailing rows.
pub const DEFAULT_BLOCK: usize = 32;

/// Operand state of [`BlockedNumericEngine`]: the exact matrix with its
/// *panel-tiled* LU factorization, built on the first INV and shared by
/// every clone.
#[derive(Debug, Clone)]
pub(crate) struct BlockedOperand {
    pub(crate) array: OnceDerived<Matrix, LuFactor>,
    pub(crate) block: usize,
}

impl OperandState for BlockedOperand {
    fn clone_boxed(&self) -> Box<dyn OperandState> {
        Box::new(self.clone())
    }

    fn shape(&self) -> (usize, usize) {
        self.array.programmed().shape()
    }

    fn effective_matrix(&self) -> Matrix {
        self.array.programmed().clone()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Exact digital engine tuned for batch throughput: the factorization
/// runs the cache-blocked LU kernel ([`LuFactor::new_blocked`]) and the
/// primitives overwrite caller-owned buffers ([`AmcEngine::inv_into`] /
/// [`AmcEngine::mvm_into`]) instead of allocating per operation.
///
/// **Bit-identical to [`super::NumericEngine`]** at every block size:
/// the blocked elimination performs the same floating-point operations
/// in the same per-element order (pinned by
/// `tests/solver_equivalence.rs`), so this backend is a pure hot-path
/// substitution — swap it in via [`super::EngineSpec::Blocked`] and
/// nothing downstream can tell except the clock.
#[derive(Debug, Clone)]
pub struct BlockedNumericEngine {
    block: usize,
    stats: EngineStats,
}

impl Default for BlockedNumericEngine {
    fn default() -> Self {
        BlockedNumericEngine {
            block: DEFAULT_BLOCK,
            stats: EngineStats::default(),
        }
    }
}

impl BlockedNumericEngine {
    /// Creates the engine with the given LU panel width.
    ///
    /// # Errors
    ///
    /// [`BlockAmcError::InvalidConfig`] for `block == 0`.
    pub fn new(block: usize) -> Result<Self> {
        if block == 0 {
            return Err(BlockAmcError::config(
                "blocked engine needs a panel width of at least 1",
            ));
        }
        Ok(BlockedNumericEngine {
            block,
            stats: EngineStats::default(),
        })
    }

    /// The configured LU panel width.
    pub fn block(&self) -> usize {
        self.block
    }
}

impl AmcEngine for BlockedNumericEngine {
    fn program(&mut self, a: &Matrix) -> Result<Operand> {
        self.stats.count_program();
        Ok(Operand::new(BlockedOperand {
            array: OnceDerived::new(a.clone()),
            block: self.block,
        }))
    }

    fn inv(&mut self, operand: &mut Operand, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = Vec::new();
        self.inv_into(operand, b, &mut x)?;
        Ok(x)
    }

    fn inv_into(&mut self, operand: &mut Operand, b: &[f64], out: &mut Vec<f64>) -> Result<()> {
        let state = operand.expect_state::<BlockedOperand>("blocked")?;
        let lu = state
            .array
            .derive_with(|a| LuFactor::new_blocked(a, state.block))?;
        out.resize(lu.dim(), 0.0);
        lu.solve_into(b, out)?;
        amc_linalg::vector::neg_in_place(out);
        self.stats.count_inv();
        Ok(())
    }

    fn mvm(&mut self, operand: &mut Operand, x: &[f64]) -> Result<Vec<f64>> {
        let mut y = Vec::new();
        self.mvm_into(operand, x, &mut y)?;
        Ok(y)
    }

    fn mvm_into(&mut self, operand: &mut Operand, x: &[f64], out: &mut Vec<f64>) -> Result<()> {
        let a = operand
            .expect_state::<BlockedOperand>("blocked")?
            .array
            .programmed();
        out.resize(a.rows(), 0.0);
        a.matvec_into(x, out)?;
        amc_linalg::vector::neg_in_place(out);
        self.stats.count_mvm();
        Ok(())
    }

    fn name(&self) -> &'static str {
        "blocked"
    }

    fn stats(&self) -> EngineStats {
        self.stats
    }

    fn clone_boxed(&self) -> Box<dyn AmcEngine> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::super::NumericEngine;
    use super::*;
    use amc_linalg::generate;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn rejects_zero_panel_width() {
        assert!(BlockedNumericEngine::new(0).is_err());
        assert_eq!(BlockedNumericEngine::default().block(), DEFAULT_BLOCK);
    }

    #[test]
    fn bit_identical_to_numeric_engine_at_any_block() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let a = generate::wishart_default(13, &mut rng).unwrap();
        let b = generate::random_vector(13, &mut rng);
        let mut reference = NumericEngine::new();
        let mut op_ref = reference.program(&a).unwrap();
        let x_ref = reference.inv(&mut op_ref, &b).unwrap();
        let y_ref = reference.mvm(&mut op_ref, &b).unwrap();
        for block in [1usize, 2, 5, 13, 100] {
            let mut e = BlockedNumericEngine::new(block).unwrap();
            let mut op = e.program(&a).unwrap();
            assert_eq!(e.inv(&mut op, &b).unwrap(), x_ref, "block={block}");
            assert_eq!(e.mvm(&mut op, &b).unwrap(), y_ref, "block={block}");
        }
    }

    #[test]
    fn buffers_are_reused_without_reallocation() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let a = generate::wishart_default(8, &mut rng).unwrap();
        let mut e = BlockedNumericEngine::default();
        let mut op = e.program(&a).unwrap();
        let mut out = Vec::with_capacity(8);
        let base_ptr = out.as_ptr();
        for _ in 0..3 {
            let b = generate::random_vector(8, &mut rng);
            e.inv_into(&mut op, &b, &mut out).unwrap();
            assert_eq!(out.len(), 8);
        }
        assert_eq!(out.as_ptr(), base_ptr, "no reallocation across solves");
        assert_eq!(e.stats().inv_ops, 3);
        assert_eq!(e.stats().program_ops, 1);
    }

    #[test]
    fn clones_share_the_factorization() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let a = generate::wishart_default(9, &mut rng).unwrap();
        let b = generate::random_vector(9, &mut rng);
        let mut e = BlockedNumericEngine::new(4).unwrap();
        let mut original = e.program(&a).unwrap();
        let mut clone = original.clone();
        let factorized = |op: &Operand| {
            let state = op.downcast_ref::<BlockedOperand>().unwrap();
            state.array.derived().is_some()
        };
        assert!(!factorized(&original));
        let x_clone = e.inv(&mut clone, &b).unwrap();
        assert!(
            factorized(&original),
            "clone's INV installs the shared factor"
        );
        let x_orig = e.inv(&mut original, &b).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x_orig), bits(&x_clone));
    }

    #[test]
    fn engine_name() {
        assert_eq!(BlockedNumericEngine::default().name(), "blocked");
    }
}
