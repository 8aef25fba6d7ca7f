//! The exact digital reference backend.

use std::any::Any;

use amc_linalg::{lu::LuFactor, Matrix};

use super::{AmcEngine, EngineStats, OnceDerived, Operand, OperandState};
use crate::Result;

/// Operand state of [`NumericEngine`]: the exact matrix with its LU
/// factorization, built on the first INV and shared by every clone.
#[derive(Debug, Clone)]
pub(crate) struct NumericOperand {
    pub(crate) array: OnceDerived<Matrix, LuFactor>,
}

impl OperandState for NumericOperand {
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

/// Exact digital engine (LU-based) — the paper's "numerical solver"
/// reference curve.
///
/// # Example
///
/// ```
/// use blockamc::engine::{AmcEngine, NumericEngine};
/// use amc_linalg::Matrix;
///
/// # fn main() -> Result<(), blockamc::BlockAmcError> {
/// let mut e = NumericEngine::new();
/// let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]])?;
/// let mut op = e.program(&a)?;
/// assert_eq!(e.inv(&mut op, &[2.0, 4.0])?, vec![-1.0, -1.0]); // −A⁻¹b
/// assert_eq!(e.mvm(&mut op, &[1.0, 1.0])?, vec![-2.0, -4.0]); // −A·x
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct NumericEngine {
    stats: EngineStats,
}

impl NumericEngine {
    /// Creates the engine.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AmcEngine for NumericEngine {
    fn program(&mut self, a: &Matrix) -> Result<Operand> {
        self.stats.count_program();
        Ok(Operand::new(NumericOperand {
            array: OnceDerived::new(a.clone()),
        }))
    }

    fn inv(&mut self, operand: &mut Operand, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = Vec::new();
        self.inv_into(operand, b, &mut x)?;
        Ok(x)
    }

    fn inv_into(&mut self, operand: &mut Operand, b: &[f64], out: &mut Vec<f64>) -> Result<()> {
        let state = operand.expect_state::<NumericOperand>("numeric")?;
        let lu = state.array.derive_with(LuFactor::new)?;
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
            .expect_state::<NumericOperand>("numeric")?
            .array
            .programmed();
        out.resize(a.rows(), 0.0);
        a.matvec_into(x, out)?;
        amc_linalg::vector::neg_in_place(out);
        self.stats.count_mvm();
        Ok(())
    }

    fn name(&self) -> &'static str {
        "numeric"
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
    use super::*;
    use amc_linalg::vector;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.5]]).unwrap()
    }

    #[test]
    fn numeric_engine_signs() {
        let mut e = NumericEngine::new();
        let a = sample();
        let mut op = e.program(&a).unwrap();
        let b = [0.5, 0.25];
        let neg_x = e.inv(&mut op, &b).unwrap();
        // A·(−neg_x) = b
        let back = a.matvec(&vector::neg(&neg_x)).unwrap();
        assert!(vector::approx_eq(&back, &b, 1e-12));
        let neg_y = e.mvm(&mut op, &[1.0, 1.0]).unwrap();
        assert!(vector::approx_eq(&neg_y, &[-2.5, -2.0], 1e-12));
    }

    fn factorized(op: &Operand) -> bool {
        let state = op.downcast_ref::<NumericOperand>().unwrap();
        state.array.derived().is_some()
    }

    #[test]
    fn numeric_engine_caches_factorization() {
        let mut e = NumericEngine::new();
        let mut op = e.program(&sample()).unwrap();
        let _ = e.inv(&mut op, &[1.0, 0.0]).unwrap();
        let _ = e.inv(&mut op, &[0.0, 1.0]).unwrap();
        assert_eq!(e.stats().inv_ops, 2);
        assert_eq!(e.stats().program_ops, 1);

        // A clone taken before the first INV shares the factor: INV on
        // the clone installs it for the original, and both solve
        // bit-identically.
        let mut original = e.program(&sample()).unwrap();
        let mut clone = original.clone();
        assert!(!factorized(&original));
        let b = [0.3, -0.7];
        let x_clone = e.inv(&mut clone, &b).unwrap();
        assert!(
            factorized(&original),
            "clone's INV installs the shared factor"
        );
        let x_orig = e.inv(&mut original, &b).unwrap();
        assert_eq!(bits(&x_orig), bits(&x_clone));
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn buffers_are_reused_without_reallocation() {
        let mut e = NumericEngine::new();
        let mut op = e.program(&sample()).unwrap();
        let mut out = Vec::with_capacity(2);
        let base_ptr = out.as_ptr();
        for b in [[1.0, 0.0], [0.0, 1.0], [0.3, -0.7]] {
            e.inv_into(&mut op, &b, &mut out).unwrap();
            assert_eq!(out.len(), 2);
        }
        assert_eq!(out.as_ptr(), base_ptr, "no reallocation across solves");
        assert_eq!(e.stats().inv_ops, 3);
        assert_eq!(e.stats().program_ops, 1);
    }

    #[test]
    fn engine_name() {
        assert_eq!(NumericEngine::new().name(), "numeric");
    }
}
