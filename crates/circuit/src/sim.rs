//! The [`AnalogSimulator`] facade: one entry point for simulating an AMC
//! operation end to end (interconnect transformation → circuit equilibrium
//! → saturation check → power and timing estimates).
//!
//! # Voltage vs mathematical value
//!
//! The circuits operate on *normalized* matrices (`Ĝ = A/scale` after the
//! mapping stage), so physical output voltages differ from the
//! mathematical result by the mapping scale:
//!
//! * MVM: `volts = −Ĝ·v_in` ⇒ mathematical value = `volts · scale`
//!   (equals `−A·x`).
//! * INV: `volts = −Ĝ⁻¹·v_in` ⇒ mathematical value = `volts / scale`
//!   (equals `−A⁻¹·b`).
//!
//! [`CircuitOutput`] carries both; the AMC minus sign is preserved in each
//! (the BlockAMC algorithm exploits those signs, see the paper's Fig. 2).

use std::sync::OnceLock;

use amc_device::array::ProgrammedMatrix;
use amc_linalg::Matrix;

use crate::interconnect::{series_effective_conductances, InterconnectModel};
use crate::opamp::{GainModel, OpAmpSpec};
use crate::{grid, inv, mvm, power, timing, CircuitError, Result};

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SimConfig {
    /// Op-amp model (gain, GBWP, supply, quiescent current).
    pub opamp: OpAmpSpec,
    /// Wire-resistance model.
    pub interconnect: InterconnectModel,
    /// If `true`, outputs beyond the op-amp supply rails fail the
    /// simulation with [`CircuitError::OutputSaturated`].
    pub check_saturation: bool,
    /// Settling accuracy target used by the timing estimates.
    pub settle_epsilon: f64,
}

impl SimConfig {
    /// Fully ideal circuit: infinite-gain op-amps, perfect wires, no rail
    /// checks. With ideal device programming this reproduces the numerical
    /// solver exactly — useful as a self-check.
    pub fn ideal() -> Self {
        SimConfig {
            opamp: OpAmpSpec::ideal(),
            interconnect: InterconnectModel::Ideal,
            check_saturation: false,
            settle_epsilon: timing::DEFAULT_SETTLE_EPSILON,
        }
    }

    /// The paper's circuit non-idealities: finite-gain 45 nm op-amps and
    /// 1 Ω/segment interconnect (series approximation for speed).
    pub fn paper_nonideal() -> Self {
        SimConfig {
            opamp: OpAmpSpec::default_45nm(),
            interconnect: InterconnectModel::paper_default(),
            check_saturation: false,
            settle_epsilon: timing::DEFAULT_SETTLE_EPSILON,
        }
    }

    /// Finite-gain op-amps with ideal wires — the configuration behind the
    /// paper's "ideal mapping" Fig. 6 accuracy study.
    pub fn finite_gain_only() -> Self {
        SimConfig {
            opamp: OpAmpSpec::default_45nm(),
            interconnect: InterconnectModel::Ideal,
            check_saturation: false,
            settle_epsilon: timing::DEFAULT_SETTLE_EPSILON,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidConfig`] for invalid op-amp or
    /// interconnect parameters, an out-of-range `settle_epsilon`, or the
    /// unsupported combination of exact-grid interconnect with finite-gain
    /// op-amps (the grid solver assumes ideal virtual grounds).
    pub fn validate(&self) -> Result<()> {
        self.opamp.validate()?;
        self.interconnect.validate()?;
        if !(self.settle_epsilon > 0.0 && self.settle_epsilon < 1.0) {
            return Err(CircuitError::config("settle_epsilon must lie in (0, 1)"));
        }
        if self.interconnect.is_exact_grid() && self.opamp.gain != GainModel::Ideal {
            return Err(CircuitError::config(
                "exact-grid interconnect requires ideal op-amps \
                 (the grid formulation assumes perfect virtual grounds)",
            ));
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_nonideal()
    }
}

/// Result of one simulated AMC operation.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitOutput {
    /// Mathematical result including the AMC minus sign
    /// (`−A·x` for MVM, `−A⁻¹·b` for INV).
    pub values: Vec<f64>,
    /// Physical op-amp output voltages.
    pub volts: Vec<f64>,
    /// Static power at the operating point, in watts (arrays + resistors +
    /// op-amp quiescent).
    pub power_w: f64,
    /// Estimated settling time, in seconds.
    pub settle_time_s: f64,
}

/// End-to-end simulator of AMC operations on programmed arrays.
///
/// Every operation is a [`DerivedArray`] applied to an input:
/// [`AnalogSimulator::mvm`] / [`AnalogSimulator::inv`] derive it afresh
/// per call, while a caller that operates on one array many times keeps
/// the result of [`AnalogSimulator::derive`] and pays the per-array work
/// (feedback factorization, settle-time estimates) once.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalogSimulator {
    config: SimConfig,
}

impl AnalogSimulator {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Does not panic: invalid configurations are reported by
    /// [`AnalogSimulator::derive`] and the operation methods.
    pub fn new(config: SimConfig) -> Self {
        AnalogSimulator { config }
    }

    /// Borrows the configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Derives the per-array solve state of `programmed` under this
    /// simulator's configuration: validates the configuration and
    /// applies the interconnect model to the conductances. The rest of
    /// the per-array work happens inside the returned state, once, on
    /// the first operation that needs it.
    ///
    /// # Errors
    ///
    /// Configuration and interconnect-model errors.
    pub fn derive(&self, programmed: &ProgrammedMatrix) -> Result<DerivedArray> {
        self.config.validate()?;
        let (g_pos, g_neg) = match self.config.interconnect {
            InterconnectModel::Ideal | InterconnectModel::ExactGrid { .. } => (
                programmed.pos().conductances(),
                programmed.neg().conductances(),
            ),
            InterconnectModel::SeriesApprox { r_segment } => (
                series_effective_conductances(&programmed.pos().conductances(), r_segment)?,
                series_effective_conductances(&programmed.neg().conductances(), r_segment)?,
            ),
        };
        Ok(DerivedArray {
            config: self.config,
            g0: programmed.g0(),
            scale: programmed.scale(),
            g_pos,
            g_neg,
            feedback: OnceLock::new(),
            inv_settle_s: OnceLock::new(),
            mvm_settle_s: OnceLock::new(),
        })
    }

    /// Simulates an MVM operation: returns `−A·x` (mathematically) for the
    /// matrix `A` represented by `programmed`.
    ///
    /// # Errors
    ///
    /// Configuration, shape, convergence, and (if enabled) saturation
    /// errors.
    pub fn mvm(&self, programmed: &ProgrammedMatrix, x: &[f64]) -> Result<CircuitOutput> {
        self.derive(programmed)?.mvm(programmed, x)
    }

    /// Simulates an INV operation: returns `−A⁻¹·b` (mathematically) for
    /// the matrix `A` represented by `programmed` — i.e. solves `A·x = b`
    /// in one step, with the AMC minus sign.
    ///
    /// # Errors
    ///
    /// Configuration, shape, operating-point, and (if enabled) saturation
    /// errors.
    pub fn inv(&self, programmed: &ProgrammedMatrix, b: &[f64]) -> Result<CircuitOutput> {
        self.derive(programmed)?.inv(programmed, b)
    }
}

/// The solve state of one programmed array under one [`SimConfig`]:
/// everything an MVM or INV needs that depends on the array alone.
///
/// Holds the effective conductances (after the interconnect model) and
/// computes, each on the first operation that needs it and never again,
/// the factorized INV feedback system ([`inv::InvCircuit`]) and the INV
/// and MVM settle times. A part whose computation fails keeps its error
/// and reports it on every operation that needs the part, at the point
/// of the operation where it arises. Outputs are bit-identical to a
/// fresh derivation per operation. The exact-grid interconnect still
/// solves its grids per operation.
///
/// Obtained from [`AnalogSimulator::derive`].
#[derive(Debug)]
pub struct DerivedArray {
    config: SimConfig,
    g0: f64,
    scale: f64,
    g_pos: Matrix,
    g_neg: Matrix,
    feedback: OnceLock<Result<inv::InvCircuit>>,
    inv_settle_s: OnceLock<Result<f64>>,
    mvm_settle_s: OnceLock<Result<f64>>,
}

/// The value in `cell`, computed by `init` on first access; an error is
/// kept and handed out (cloned) like a value.
fn cached<T>(cell: &OnceLock<Result<T>>, init: impl FnOnce() -> Result<T>) -> Result<&T> {
    cell.get_or_init(init).as_ref().map_err(Clone::clone)
}

impl DerivedArray {
    /// The configuration this state was derived under.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Simulates an MVM on the array: returns `−A·x` (mathematically).
    /// `programmed` must be the array this state was derived from (the
    /// exact-grid interconnect re-solves its grids from it).
    ///
    /// # Errors
    ///
    /// Shape, convergence, and (if enabled) saturation errors.
    pub fn mvm(&self, programmed: &ProgrammedMatrix, x: &[f64]) -> Result<CircuitOutput> {
        let opamp = &self.config.opamp;
        let (volts, grid_power_w) = match self.config.interconnect {
            InterconnectModel::ExactGrid { r_segment } => {
                let out = grid::mvm_exact(programmed, x, r_segment)?;
                (out.volts, Some(out.array_power_w))
            }
            _ => (
                mvm::solve_mvm(&self.g_pos, &self.g_neg, self.g0, x, opamp.gain)?.volts,
                None,
            ),
        };
        if self.config.check_saturation {
            opamp.check_saturation(&volts)?;
        }
        let power_w = match grid_power_w {
            Some(p) => p + self.g_pos.rows() as f64 * opamp.static_power_w(),
            None => power::mvm_power(&self.g_pos, &self.g_neg, self.g0, x, &volts, opamp)?,
        };
        let settle_time_s = *cached(&self.mvm_settle_s, || {
            let max_row = self.g_pos.add_matrix(&self.g_neg)?.norm_inf() / self.g0;
            timing::mvm_settle_time(max_row, opamp, self.config.settle_epsilon)
        })?;
        Ok(CircuitOutput {
            values: volts.iter().map(|v| v * self.scale).collect(),
            volts,
            power_w,
            settle_time_s,
        })
    }

    /// Simulates an INV on the array: returns `−A⁻¹·b` (mathematically).
    /// `programmed` must be the array this state was derived from (the
    /// exact-grid interconnect re-solves its grids from it).
    ///
    /// # Errors
    ///
    /// Shape, operating-point, and (if enabled) saturation errors.
    pub fn inv(&self, programmed: &ProgrammedMatrix, b: &[f64]) -> Result<CircuitOutput> {
        let opamp = &self.config.opamp;
        let (volts, grid_power_w) = match self.config.interconnect {
            InterconnectModel::ExactGrid { r_segment } => {
                let out = grid::inv_exact(programmed, b, r_segment)?;
                (out.volts, Some(out.array_power_w))
            }
            _ => {
                let feedback = cached(&self.feedback, || {
                    inv::InvCircuit::new(&self.g_pos, &self.g_neg, self.g0, opamp.gain)
                })?;
                (feedback.solve(b)?.volts, None)
            }
        };
        if self.config.check_saturation {
            opamp.check_saturation(&volts)?;
        }
        let power_w = match grid_power_w {
            Some(p) => p + self.g_pos.rows() as f64 * opamp.static_power_w(),
            None => power::inv_power(&self.g_pos, &self.g_neg, self.g0, b, &volts, opamp)?,
        };
        let settle_time_s = *cached(&self.inv_settle_s, || {
            let g_hat = self.g_pos.sub_matrix(&self.g_neg)?.scaled(1.0 / self.g0);
            timing::inv_settle_time(&g_hat, opamp, self.config.settle_epsilon)
        })?;
        Ok(CircuitOutput {
            values: volts.iter().map(|v| v / self.scale).collect(),
            volts,
            power_w,
            settle_time_s,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_device::mapping::MappingConfig;
    use amc_device::variation::VariationModel;
    use amc_linalg::{lu, vector};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn program(a: &Matrix, seed: u64) -> ProgrammedMatrix {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        ProgrammedMatrix::program(
            a,
            &MappingConfig::paper_default(),
            &VariationModel::None,
            &mut rng,
        )
        .unwrap()
    }

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.5]]).unwrap()
    }

    #[test]
    fn ideal_mvm_matches_mathematics() {
        let a = sample();
        let p = program(&a, 1);
        let sim = AnalogSimulator::new(SimConfig::ideal());
        let x = [0.3, -0.1];
        let out = sim.mvm(&p, &x).unwrap();
        let expect: Vec<f64> = a.matvec(&x).unwrap().iter().map(|v| -v).collect();
        assert!(vector::approx_eq(&out.values, &expect, 1e-12));
        assert!(out.power_w > 0.0);
        assert!(out.settle_time_s > 0.0);
    }

    #[test]
    fn ideal_inv_matches_numerical_solver() {
        let a = sample();
        let p = program(&a, 2);
        let sim = AnalogSimulator::new(SimConfig::ideal());
        let b = [0.4, 0.1];
        let out = sim.inv(&p, &b).unwrap();
        let x_num = lu::solve(&a, &b).unwrap();
        let expect: Vec<f64> = x_num.iter().map(|v| -v).collect();
        assert!(vector::approx_eq(&out.values, &expect, 1e-10));
    }

    #[test]
    fn volts_and_values_differ_by_scale() {
        let a = sample(); // scale = 2
        let p = program(&a, 3);
        let sim = AnalogSimulator::new(SimConfig::ideal());
        let out_mvm = sim.mvm(&p, &[0.1, 0.2]).unwrap();
        for (val, v) in out_mvm.values.iter().zip(&out_mvm.volts) {
            assert!((val - v * 2.0).abs() < 1e-15);
        }
        let out_inv = sim.inv(&p, &[0.1, 0.2]).unwrap();
        for (val, v) in out_inv.values.iter().zip(&out_inv.volts) {
            assert!((val - v / 2.0).abs() < 1e-15);
        }
    }

    #[test]
    fn finite_gain_perturbs_inv_solution() {
        let a = sample();
        let p = program(&a, 4);
        let ideal = AnalogSimulator::new(SimConfig::ideal());
        let finite = AnalogSimulator::new(SimConfig::finite_gain_only());
        let b = [0.4, 0.1];
        let vi = ideal.inv(&p, &b).unwrap();
        let vf = finite.inv(&p, &b).unwrap();
        let err = amc_linalg::metrics::relative_error(&vi.values, &vf.values);
        assert!(err > 1e-6 && err < 1e-2, "err={err}");
    }

    #[test]
    fn series_interconnect_perturbs_and_exact_grid_agrees_roughly() {
        let a = sample();
        let p = program(&a, 5);
        let b = [0.3, 0.2];
        let ideal = AnalogSimulator::new(SimConfig::ideal());
        let mut cfg = SimConfig::ideal();
        cfg.interconnect = InterconnectModel::SeriesApprox { r_segment: 20.0 };
        let series = AnalogSimulator::new(cfg);
        let mut cfg = SimConfig::ideal();
        cfg.interconnect = InterconnectModel::ExactGrid { r_segment: 20.0 };
        let exact = AnalogSimulator::new(cfg);

        let vi = ideal.inv(&p, &b).unwrap();
        let vs = series.inv(&p, &b).unwrap();
        let ve = exact.inv(&p, &b).unwrap();
        let e_series = amc_linalg::metrics::relative_error(&vi.values, &vs.values);
        let e_exact = amc_linalg::metrics::relative_error(&vi.values, &ve.values);
        assert!(e_series > 1e-6, "series model must perturb");
        assert!(e_exact > 1e-6, "exact model must perturb");
        // The approximation should agree with the exact model within ~3x
        // on this small array.
        let ratio = e_series / e_exact;
        assert!(
            (0.3..3.0).contains(&ratio),
            "series vs exact ratio {ratio} (e_series={e_series}, e_exact={e_exact})"
        );
    }

    #[test]
    fn exact_grid_with_finite_gain_is_rejected() {
        let mut cfg = SimConfig::paper_nonideal();
        cfg.interconnect = InterconnectModel::ExactGrid { r_segment: 1.0 };
        let sim = AnalogSimulator::new(cfg);
        let p = program(&sample(), 6);
        assert!(matches!(
            sim.inv(&p, &[0.1, 0.1]),
            Err(CircuitError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn saturation_check_trips() {
        // Near-singular matrix drives huge outputs.
        let a = Matrix::from_rows(&[&[1.0, 0.999], &[0.999, 1.0]]).unwrap();
        let p = program(&a, 7);
        let mut cfg = SimConfig::ideal();
        cfg.check_saturation = true;
        let sim = AnalogSimulator::new(cfg);
        let err = sim.inv(&p, &[1.0, -1.0]);
        assert!(matches!(err, Err(CircuitError::OutputSaturated { .. })));
    }

    fn output_bits(out: &CircuitOutput) -> (Vec<u64>, Vec<u64>, u64, u64) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        (
            bits(&out.values),
            bits(&out.volts),
            out.power_w.to_bits(),
            out.settle_time_s.to_bits(),
        )
    }

    #[test]
    fn derived_array_reuse_is_bit_identical_to_fresh_derivation() {
        let a =
            Matrix::from_rows(&[&[2.0, 0.5, -0.3], &[0.5, 1.5, 0.2], &[-0.3, 0.2, 1.8]]).unwrap();
        let p = program(&a, 8);
        let mut exact_grid = SimConfig::ideal();
        exact_grid.interconnect = InterconnectModel::ExactGrid { r_segment: 5.0 };
        for cfg in [
            SimConfig::ideal(),
            SimConfig::finite_gain_only(),
            SimConfig::paper_nonideal(),
            exact_grid,
        ] {
            let sim = AnalogSimulator::new(cfg);
            let derived = sim.derive(&p).unwrap();
            assert_eq!(derived.config(), &cfg);
            for b in [[0.4, 0.1, -0.2], [-0.1, 0.3, 0.05], [0.4, 0.1, -0.2]] {
                let inv = derived.inv(&p, &b).unwrap();
                assert_eq!(output_bits(&inv), output_bits(&sim.inv(&p, &b).unwrap()));
                let mvm = derived.mvm(&p, &b).unwrap();
                assert_eq!(output_bits(&mvm), output_bits(&sim.mvm(&p, &b).unwrap()));
            }
        }
    }

    #[test]
    fn exact_grid_mvm_power_comes_from_its_one_grid_solve() {
        let a = sample();
        let p = program(&a, 9);
        let mut cfg = SimConfig::ideal();
        cfg.interconnect = InterconnectModel::ExactGrid { r_segment: 20.0 };
        let x = [0.3, -0.2];
        let out = AnalogSimulator::new(cfg).mvm(&p, &x).unwrap();
        let grid = grid::mvm_exact(&p, &x, 20.0).unwrap();
        let expect = grid.array_power_w + 2.0 * cfg.opamp.static_power_w();
        assert_eq!(out.power_w.to_bits(), expect.to_bits());
        assert_eq!(out.volts, grid.volts);
    }

    #[test]
    fn derived_array_keeps_its_inv_failure_and_still_serves_mvm() {
        // Singular: no INV operating point, but a perfectly good MVM.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let p = program(&a, 10);
        let sim = AnalogSimulator::new(SimConfig::ideal());
        let derived = sim.derive(&p).unwrap();
        let first = derived.inv(&p, &[0.1, 0.1]).unwrap_err();
        assert!(matches!(first, CircuitError::NoOperatingPoint { .. }));
        assert_eq!(derived.inv(&p, &[0.2, -0.1]).unwrap_err(), first);
        assert_eq!(sim.inv(&p, &[0.1, 0.1]).unwrap_err(), first);
        let mvm = derived.mvm(&p, &[0.1, 0.1]).unwrap();
        assert_eq!(
            output_bits(&mvm),
            output_bits(&sim.mvm(&p, &[0.1, 0.1]).unwrap())
        );
    }

    #[test]
    fn default_config_is_paper_nonideal() {
        assert_eq!(SimConfig::default(), SimConfig::paper_nonideal());
        assert!(SimConfig::default().validate().is_ok());
        assert!(SimConfig::ideal().validate().is_ok());
    }

    #[test]
    fn invalid_epsilon_rejected() {
        let mut cfg = SimConfig::ideal();
        cfg.settle_epsilon = 0.0;
        assert!(cfg.validate().is_err());
    }
}
