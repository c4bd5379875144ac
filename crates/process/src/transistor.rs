//! EKV-style transistor current model covering weak through strong
//! inversion.
//!
//! Near the threshold voltage the drain current interpolates smoothly between
//! the subthreshold exponential and the square-law region:
//!
//! ```text
//! I_D = I_spec · (W/L_mult) · ln²(1 + exp((V_GS − V_th) / (2·n·v_T)))
//! ```
//!
//! Because `V_th` is (approximately) Gaussian under process variation and the
//! current is exponential-ish in `V_th` at low supply, the resulting delay
//! `∝ C·V/I` is right-skewed and heavy-tailed — the regime the paper's
//! N-sigma model addresses.

use crate::technology::Technology;

/// Drain current (A) of a device at gate drive `vgs` with threshold `vth`.
///
/// `width_multiple` scales `I_spec` linearly (a 4× device carries 4× the
/// current).
///
/// # Panics
///
/// Panics if `width_multiple` is not positive.
fn drain_current(tech: &Technology, vgs: f64, vth: f64, width_multiple: f64) -> f64 {
    assert!(width_multiple > 0.0, "width multiple must be positive");
    let nvt2 = 2.0 * tech.slope_factor * tech.thermal_voltage();
    let x = (vgs - vth) / nvt2;
    // ln(1+exp(x)) computed stably for both tails.
    let soft = if x > 30.0 {
        x
    } else if x < -30.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    };
    tech.i_spec * width_multiple * soft * soft
}

/// A transistor stack: `depth` series devices, each of `width_multiple`
/// width.
///
/// The paper's wire-variability model (eq. 5) leans on two facts encoded
/// here:
///
/// 1. series devices divide the drive current by the stack depth, and
/// 2. mismatch of the stack's *effective* threshold averages over the stack,
///    so `σ_eff = σ_device / √depth` (Pelgrom averaging).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stack {
    /// Number of series transistors (1 for an inverter, 2 for NAND2, …).
    pub depth: u32,
    /// Width multiple of each device in the stack.
    pub width_multiple: f64,
}

impl Stack {
    /// Creates a stack.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0` or `width_multiple <= 0`.
    pub fn new(depth: u32, width_multiple: f64) -> Self {
        assert!(depth > 0, "stack depth must be at least 1");
        assert!(width_multiple > 0.0, "width multiple must be positive");
        Self {
            depth,
            width_multiple,
        }
    }

    /// Effective drive current (A) of the stack for a given *effective*
    /// threshold deviation `dvth_eff` from nominal (already averaged across
    /// the stack) and a global mobility factor.
    ///
    /// Series resistance divides the single-device current by `depth`.
    pub fn drive_current(&self, tech: &Technology, dvth_eff: f64, mobility: f64) -> f64 {
        let i = drain_current(tech, tech.vdd, tech.vth0 + dvth_eff, self.width_multiple);
        mobility * i / self.depth as f64
    }

    /// Standard deviation of the stack's effective local V_th mismatch:
    /// `A_vt/√(W·L)` per device, reduced by `√depth` through averaging.
    pub fn effective_local_sigma(&self, tech: &Technology) -> f64 {
        tech.local_vth_sigma(self.width_multiple) / (self.depth as f64).sqrt()
    }

    /// Total gate capacitance presented by the stack input (F).
    pub fn input_cap(&self, tech: &Technology) -> f64 {
        // Each series device's gate hangs on the input in the worst case arc.
        tech.gate_cap(self.width_multiple)
    }

    /// Drain parasitic the stack contributes to the output node (F).
    pub fn output_parasitic(&self, tech: &Technology) -> f64 {
        tech.drain_cap(self.width_multiple) * self.depth as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn current_scales_with_width() {
        let t = Technology::synthetic_28nm();
        let i1 = drain_current(&t, t.vdd, t.vth0, 1.0);
        let i4 = drain_current(&t, t.vdd, t.vth0, 4.0);
        assert!((i4 / i1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn current_is_monotone_in_gate_drive() {
        let t = Technology::synthetic_28nm();
        let mut last = 0.0;
        for i in 0..20 {
            let vgs = 0.2 + 0.03 * i as f64;
            let cur = drain_current(&t, vgs, t.vth0, 1.0);
            assert!(cur > last, "I must grow with V_GS");
            last = cur;
        }
    }

    #[test]
    fn current_is_exponential_in_subthreshold() {
        let t = Technology::synthetic_28nm();
        // Deep subthreshold: vgs far below vth; ratio over a fixed step is
        // constant for an exponential.
        let step = 0.03;
        let r1 = drain_current(&t, 0.15 + step, t.vth0, 1.0) / drain_current(&t, 0.15, t.vth0, 1.0);
        let r2 = drain_current(&t, 0.10 + step, t.vth0, 1.0) / drain_current(&t, 0.10, t.vth0, 1.0);
        assert!((r1 / r2 - 1.0).abs() < 0.05, "r1={r1} r2={r2}");
    }

    #[test]
    fn on_current_magnitude_is_plausible() {
        let t = Technology::synthetic_28nm();
        let i = drain_current(&t, t.vdd, t.vth0, 1.0);
        // A near-threshold x1 device drives in the µA–tens-of-µA range.
        assert!(i > 1e-6 && i < 100e-6, "I_on = {i}");
    }

    #[test]
    fn stack_divides_current_and_averages_mismatch() {
        let t = Technology::synthetic_28nm();
        let single = Stack::new(1, 1.0);
        let double = Stack::new(2, 1.0);
        let i1 = single.drive_current(&t, 0.0, 1.0);
        let i2 = double.drive_current(&t, 0.0, 1.0);
        assert!((i1 / i2 - 2.0).abs() < 1e-12);

        let s1 = single.effective_local_sigma(&t);
        let s2 = double.effective_local_sigma(&t);
        assert!((s1 / s2 - 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn higher_vth_means_less_current() {
        let t = Technology::synthetic_28nm();
        let s = Stack::new(1, 1.0);
        assert!(s.drive_current(&t, 0.03, 1.0) < s.drive_current(&t, 0.0, 1.0));
        assert!(s.drive_current(&t, -0.03, 1.0) > s.drive_current(&t, 0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "stack depth must be at least 1")]
    fn stack_validates_depth() {
        Stack::new(0, 1.0);
    }
}
