//! Performance models: raytrace throughput (Fig. 7) and instruction
//! throughput (Table II).
//!
//! The paper benchmarks the platform with the smallpt ray tracer at a
//! quality of 5 samples per pixel and reports frames per second per
//! OPP (Fig. 7), and separately reports completed renders and estimated
//! executed instructions for the 60-minute governor comparison
//! (Table II). We model both with a per-core-rate × frequency ×
//! parallel-efficiency decomposition:
//!
//! ```text
//! FPS(nL, nb, f)  = (nL·g_L + nb·g_b) · f_GHz · eff(nL + nb)
//! IPS(nL, nb, f)  = (nL·ipc_L + nb·ipc_b) · f · eff(nL + nb)
//! ```
//!
//! `eff(n)` loses a small fixed fraction per additional thread
//! (synchronisation + memory contention), which matches the slightly
//! sub-linear scaling visible in Fig. 7.

use crate::cores::CoreConfig;
use crate::SocError;
use pn_units::Hertz;

/// Calibrated throughput model for the smallpt workload on the XU4.
///
/// # Examples
///
/// ```
/// use pn_soc::perf::PerfModel;
/// use pn_soc::cores::CoreConfig;
/// use pn_units::Hertz;
///
/// # fn main() -> Result<(), pn_soc::SocError> {
/// let perf = PerfModel::odroid_xu4();
/// let four_little = CoreConfig::new(4, 0)?;
/// let fps = perf.frames_per_second(four_little, Hertz::from_gigahertz(1.4));
/// assert!((fps - 0.065).abs() < 0.01); // Fig. 7, left panel, top point
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfModel {
    /// Benchmark frames/s contributed by one LITTLE core per GHz.
    fps_per_ghz_little: f64,
    /// Benchmark frames/s contributed by one big core per GHz.
    fps_per_ghz_big: f64,
    /// Effective instructions per cycle of a LITTLE core.
    ipc_little: f64,
    /// Effective instructions per cycle of a big core.
    ipc_big: f64,
    /// Fractional efficiency lost per additional online core.
    efficiency_loss_per_core: f64,
}

impl PerfModel {
    /// Creates a model from explicit parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidParameter`] for non-positive rates or
    /// an efficiency loss outside `[0, 0.1]`.
    pub fn new(
        fps_per_ghz_little: f64,
        fps_per_ghz_big: f64,
        ipc_little: f64,
        ipc_big: f64,
        efficiency_loss_per_core: f64,
    ) -> Result<Self, SocError> {
        let ok = fps_per_ghz_little > 0.0
            && fps_per_ghz_big > 0.0
            && ipc_little > 0.0
            && ipc_big > 0.0
            && (0.0..=0.1).contains(&efficiency_loss_per_core);
        if !ok {
            return Err(SocError::InvalidParameter(
                "perf rates must be positive, efficiency loss in [0, 0.1]",
            ));
        }
        Ok(Self {
            fps_per_ghz_little,
            fps_per_ghz_big,
            ipc_little,
            ipc_big,
            efficiency_loss_per_core,
        })
    }

    /// The calibrated ODROID XU4 model (Fig. 7 / Table II).
    pub fn odroid_xu4() -> Self {
        Self::new(0.01216, 0.0377, 0.22, 0.74, 0.015).expect("preset perf model is valid")
    }

    /// Parallel efficiency for `n` online cores.
    fn parallel_efficiency(&self, n: u8) -> f64 {
        (1.0 - self.efficiency_loss_per_core * f64::from(n.saturating_sub(1))).max(0.5)
    }

    /// Benchmark frames per second at an OPP (Fig. 7 ordinate).
    pub fn frames_per_second(&self, config: CoreConfig, f: Hertz) -> f64 {
        let raw = f64::from(config.little()) * self.fps_per_ghz_little
            + f64::from(config.big()) * self.fps_per_ghz_big;
        raw * f.to_gigahertz() * self.parallel_efficiency(config.total())
    }

    /// Aggregate instruction throughput at an OPP, in instructions per
    /// second (Table II basis).
    pub fn instructions_per_second(&self, config: CoreConfig, f: Hertz) -> f64 {
        let per_cycle = f64::from(config.little()) * self.ipc_little
            + f64::from(config.big()) * self.ipc_big;
        per_cycle * f.value() * self.parallel_efficiency(config.total())
    }
}

impl Default for PerfModel {
    fn default() -> Self {
        Self::odroid_xu4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ghz(g: f64) -> Hertz {
        Hertz::from_gigahertz(g)
    }

    #[test]
    fn fig7_calibration_points() {
        let m = PerfModel::odroid_xu4();
        // Left panel: 4 A7 at max frequency ≈ 0.065 FPS.
        let fps_4l = m.frames_per_second(CoreConfig::new(4, 0).unwrap(), ghz(1.4));
        assert!((fps_4l - 0.065).abs() < 0.008, "4L fps = {fps_4l}");
        // Right panel: all 8 cores ≈ 0.25 FPS.
        let fps_8 = m.frames_per_second(CoreConfig::MAX, ghz(1.4));
        assert!((fps_8 - 0.25).abs() < 0.03, "8-core fps = {fps_8}");
        // One A7 at 200 MHz sits at the very bottom of the plot.
        let fps_min = m.frames_per_second(CoreConfig::MIN, ghz(0.2));
        assert!(fps_min > 0.001 && fps_min < 0.006, "min fps = {fps_min}");
    }

    #[test]
    fn big_cores_are_about_three_times_faster() {
        let m = PerfModel::odroid_xu4();
        let r = m.fps_per_ghz_big / m.fps_per_ghz_little;
        assert!(r > 2.5 && r < 3.8, "ratio = {r}");
    }

    #[test]
    fn table2_powersave_instruction_rate() {
        // Powersave pins all 8 cores at 200 MHz. The paper measured
        // 2485.6 G instructions in 60 minutes ⇒ ≈0.69 GIPS.
        let m = PerfModel::odroid_xu4();
        let gips = m.instructions_per_second(CoreConfig::MAX, ghz(0.2)) / 1e9;
        assert!((gips - 0.69).abs() < 0.12, "powersave gips = {gips}");
    }

    #[test]
    fn table2_conservative_peak_instruction_rate() {
        // Conservative dies ~5 s after ramping to maximum: 24 G
        // instructions in ≈5 s ⇒ ≈4.8 GIPS at the top OPP.
        let m = PerfModel::odroid_xu4();
        let gips = m.instructions_per_second(CoreConfig::MAX, ghz(1.4)) / 1e9;
        assert!((gips - 4.8).abs() < 0.6, "max gips = {gips}");
    }

    #[test]
    fn efficiency_is_clamped() {
        let m = PerfModel::odroid_xu4();
        assert_eq!(m.parallel_efficiency(1), 1.0);
        assert!(m.parallel_efficiency(8) > 0.85);
    }

    #[test]
    fn constructor_validates() {
        assert!(PerfModel::new(0.0, 1.0, 0.3, 0.5, 0.01).is_err());
        assert!(PerfModel::new(0.01, 0.03, 0.3, 0.5, 0.5).is_err());
    }

    proptest! {
        #[test]
        fn fps_monotone_in_frequency(g in 0.2f64..1.3, dg in 0.01f64..0.1,
                                     little in 1u8..=4, big in 0u8..=4) {
            let m = PerfModel::odroid_xu4();
            let c = CoreConfig::new(little, big).unwrap();
            prop_assert!(m.frames_per_second(c, ghz(g + dg)) > m.frames_per_second(c, ghz(g)));
        }

        #[test]
        fn adding_a_core_always_helps(g in 0.2f64..1.4, little in 1u8..4, big in 0u8..4) {
            let m = PerfModel::odroid_xu4();
            let c = CoreConfig::new(little, big).unwrap();
            let more_l = CoreConfig::new(little + 1, big).unwrap();
            let more_b = CoreConfig::new(little, big + 1).unwrap();
            prop_assert!(m.frames_per_second(more_l, ghz(g)) > m.frames_per_second(c, ghz(g)));
            prop_assert!(m.frames_per_second(more_b, ghz(g)) > m.frames_per_second(c, ghz(g)));
            prop_assert!(m.instructions_per_second(more_b, ghz(g))
                         > m.instructions_per_second(c, ghz(g)));
        }
    }
}
