//! EKV-style compact model of a fully-depleted double-gate SOI MOSFET.
//!
//! The paper's device (its Fig. 2, after Ren et al. [30]) is a 10 nm
//! gate-length thin-body FDSOI transistor with independent front and back
//! gates. The property the whole platform rests on is that **back-gate bias
//! shifts the threshold voltage** seen by the front gate: with the
//! complementary pair sharing a configuration bias, the pair's switching
//! point sweeps across — and past — the logic range (Fig. 3).
//!
//! We model the channel with the EKV interpolation, a single smooth
//! expression valid from weak to strong inversion:
//!
//! ```text
//! I_D = 2 n β φt² · [ ℓ²((V_P − V_S)/φt) − ℓ²((V_P − V_D)/φt) ]
//! ℓ(x) = ln(1 + e^(x/2)),     V_P = (V_GF − V_T)/n
//! V_T  = V_T0 − γ·V_GB        (back-gate modulation)
//! ```
//!
//! which is monotone in every terminal voltage — exactly what the bisection
//! solvers in [`crate::vtc`] and [`crate::gates`] need: each one finds the
//! root of a current balance that is monotone in its unknown voltage.

/// Thermal voltage at 300 K (V).
pub const PHI_T: f64 = 0.02585;

/// Channel polarity.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Polarity {
    /// Electron channel: conducts when the gate is high relative to source.
    N,
    /// Hole channel: conducts when the gate is low relative to source.
    P,
}

/// Compact double-gate MOSFET model.
///
/// All voltages are node voltages referenced to circuit ground; the model
/// internally re-references PMOS devices to their source. Currents are in
/// amperes with positive current flowing drain→source for NMOS and
/// source→drain for PMOS.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct DgMosfet {
    /// Channel polarity.
    pub polarity: Polarity,
    /// Zero-back-bias threshold magnitude (V). Positive for both polarities.
    pub vt0: f64,
    /// Back-gate threshold coupling coefficient (dimensionless). The
    /// paper's Fig. 3 needs the switching point to traverse the full rail
    /// for |V_G2| ≤ 1.5 V, which γ ≈ 0.45 provides at V_T0 = 0.25 V.
    pub gamma: f64,
    /// Subthreshold slope factor n (≈1 for an ideal fully-depleted DG
    /// device — one of the technology's selling points).
    pub n: f64,
    /// Specific current 2nβφt² (A); sets the absolute current scale.
    pub is_spec: f64,
}

impl DgMosfet {
    /// Default 10 nm-class NMOS used throughout the reproduction.
    pub fn nmos() -> Self {
        DgMosfet { polarity: Polarity::N, vt0: 0.25, gamma: 0.45, n: 1.05, is_spec: 1e-6 }
    }

    /// Matched PMOS (symmetric mobility assumed — a DG luxury; bulk CMOS
    /// would need a wider device).
    pub fn pmos() -> Self {
        DgMosfet { polarity: Polarity::P, ..Self::nmos() }
    }

    /// Effective threshold magnitude under back-gate bias `vgb` (V).
    ///
    /// For NMOS, positive `vgb` *lowers* V_T (strengthens the device); for
    /// PMOS the same positive bias *raises* the threshold magnitude
    /// (weakens it). A single shared configuration voltage therefore steers
    /// the complementary pair in opposite directions — the Fig. 3 mechanism.
    #[inline]
    pub fn vt_eff(&self, vgb: f64) -> f64 {
        match self.polarity {
            Polarity::N => self.vt0 - self.gamma * vgb,
            Polarity::P => self.vt0 + self.gamma * vgb,
        }
    }

    /// EKV interpolation ℓ(x) = ln(1+e^(x/2)), computed without overflow.
    #[inline]
    fn ell(x: f64) -> f64 {
        if x > 60.0 {
            x / 2.0
        } else {
            (1.0 + (x / 2.0).exp()).ln()
        }
    }

    /// Drain current (A).
    ///
    /// * NMOS: `vg`, `vs`, `vd` are node voltages; returns current flowing
    ///   from drain to source (≥ 0 when vd ≥ vs).
    /// * PMOS: returns current flowing from source to drain (≥ 0 when
    ///   vs ≥ vd), i.e. the current delivered *into* the output node of a
    ///   gate.
    ///
    /// `vgb` is the back-gate (configuration) voltage.
    pub fn current(&self, vg: f64, vs: f64, vd: f64, vgb: f64) -> f64 {
        let vt = self.vt_eff(vgb);
        match self.polarity {
            Polarity::N => {
                let vp = (vg - vs - vt) / self.n;
                let fwd = Self::ell(vp / PHI_T);
                let rev = Self::ell((vp - (vd - vs)) / PHI_T);
                self.is_spec * (fwd * fwd - rev * rev)
            }
            Polarity::P => {
                // Mirror: swap polarities of all controlling voltages
                // relative to the source.
                let vp = (vs - vg - vt) / self.n;
                let fwd = Self::ell(vp / PHI_T);
                let rev = Self::ell((vp - (vs - vd)) / PHI_T);
                self.is_spec * (fwd * fwd - rev * rev)
            }
        }
    }

    /// Sub-threshold leakage estimate: |I_D| at vgs = 0, saturated drain.
    pub fn leakage(&self, vdd: f64, vgb: f64) -> f64 {
        match self.polarity {
            Polarity::N => self.current(0.0, 0.0, vdd, vgb),
            Polarity::P => self.current(vdd, vdd, 0.0, vgb),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VDD: f64 = 1.0;

    #[test]
    fn nmos_current_monotone_in_vgs() {
        let m = DgMosfet::nmos();
        let mut last = -1.0;
        for i in 0..=20 {
            let vg = i as f64 * VDD / 20.0;
            let i_d = m.current(vg, 0.0, VDD, 0.0);
            assert!(i_d > last, "I_D must rise with V_GS");
            last = i_d;
        }
    }

    #[test]
    fn nmos_current_monotone_in_vds() {
        let m = DgMosfet::nmos();
        let mut last = -1.0;
        for i in 0..=20 {
            let vd = i as f64 * VDD / 20.0;
            let i_d = m.current(VDD, 0.0, vd, 0.0);
            assert!(i_d >= last, "I_D must be non-decreasing with V_DS");
            last = i_d;
        }
        assert_eq!(m.current(VDD, 0.0, 0.0, 0.0), 0.0, "no V_DS, no current");
    }

    #[test]
    fn pmos_mirrors_nmos() {
        let n = DgMosfet::nmos();
        let p = DgMosfet::pmos();
        // PMOS with source at VDD, gate at 0 conducts like NMOS with
        // source at 0, gate at VDD.
        let i_n = n.current(VDD, 0.0, VDD, 0.0);
        let i_p = p.current(0.0, VDD, 0.0, 0.0);
        assert!((i_n - i_p).abs() / i_n < 1e-9, "symmetric pair");
    }

    #[test]
    fn back_gate_shifts_threshold_oppositely() {
        let n = DgMosfet::nmos();
        let p = DgMosfet::pmos();
        assert!(n.vt_eff(1.5) < n.vt_eff(0.0), "positive bias strengthens NMOS");
        assert!(p.vt_eff(1.5) > p.vt_eff(0.0), "positive bias weakens PMOS");
        // Strong negative bias pushes NMOS threshold past the rail: off.
        assert!(n.vt_eff(-2.0) > VDD);
    }

    #[test]
    fn back_gate_modulates_on_current_by_orders_of_magnitude() {
        let m = DgMosfet::nmos();
        let on = m.current(VDD, 0.0, VDD, 2.0);
        let off = m.current(VDD, 0.0, VDD, -2.0);
        assert!(on / off > 1e3, "on/off ratio {} too small", on / off);
    }

    #[test]
    fn leakage_small_in_active_mode() {
        let m = DgMosfet::nmos();
        let leak = m.leakage(VDD, 0.0);
        let on = m.current(VDD, 0.0, VDD, 0.0);
        assert!(leak / on < 1e-2, "leakage {leak} vs on {on}");
    }

    #[test]
    fn ell_no_overflow() {
        assert!(DgMosfet::ell(1e4).is_finite());
        assert!(DgMosfet::ell(-1e4) >= 0.0);
    }
}
