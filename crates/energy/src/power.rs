//! Platform power models.

/// Per-phase power draw of a platform, in watts.
///
/// Node-level fields are *per node*: a `q`-node job in a given phase draws
/// `q ×` the phase's wattage. Platform-level fields (`pfs_*`, `tier_*`)
/// are aggregates for the whole subsystem.
///
/// The model follows Aupy et al. (*Optimal Checkpointing Period: Time vs.
/// Energy*): what matters for the checkpoint-period trade-off is the ratio
/// between the draw during a checkpoint write ([`ckpt_w`](PowerModel::ckpt_w))
/// and the draw during (re-executed) computation
/// ([`compute_w`](PowerModel::compute_w)) — see
/// `coopckpt_model::daly_period_energy`. Idle draw prices the time jobs
/// spend blocked on the I/O token, which time-waste counts at full weight
/// but energy-waste discounts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Draw of an idle node (allocated but blocked, or unallocated).
    pub idle_w: f64,
    /// Draw of a node progressing useful work.
    pub compute_w: f64,
    /// Draw of a node streaming its own (non-checkpoint) I/O.
    pub io_w: f64,
    /// Draw of a node writing a checkpoint (memory + NIC at full tilt).
    pub ckpt_w: f64,
    /// Draw of a node reading a recovery image.
    pub recovery_w: f64,
    /// Draw of a node that is down. The paper's hot-spare model replaces
    /// failed nodes instantly, so this phase never accrues in the
    /// simulator; it is kept so the model stays complete for analytic use.
    pub down_w: f64,
    /// Static draw of the parallel file system (paid over wall time).
    pub pfs_static_w: f64,
    /// Additional PFS draw while at least one transfer is in flight.
    pub pfs_active_w: f64,
    /// Static draw of each configured storage tier (paid over wall time,
    /// per tier).
    pub tier_static_w: f64,
    /// Additional draw of a storage tier while moving data at its
    /// reference write bandwidth.
    pub tier_active_w: f64,
}

impl PowerModel {
    /// Cielo-calibrated preset. Cielo drew ≈3.98 MW for 17,888 failure
    /// units (≈222 W each, all subsystems included); the split below puts
    /// a conventional CMOS gap between idle and compute draw and prices
    /// checkpoint writes slightly below compute (spinning disks of the
    /// 2010 era, CPUs near-idle during the blocking write).
    pub fn cielo() -> PowerModel {
        PowerModel {
            idle_w: 95.0,
            compute_w: 220.0,
            io_w: 140.0,
            ckpt_w: 140.0,
            recovery_w: 140.0,
            down_w: 10.0,
            pfs_static_w: 40_000.0,
            pfs_active_w: 60_000.0,
            tier_static_w: 5_000.0,
            tier_active_w: 10_000.0,
        }
    }

    /// The prospective-system preset: Aupy et al.'s Exascale projection,
    /// where the energy cost of moving a byte grows faster than the cost
    /// of computing on it, so checkpoint-write draw *exceeds* compute
    /// draw. Under this preset the energy-optimal period is strictly
    /// longer than the time-optimal Young/Daly period.
    pub fn prospective() -> PowerModel {
        PowerModel {
            idle_w: 120.0,
            compute_w: 320.0,
            io_w: 480.0,
            ckpt_w: 480.0,
            recovery_w: 480.0,
            down_w: 15.0,
            pfs_static_w: 200_000.0,
            pfs_active_w: 400_000.0,
            tier_static_w: 20_000.0,
            tier_active_w: 40_000.0,
        }
    }

    /// A zero-differential model: every node phase draws `watts` and the
    /// platform-level consumers draw nothing. With it, energy waste is
    /// proportional to time waste and the energy-optimal period equals
    /// the time-optimal Young/Daly period exactly.
    pub fn uniform(watts: f64) -> PowerModel {
        PowerModel {
            idle_w: watts,
            compute_w: watts,
            io_w: watts,
            ckpt_w: watts,
            recovery_w: watts,
            down_w: watts,
            pfs_static_w: 0.0,
            pfs_active_w: 0.0,
            tier_static_w: 0.0,
            tier_active_w: 0.0,
        }
    }

    /// Looks up a named preset (`"cielo"` or `"prospective"`).
    pub fn preset(name: &str) -> Option<PowerModel> {
        match name {
            "cielo" => Some(PowerModel::cielo()),
            "prospective" => Some(PowerModel::prospective()),
            _ => None,
        }
    }

    /// Checks every draw is finite and non-negative, and that the two
    /// draws entering the energy-optimal period (compute, checkpoint) are
    /// strictly positive.
    pub fn validate(&self) -> Result<(), String> {
        let fields = [
            ("idle_w", self.idle_w),
            ("compute_w", self.compute_w),
            ("io_w", self.io_w),
            ("ckpt_w", self.ckpt_w),
            ("recovery_w", self.recovery_w),
            ("down_w", self.down_w),
            ("pfs_static_w", self.pfs_static_w),
            ("pfs_active_w", self.pfs_active_w),
            ("tier_static_w", self.tier_static_w),
            ("tier_active_w", self.tier_active_w),
        ];
        for (name, w) in fields {
            if !(w.is_finite() && w >= 0.0) {
                return Err(format!("power {name} must be finite and >= 0, got {w}"));
            }
        }
        if self.compute_w <= 0.0 || self.ckpt_w <= 0.0 {
            return Err("compute_w and ckpt_w must be strictly positive".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        PowerModel::cielo().validate().unwrap();
        PowerModel::prospective().validate().unwrap();
        PowerModel::uniform(150.0).validate().unwrap();
    }

    #[test]
    fn preset_lookup() {
        assert_eq!(PowerModel::preset("cielo"), Some(PowerModel::cielo()));
        assert_eq!(
            PowerModel::preset("prospective"),
            Some(PowerModel::prospective())
        );
        assert_eq!(PowerModel::preset("fusion"), None);
    }

    #[test]
    fn period_factor_directions() {
        // Cielo: checkpoint writes cheaper than compute -> shorter period.
        let cielo = PowerModel::cielo();
        assert!(cielo.ckpt_w < cielo.compute_w);
        // Prospective Exascale: I/O-heavy -> longer period.
        let prospective = PowerModel::prospective();
        assert!(prospective.ckpt_w > prospective.compute_w);
        // Zero differential -> exactly the Young/Daly period.
        let uniform = PowerModel::uniform(100.0);
        assert_eq!(uniform.ckpt_w, uniform.compute_w);
    }

    #[test]
    fn invalid_models_are_rejected() {
        let mut m = PowerModel::cielo();
        m.compute_w = 0.0;
        assert!(m.validate().is_err());
        let mut m = PowerModel::cielo();
        m.idle_w = f64::NAN;
        assert!(m.validate().is_err());
        let mut m = PowerModel::cielo();
        m.pfs_static_w = -1.0;
        assert!(m.validate().is_err());
    }
}
