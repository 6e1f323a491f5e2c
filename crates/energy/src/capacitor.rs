//! The storage capacitor and its voltage thresholds.

use serde::{Deserialize, Serialize};

/// Electrical configuration of a [`Capacitor`].
///
/// The voltage levels partition the capacitor's range into the regions
/// the paper's NVP platform uses:
///
/// * `(v_on, v_max]` — fully charged; the system (re)boots at `v_on`.
/// * `(v_backup, v_on]` — normal operating region. IPEX's thresholds
///   (initially 3.3 V / 3.25 V, Fig. 9) live here.
/// * `(v_min, v_backup]` — reserve region: crossing `v_backup` downward
///   triggers the JIT checkpoint, which must complete before `v_min`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapacitorConfig {
    /// Capacitance in microfarads (paper default: 0.47 µF).
    pub capacitance_uf: f64,
    /// Maximum (fully charged) voltage.
    pub v_max: f64,
    /// Voltage at which a powered-off system reboots.
    pub v_on: f64,
    /// Voltage at which the JIT checkpoint (backup) is triggered.
    pub v_backup: f64,
    /// Minimum usable voltage; below this the logic browns out.
    pub v_min: f64,
}

impl CapacitorConfig {
    /// The paper's default electrical point: 0.47 µF, operating between
    /// 3.2 V (backup trigger) and 3.4 V (full). The narrow band follows
    /// the paper's own voltage landmarks: Fig. 7 shows the system running
    /// at 3.22 V and the IPEX thresholds live at 3.3/3.25 V, so `V_backup`
    /// must sit below 3.2 V and the full charge just above 3.4 V. The
    /// resulting ~310 nJ operating budget produces the short, frequent
    /// power cycles that define the paper's environment.
    pub fn paper_default() -> CapacitorConfig {
        CapacitorConfig {
            capacitance_uf: 0.47,
            v_max: 3.4,
            v_on: 3.4,
            v_backup: 3.2,
            v_min: 3.0,
        }
    }

    /// The paper default with a different capacitance (Fig. 22 sweep).
    pub fn with_capacitance_uf(uf: f64) -> CapacitorConfig {
        CapacitorConfig {
            capacitance_uf: uf,
            ..CapacitorConfig::paper_default()
        }
    }

    fn validate(&self) {
        assert!(self.capacitance_uf > 0.0, "capacitance must be positive");
        assert!(
            self.v_min < self.v_backup && self.v_backup < self.v_on && self.v_on <= self.v_max,
            "voltage levels must satisfy v_min < v_backup < v_on <= v_max"
        );
    }

    /// Stored energy at `voltage`, in nanojoules (`½CV²`).
    pub fn energy_at_nj(&self, voltage: f64) -> f64 {
        0.5 * self.capacitance_uf * 1.0e-6 * voltage * voltage * 1.0e9
    }

    /// Usable energy between `v_on` and `v_backup` — the budget of one
    /// power cycle before the checkpoint triggers, in nanojoules.
    pub fn operating_budget_nj(&self) -> f64 {
        self.energy_at_nj(self.v_on) - self.energy_at_nj(self.v_backup)
    }

    /// Energy reserved between `v_backup` and `v_min` for completing the
    /// JIT checkpoint, in nanojoules.
    pub fn backup_reserve_nj(&self) -> f64 {
        self.energy_at_nj(self.v_backup) - self.energy_at_nj(self.v_min)
    }
}

/// The storage capacitor: an energy integrator exposing its voltage.
#[derive(Debug, Clone, Copy)]
pub struct Capacitor {
    cfg: CapacitorConfig,
    energy_nj: f64,
    /// Capacity at `v_max`, cached so the per-cycle harvest saturation
    /// check is a compare instead of a `½CV²` recomputation. Always
    /// exactly `cfg.energy_at_nj(cfg.v_max)`.
    max_nj: f64,
}

impl Capacitor {
    /// Creates a capacitor charged to `v_max`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration's voltage ordering is invalid.
    pub fn full(cfg: CapacitorConfig) -> Capacitor {
        cfg.validate();
        let max_nj = cfg.energy_at_nj(cfg.v_max);
        Capacitor {
            cfg,
            energy_nj: max_nj,
            max_nj,
        }
    }

    /// Creates a capacitor at a specific voltage.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `voltage` exceeds `v_max`.
    pub fn at_voltage(cfg: CapacitorConfig, voltage: f64) -> Capacitor {
        cfg.validate();
        assert!(
            voltage >= 0.0 && voltage <= cfg.v_max,
            "voltage out of range"
        );
        Capacitor {
            cfg,
            energy_nj: cfg.energy_at_nj(voltage),
            max_nj: cfg.energy_at_nj(cfg.v_max),
        }
    }

    /// Creates a capacitor holding exactly `energy_nj` nanojoules.
    ///
    /// Unlike [`Capacitor::at_voltage`] (which recomputes `½CV²` from a
    /// rounded voltage), this restores the stored energy bit-exactly —
    /// the constructor the snapshot/resume subsystem uses.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, `energy_nj` is negative,
    /// or the energy exceeds the `v_max` capacity.
    pub fn with_energy_nj(cfg: CapacitorConfig, energy_nj: f64) -> Capacitor {
        cfg.validate();
        assert!(
            energy_nj >= 0.0 && energy_nj <= cfg.energy_at_nj(cfg.v_max),
            "stored energy out of range"
        );
        Capacitor {
            cfg,
            energy_nj,
            max_nj: cfg.energy_at_nj(cfg.v_max),
        }
    }

    /// The electrical configuration.
    pub fn config(&self) -> CapacitorConfig {
        self.cfg
    }

    /// Current voltage in volts (`√(2E/C)`).
    pub fn voltage(&self) -> f64 {
        (2.0 * self.energy_nj * 1.0e-9 / (self.cfg.capacitance_uf * 1.0e-6)).sqrt()
    }

    /// Current stored energy in nanojoules.
    pub fn energy_nj(&self) -> f64 {
        self.energy_nj
    }

    /// Adds harvested energy, saturating at the `v_max` capacity.
    ///
    /// Returns the energy actually absorbed (excess input is discarded —
    /// the harvester's regulator sheds power once the capacitor is full).
    pub fn harvest_nj(&mut self, nj: f64) -> f64 {
        debug_assert!(nj >= 0.0);
        let absorbed = nj.min(self.max_nj - self.energy_nj);
        self.energy_nj += absorbed;
        absorbed
    }

    /// Drains energy. The charge never goes negative; draining more than
    /// is stored empties the capacitor (the brown-out case — callers
    /// check voltages before relying on completed work).
    pub fn consume_nj(&mut self, nj: f64) {
        debug_assert!(nj >= 0.0);
        self.energy_nj = (self.energy_nj - nj).max(0.0);
    }

    /// [`Capacitor::consume_nj`]`(draw)` followed by
    /// [`Capacitor::harvest_nj`]`(harvest)`, bit for bit, with a shorter
    /// dependency chain for the simulator's per-instruction update.
    ///
    /// With `e1 = energy - draw` and `room = max - e1`, the composition
    /// yields `e1 + harvest` when `e1 >= 0` and `harvest <= room` (the
    /// unclamped case) and `e1 + room` when `e1 >= 0` and
    /// `harvest > room` (saturation: `min` picks `room`). Both sit
    /// behind predictable branches instead of a loop-carried
    /// `max`→`min` chain. Anything else (an overdrawn capacitor, or a
    /// NaN) runs the composition itself, so equality holds by
    /// construction there too.
    #[inline]
    pub fn consume_then_harvest(&mut self, draw: f64, harvest: f64) {
        debug_assert!(draw >= 0.0 && harvest >= 0.0);
        let e1 = self.energy_nj - draw;
        if e1 >= 0.0 {
            let room = self.max_nj - e1;
            self.energy_nj = if harvest <= room {
                e1 + harvest
            } else {
                e1 + room
            };
        } else {
            self.consume_nj(draw);
            self.harvest_nj(harvest);
        }
    }

    /// `true` when the voltage is at or below the backup threshold.
    pub fn needs_backup(&self) -> bool {
        self.voltage() <= self.cfg.v_backup
    }

    /// `true` when the voltage has recovered to the reboot threshold.
    pub fn can_boot(&self) -> bool {
        self.voltage() >= self.cfg.v_on
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_energy_budget() {
        let cfg = CapacitorConfig::paper_default();
        // ½·0.47µF·(3.4² − 3.2²) = 310.2 nJ.
        assert!((cfg.operating_budget_nj() - 310.2).abs() < 0.5);
        // Reserve: ½·0.47µF·(3.2² − 3.0²) = 291.4 nJ.
        assert!((cfg.backup_reserve_nj() - 291.4).abs() < 0.5);
    }

    #[test]
    fn voltage_energy_round_trip() {
        let cap = Capacitor::at_voltage(CapacitorConfig::paper_default(), 3.25);
        assert!((cap.voltage() - 3.25).abs() < 1e-9);
    }

    #[test]
    fn harvest_saturates_at_vmax() {
        let cfg = CapacitorConfig::paper_default();
        let mut cap = Capacitor::at_voltage(cfg, 3.3);
        let absorbed = cap.harvest_nj(1.0e9);
        assert!((cap.voltage() - 3.4).abs() < 1e-9);
        assert!(absorbed < 1.0e9);
        // A full capacitor absorbs nothing.
        assert_eq!(cap.harvest_nj(10.0), 0.0);
    }

    #[test]
    fn consume_lowers_voltage_monotonically() {
        let mut cap = Capacitor::full(CapacitorConfig::paper_default());
        let mut last = cap.voltage();
        for _ in 0..10 {
            cap.consume_nj(50.0);
            let v = cap.voltage();
            assert!(v < last);
            last = v;
        }
    }

    #[test]
    fn consume_never_negative() {
        let mut cap = Capacitor::at_voltage(CapacitorConfig::paper_default(), 0.5);
        cap.consume_nj(1.0e9);
        assert_eq!(cap.energy_nj(), 0.0);
        assert_eq!(cap.voltage(), 0.0);
    }

    #[test]
    fn threshold_predicates() {
        let cfg = CapacitorConfig::paper_default();
        let full = Capacitor::full(cfg);
        assert!(full.can_boot());
        assert!(!full.needs_backup());
        let low = Capacitor::at_voltage(cfg, 3.15);
        assert!(low.needs_backup());
        assert!(!low.can_boot());
    }

    #[test]
    #[should_panic(expected = "v_min < v_backup")]
    fn invalid_ordering_panics() {
        let cfg = CapacitorConfig {
            v_backup: 2.0,
            ..CapacitorConfig::paper_default()
        };
        Capacitor::full(cfg);
    }

    #[test]
    fn larger_capacitance_stores_more() {
        let small = CapacitorConfig::paper_default();
        let big = CapacitorConfig::with_capacitance_uf(47.0);
        assert!(big.operating_budget_nj() > 50.0 * small.operating_budget_nj());
    }
}
