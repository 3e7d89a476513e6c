//! Per Row Activation Counting (PRAC), adapted for PuD operations (§8.2).
//!
//! PRAC (JEDEC DDR5, April 2024) keeps one activation counter per row;
//! when a counter reaches the read-disturbance threshold (RDT) the chip
//! asserts back-off and the controller must issue RFM, which preventively
//! refreshes victims. A SiMRA operation activates up to 32 rows at once,
//! so the adapted designs must update multiple counters:
//!
//! - **PRAC-AO** (area-optimized) updates them sequentially — one extra
//!   `t_RC` per additional row, blocking the bank for up to ~1.5 µs;
//! - **PRAC-PO** (performance-optimized) updates them simultaneously.
//!
//! Two PRAC-PO configurations are evaluated: **Naive** (RDT lowered to the
//! lowest SiMRA HC_first, ≈20) and **Weighted Counting** (RDT ≈ 4000 with
//! each operation counted by its relative disturbance: SiMRA = 200,
//! CoMRA = 10, ACT = 1 — §8.2 "Weighted Counting Optimization").

use std::sync::Arc;

use pud_observe::Counter;

/// The kind of row activation, for weighted counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActKind {
    /// A normal single-row activation.
    Normal,
    /// One CoMRA (in-DRAM copy) operation.
    Comra,
    /// One SiMRA (simultaneous multi-row activation) operation.
    Simra,
}

/// Mitigation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mitigation {
    /// No read-disturbance mitigation (the evaluation baseline).
    None,
    /// PRAC-PO with the RDT lowered to the lowest SiMRA HC_first.
    PracPoNaive,
    /// PRAC-PO with weighted counting.
    PracPoWeighted,
    /// PRAC-AO with weighted counting (sequential counter updates).
    PracAoWeighted,
}

impl Mitigation {
    /// Read-disturbance threshold for the configuration.
    ///
    /// §8.2: the lowest HC_first values are ≈4K (RowHammer), ≈400 (CoMRA),
    /// and ≈20 (SiMRA); Naive lowers the RDT to 20, weighted counting keeps
    /// RDT = 4000 and scales each operation's contribution instead.
    pub fn rdt(self) -> u64 {
        match self {
            Mitigation::None => u64::MAX,
            Mitigation::PracPoNaive => 20,
            Mitigation::PracPoWeighted | Mitigation::PracAoWeighted => 4_000,
        }
    }

    /// Counter increment for an operation of `kind`.
    pub fn weight(self, kind: ActKind) -> u64 {
        match self {
            Mitigation::None => 0,
            Mitigation::PracPoNaive => 1,
            Mitigation::PracPoWeighted | Mitigation::PracAoWeighted => match kind {
                ActKind::Normal => 1,
                ActKind::Comra => 10,
                ActKind::Simra => 200,
            },
        }
    }

    /// Whether counter updates are sequential (PRAC-AO).
    pub fn sequential_updates(self) -> bool {
        matches!(self, Mitigation::PracAoWeighted)
    }
}

/// Result of accounting one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PracOutcome {
    /// Extra bank-busy nanoseconds for the counter update (PRAC-AO).
    pub extra_latency_ns: u64,
    /// Back-off asserted: the controller must issue an RFM to this bank.
    pub alert: bool,
}

/// Per-row activation counters for the whole memory system.
#[derive(Debug, Clone)]
pub struct Prac {
    mitigation: Mitigation,
    rows_per_bank: u32,
    counters: Vec<Vec<u64>>,
    rfms_serviced: u64,
    backoffs_metric: Arc<Counter>,
    rfm_metric: Arc<Counter>,
}

impl Prac {
    /// Creates counters for `banks` banks of `rows_per_bank` rows;
    /// [`Mitigation::None`] counts nothing and gets no table.
    pub fn new(mitigation: Mitigation, banks: usize, rows_per_bank: u32) -> Prac {
        let banks = if mitigation == Mitigation::None {
            0
        } else {
            banks
        };
        Prac {
            mitigation,
            rows_per_bank,
            counters: vec![vec![0; rows_per_bank as usize]; banks],
            rfms_serviced: 0,
            backoffs_metric: pud_observe::counter("memsim.abo_backoffs"),
            rfm_metric: pud_observe::counter("memsim.rfm_issued"),
        }
    }

    /// The configured mitigation.
    pub fn mitigation(&self) -> Mitigation {
        self.mitigation
    }

    /// Accounts one operation activating `rows` in `bank`.
    ///
    /// # Panics
    ///
    /// Panics if `bank` or any row is out of range.
    pub fn on_activation(
        &mut self,
        bank: usize,
        rows: &[u32],
        kind: ActKind,
        t_rc_ns: u64,
    ) -> PracOutcome {
        if self.mitigation == Mitigation::None {
            return PracOutcome {
                extra_latency_ns: 0,
                alert: false,
            };
        }
        let w = self.mitigation.weight(kind);
        let rdt = self.mitigation.rdt();
        let table = &mut self.counters[bank];
        let mut alert = false;
        for &r in rows {
            let c = &mut table[r as usize];
            *c += w;
            if *c >= rdt {
                alert = true;
            }
        }
        let extra_latency_ns = if self.mitigation.sequential_updates() && rows.len() > 1 {
            (rows.len() as u64 - 1) * t_rc_ns
        } else {
            0
        };
        PracOutcome {
            extra_latency_ns,
            alert,
        }
    }

    /// Services a back-off episode on `bank`: every row at or above the RDT
    /// gets one RFM (victims preventively refreshed, counter reset).
    ///
    /// Returns the number of RFM commands issued — the memory controller is
    /// blocked for `t_RFM` per command while the alert is being cleared
    /// (the DDR5 ABO protocol drains the channel).
    pub fn service_alert(&mut self, bank: usize) -> u64 {
        let rdt = self.mitigation.rdt();
        let mut rfms = 0;
        for c in &mut self.counters[bank] {
            if *c >= rdt {
                *c = 0;
                rfms += 1;
            }
        }
        self.rfms_serviced += rfms;
        self.backoffs_metric.incr();
        self.rfm_metric.add(rfms);
        rfms
    }

    /// Total RFMs serviced.
    pub fn rfm_count(&self) -> u64 {
        self.rfms_serviced
    }

    /// The highest counter value in a bank (diagnostics; always 0 under
    /// [`Mitigation::None`]).
    pub fn max_counter(&self, bank: usize) -> u64 {
        if self.mitigation == Mitigation::None {
            return 0;
        }
        self.counters[bank].iter().copied().max().unwrap_or(0)
    }

    /// Number of rows per bank.
    pub fn rows_per_bank(&self) -> u32 {
        self.rows_per_bank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_counting_matches_paper_weights() {
        let m = Mitigation::PracPoWeighted;
        assert_eq!(m.weight(ActKind::Normal), 1);
        assert_eq!(m.weight(ActKind::Comra), 10);
        assert_eq!(m.weight(ActKind::Simra), 200);
        assert_eq!(m.rdt(), 4_000);
        assert_eq!(Mitigation::PracPoNaive.rdt(), 20);
    }

    #[test]
    fn naive_alerts_after_twenty_activations() {
        let mut p = Prac::new(Mitigation::PracPoNaive, 1, 64);
        for i in 0..19 {
            let out = p.on_activation(0, &[5], ActKind::Normal, 47);
            assert!(!out.alert, "no alert at activation {i}");
        }
        assert!(p.on_activation(0, &[5], ActKind::Normal, 47).alert);
        assert_eq!(p.service_alert(0), 1);
        assert_eq!(p.max_counter(0), 0);
        assert_eq!(p.rfm_count(), 1);
    }

    #[test]
    fn weighted_simra_alerts_after_twenty_ops() {
        // 20 SiMRA ops × 200 = 4000 = RDT, matching the naive threshold in
        // operations — the weighting preserves security (§8.2).
        let mut p = Prac::new(Mitigation::PracPoWeighted, 1, 64);
        let rows: Vec<u32> = (0..32).collect();
        for _ in 0..19 {
            assert!(!p.on_activation(0, &rows, ActKind::Simra, 47).alert);
        }
        assert!(p.on_activation(0, &rows, ActKind::Simra, 47).alert);
    }

    #[test]
    fn weighted_normal_activations_alert_at_4000() {
        let mut p = Prac::new(Mitigation::PracPoWeighted, 1, 64);
        for _ in 0..3_999 {
            assert!(!p.on_activation(0, &[7], ActKind::Normal, 47).alert);
        }
        assert!(p.on_activation(0, &[7], ActKind::Normal, 47).alert);
    }

    #[test]
    fn area_optimized_pays_sequential_latency() {
        let mut p = Prac::new(Mitigation::PracAoWeighted, 1, 64);
        let rows: Vec<u32> = (0..32).collect();
        let out = p.on_activation(0, &rows, ActKind::Simra, 47);
        // 31 extra counter updates × tRC ≈ 1.5 µs (§8.2 PRAC-AO analysis).
        assert_eq!(out.extra_latency_ns, 31 * 47);
        assert!(out.extra_latency_ns > 1_400);
        // PRAC-PO pays nothing.
        let mut po = Prac::new(Mitigation::PracPoWeighted, 1, 64);
        assert_eq!(
            po.on_activation(0, &rows, ActKind::Simra, 47)
                .extra_latency_ns,
            0
        );
    }

    #[test]
    fn none_mode_never_alerts() {
        let mut p = Prac::new(Mitigation::None, 1, 8);
        for _ in 0..100_000 {
            assert!(!p.on_activation(0, &[0], ActKind::Simra, 47).alert);
        }
    }

    #[test]
    fn rfm_resets_only_saturated_rows() {
        let mut p = Prac::new(Mitigation::PracPoNaive, 1, 8);
        for _ in 0..20 {
            p.on_activation(0, &[1], ActKind::Normal, 47);
        }
        for _ in 0..5 {
            p.on_activation(0, &[2], ActKind::Normal, 47);
        }
        assert_eq!(p.service_alert(0), 1, "one RFM per saturated row");
        assert_eq!(p.max_counter(0), 5, "unsaturated counters persist");
    }
}
