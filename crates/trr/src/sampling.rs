//! Sampling-based Target Row Refresh.
//!
//! The paper uncovers (via U-TRR) that the tested SK Hynix module uses a
//! sampling-based TRR: the chip probabilistically identifies one aggressor
//! row from the row addresses of the ACT commands before a TRR-capable REF,
//! then preventively refreshes that row's neighbours (§7). This model keeps
//! a uniform reservoir sample over the ACTs since the last TRR-capable REF.

use std::sync::Arc;

use pud_bender::ActivityObserver;
use pud_dram::{BankId, RowAddr, RowMapping};
use pud_observe::Counter;

/// Configuration of a sampling TRR mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingTrrConfig {
    /// Every `refs_per_trr`-th REF command performs a TRR victim refresh.
    pub refs_per_trr: u64,
    /// Neighbour distance refreshed around the sampled aggressor (±1, ±2).
    pub blast_radius: u32,
}

impl Default for SamplingTrrConfig {
    fn default() -> SamplingTrrConfig {
        SamplingTrrConfig {
            refs_per_trr: 3,
            blast_radius: 2,
        }
    }
}

/// A sampling-based in-DRAM TRR mechanism.
///
/// Installed on a [`pud_bender::Executor`] as an [`ActivityObserver`]. Key
/// property reproduced from the paper: the mechanism only ever sees the row
/// addresses *on the command bus* — a SiMRA operation that activates 32
/// rows presents just two addresses, so 30 aggressors go unnoticed
/// (Observation 26).
#[derive(Debug, Clone)]
pub struct SamplingTrr {
    config: SamplingTrrConfig,
    mapping: RowMapping,
    sampled: Option<(BankId, RowAddr)>,
    seen_in_window: u64,
    refs: u64,
    trr_refreshes: u64,
    rng: u64,
    capable_refs_metric: Arc<Counter>,
    victim_refreshes_metric: Arc<Counter>,
}

impl SamplingTrr {
    /// Creates the mechanism for a chip with the given row mapping (the
    /// in-DRAM logic knows its own topology, so it refreshes *physical*
    /// neighbours).
    pub fn new(config: SamplingTrrConfig, mapping: RowMapping, seed: u64) -> SamplingTrr {
        SamplingTrr {
            config,
            mapping,
            sampled: None,
            seen_in_window: 0,
            refs: 0,
            trr_refreshes: 0,
            rng: seed | 1,
            capable_refs_metric: pud_observe::counter("trr.capable_refs"),
            victim_refreshes_metric: pud_observe::counter("trr.victim_refreshes"),
        }
    }

    /// Number of TRR-capable REFs issued so far.
    pub fn trr_refresh_count(&self) -> u64 {
        self.trr_refreshes
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

impl ActivityObserver for SamplingTrr {
    fn on_act(&mut self, bank: BankId, logical_row: RowAddr) {
        // Reservoir sampling over the ACTs seen since the last TRR REF:
        // each ACT replaces the current sample with probability 1/k.
        self.seen_in_window += 1;
        if self.next_u64().is_multiple_of(self.seen_in_window) {
            self.sampled = Some((bank, logical_row));
        }
    }

    fn on_ref(&mut self, _bank_hint: BankId, victims: &mut Vec<(BankId, RowAddr)>) {
        self.refs += 1;
        if !self.refs.is_multiple_of(self.config.refs_per_trr) {
            return;
        }
        self.trr_refreshes += 1;
        self.capable_refs_metric.incr();
        self.seen_in_window = 0;
        let Some((bank, aggressor)) = self.sampled.take() else {
            return;
        };
        self.victim_refreshes_metric.incr();
        let phys = self.mapping.to_physical(aggressor);
        for d in 1..=self.config.blast_radius {
            for delta in [-(i64::from(d)), i64::from(d)] {
                if let Some(v) = phys.offset(delta) {
                    victims.push((bank, self.mapping.to_logical(v)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trr() -> SamplingTrr {
        SamplingTrr::new(SamplingTrrConfig::default(), RowMapping::Sequential, 9)
    }

    /// The victims one REF refreshes.
    fn on_ref(t: &mut SamplingTrr) -> Vec<(BankId, RowAddr)> {
        let mut victims = Vec::new();
        t.on_ref(BankId(0), &mut victims);
        victims
    }

    #[test]
    fn refreshes_neighbors_of_sampled_aggressor() {
        let mut t = trr();
        for _ in 0..100 {
            t.on_act(BankId(0), RowAddr(50));
        }
        // Only every third REF is TRR-capable.
        assert!(on_ref(&mut t).is_empty());
        assert!(on_ref(&mut t).is_empty());
        let victims = on_ref(&mut t);
        let rows: Vec<u32> = victims.iter().map(|(_, r)| r.0).collect();
        assert!(rows.contains(&49) && rows.contains(&51));
        assert!(rows.contains(&48) && rows.contains(&52));
        assert_eq!(t.trr_refresh_count(), 1);
    }

    #[test]
    fn sample_is_consumed_by_trr_ref() {
        let mut t = trr();
        t.on_act(BankId(0), RowAddr(7));
        for _ in 0..2 {
            let _ = on_ref(&mut t);
        }
        assert!(!on_ref(&mut t).is_empty());
        // Next TRR REF has no sample: nothing refreshed.
        for _ in 0..2 {
            let _ = on_ref(&mut t);
        }
        assert!(on_ref(&mut t).is_empty());
    }

    #[test]
    fn dominant_row_is_sampled_most_often() {
        let mut t = trr();
        let mut hot = 0;
        let trials = 300;
        for _ in 0..trials {
            for i in 0..90u32 {
                // 75% of ACTs hit the "dummy" row 100, 25% the aggressor 50
                // (matching the §7 pattern's 468:156 ratio).
                let row = if i % 4 == 0 { 50 } else { 100 };
                t.on_act(BankId(0), RowAddr(row));
            }
            let _ = on_ref(&mut t);
            let _ = on_ref(&mut t);
            let victims = on_ref(&mut t);
            if victims.iter().any(|(_, r)| r.0 == 99 || r.0 == 101) {
                hot += 1;
            }
        }
        let frac = f64::from(hot) / f64::from(trials);
        assert!(
            (0.55..0.95).contains(&frac),
            "dummy row should dominate sampling, got {frac}"
        );
    }

    #[test]
    fn mapping_is_applied_to_victims() {
        let mut t = SamplingTrr::new(
            SamplingTrrConfig {
                blast_radius: 1,
                ..SamplingTrrConfig::default()
            },
            RowMapping::MirrorPairs,
            9,
        );
        // Logical 4 = physical 5; neighbours physical 4,6 = logical 5,7.
        t.on_act(BankId(1), RowAddr(4));
        let _ = on_ref(&mut t);
        let _ = on_ref(&mut t);
        let victims = on_ref(&mut t);
        let rows: Vec<u32> = victims.iter().map(|(_, r)| r.0).collect();
        assert_eq!(victims[0].0, BankId(1));
        assert!(rows.contains(&5) && rows.contains(&7), "{rows:?}");
    }
}
