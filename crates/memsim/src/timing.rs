//! DDR5 timing and system configuration for the mitigation evaluation.
//!
//! The §8.2 evaluation models a 4.2 GHz five-core system with dual-rank
//! DDR5 DRAM and an FR-FCFS+Cap-4 scheduler (paper footnote 9). The model
//! keeps 1 ns resolution, fine enough to resolve every DDR5 timing
//! constraint that matters for the mitigation overhead shape; the
//! simulation loop executes only the ticks at which something can change
//! and jumps from one to the next (see `run_mix`).

/// DDR5 timing parameters in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramTiming {
    /// ACT → column command.
    pub t_rcd: u64,
    /// PRE → ACT.
    pub t_rp: u64,
    /// ACT → PRE.
    pub t_ras: u64,
    /// ACT → ACT on the same bank (`t_RC`, the paper quotes 46–50 ns).
    pub t_rc: u64,
    /// Column command → data burst complete.
    pub t_cl: u64,
    /// Back-to-back column commands on an open row.
    pub t_ccd: u64,
    /// Refresh command duration.
    pub t_rfc: u64,
    /// Refresh interval (DDR5: 3.9 µs).
    pub t_refi: u64,
    /// RFM (refresh-management) command duration.
    pub t_rfm: u64,
    /// Duration of one SiMRA operation (ACT‑PRE‑ACT + restore + PRE).
    pub t_simra_op: u64,
    /// Duration of one CoMRA operation (two back-to-back activations).
    pub t_comra_op: u64,
}

impl Default for DramTiming {
    fn default() -> DramTiming {
        DramTiming {
            t_rcd: 15,
            t_rp: 15,
            t_ras: 32,
            t_rc: 47,
            t_cl: 15,
            t_ccd: 3,
            t_rfc: 295,
            t_refi: 3900,
            t_rfm: 350,
            t_simra_op: 47,
            t_comra_op: 95,
        }
    }
}

/// System configuration (paper footnote 9: 4.2 GHz five-core, dual-rank
/// DDR5, FR-FCFS+Cap of 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Number of cores (including the PuD-issuing synthetic workload).
    pub cores: usize,
    /// Number of banks in the memory system.
    pub banks: usize,
    /// Rows per bank (for PRAC counter tables).
    pub rows_per_bank: u32,
    /// FR-FCFS row-hit cap.
    pub cap: u32,
    /// Peak instructions per nanosecond per core (4.2 GHz × IPC 1).
    pub ipc_per_ns: f64,
    /// Maximum outstanding misses per core (memory-level parallelism).
    pub mlp: usize,
    /// Maximum requests buffered in the controller queue.
    pub queue_depth: usize,
    /// Distinct rows in each core's working set (cache-resident hot rows
    /// map to a bounded set of DRAM rows).
    pub working_set_rows: u32,
    /// Banks each core's working set spans.
    pub working_set_banks: usize,
}

impl Default for SystemConfig {
    fn default() -> SystemConfig {
        SystemConfig {
            cores: 5,
            banks: 32,
            rows_per_bank: 4096,
            cap: 4,
            ipc_per_ns: 4.2,
            mlp: 4,
            queue_depth: 32,
            working_set_rows: 2,
            working_set_banks: 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let t = DramTiming::default();
        assert!(t.t_rc >= t.t_ras + t.t_rp);
        assert!(t.t_rcd < t.t_rc);
        assert!((46..=50).contains(&t.t_rc), "paper quotes 46-50 ns tRC");
        let c = SystemConfig::default();
        assert_eq!(c.cores, 5);
        assert_eq!(c.cap, 4);
    }
}
