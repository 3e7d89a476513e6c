//! §7 experiment: PuDHammer in the presence of in-DRAM TRR (Fig. 24).
//!
//! On the most SiMRA-vulnerable module (the SK Hynix 8 Gb A-die family,
//! HC_first = 26), each technique hammers its aggressors
//! `Scale::trr_hammers` times using the U-TRR evasion patterns, with and
//! without the sampling TRR mechanism, and the observed bitflips are
//! counted (averaged over repetitions).

use std::fmt;
use std::sync::{Arc, Mutex};

use pud_bender::{Executor, TestEnv};
use pud_dram::{profiles, BankId, DataPattern, RowAddr};
use pud_observe::json::JsonArray;
use pud_observe::{JsonValue, RingBufferSink, SharedSink};
use pud_trr::{patterns as trr_patterns, SamplingTrr, SamplingTrrConfig};

use crate::experiments::{resume_or_run, Scale};
use crate::fleet::checkpoint::{CheckpointStore, Codec};
use crate::fleet::sweep::{SweepOutcome, SweepReport};
use crate::patterns::{simra_ds_kernels, simra_ss_kernels, Kernel};
use crate::report::Table;

/// Bitflip count statistics over repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlipStat {
    /// Average bitflip count.
    pub avg: f64,
    /// Minimum across repetitions.
    pub min: u64,
    /// Maximum across repetitions.
    pub max: u64,
}

impl FlipStat {
    fn from_counts(counts: &[u64]) -> FlipStat {
        FlipStat {
            avg: counts.iter().sum::<u64>() as f64 / counts.len().max(1) as f64,
            min: counts.iter().copied().min().unwrap_or(0),
            max: counts.iter().copied().max().unwrap_or(0),
        }
    }
}

/// One technique's row of Fig. 24.
#[derive(Debug, Clone)]
pub struct Fig24Row {
    /// Technique label (e.g. `"2-sided RowHammer"`, `"SiMRA-32"`).
    pub technique: String,
    /// Bitflips without TRR.
    pub without_trr: FlipStat,
    /// Bitflips with TRR enabled.
    pub with_trr: FlipStat,
}

impl Fig24Row {
    /// Percent reduction of bitflips due to TRR.
    pub fn trr_reduction_pct(&self) -> f64 {
        if self.without_trr.avg == 0.0 {
            return 0.0;
        }
        (1.0 - self.with_trr.avg / self.without_trr.avg) * 100.0
    }
}

/// The Fig. 24 result.
#[derive(Debug, Clone)]
pub struct Fig24 {
    /// Per-technique rows.
    pub rows: Vec<Fig24Row>,
    /// Repetitions per cell.
    pub repetitions: u32,
    /// Fault-tolerance status of the technique sweep.
    pub sweep: SweepReport,
}

impl Fig24 {
    /// Average with-TRR bitflips of a technique.
    pub fn with_trr_avg(&self, technique: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.technique == technique)
            .map(|r| r.with_trr.avg)
    }
}

/// Stage label under which Fig. 24 technique rows are checkpointed.
const CHECKPOINT_STAGE: &str = "fig24";

/// Compact positional encoding: `[avg_bits, min, max]` (the average is
/// stored bit-exactly via [`f64::to_bits`]).
impl Codec for FlipStat {
    fn encode(&self) -> String {
        JsonArray::new()
            .raw(&self.avg.encode())
            .u64(self.min)
            .u64(self.max)
            .finish()
    }

    fn decode(v: &JsonValue) -> Option<FlipStat> {
        match v.as_arr()? {
            [avg, min, max] => Some(FlipStat {
                avg: Codec::decode(avg)?,
                min: min.as_u64()?,
                max: max.as_u64()?,
            }),
            _ => None,
        }
    }
}

/// Compact positional encoding: `[technique, without_trr, with_trr]`.
impl Codec for Fig24Row {
    fn encode(&self) -> String {
        JsonArray::new()
            .str(&self.technique)
            .raw(&self.without_trr.encode())
            .raw(&self.with_trr.encode())
            .finish()
    }

    fn decode(v: &JsonValue) -> Option<Fig24Row> {
        match v.as_arr()? {
            [tech, without, with] => Some(Fig24Row {
                technique: tech.as_str()?.to_string(),
                without_trr: Codec::decode(without)?,
                with_trr: Codec::decode(with)?,
            }),
            _ => None,
        }
    }
}

/// Runs the Fig. 24 experiment.
pub fn fig24(scale: &Scale) -> Fig24 {
    fig24_ckpt(scale, None)
}

/// [`fig24`] with an optional [`CheckpointStore`]: techniques already
/// recorded are decoded instead of re-measured (their private trace ring
/// stays empty), freshly measured techniques are appended as they
/// complete, and the store is committed at the sweep barrier.
pub fn fig24_ckpt(scale: &Scale, ckpt: Option<&CheckpointStore>) -> Fig24 {
    let _span = pud_observe::span("experiment.fig24");
    let profile = profiles::most_simra_vulnerable();
    let geometry = scale.fleet.geometry;
    let reps = if scale.trr_hammers >= 500_000 { 5 } else { 2 };
    // The hero (most vulnerable) row anchors the RowHammer/CoMRA victims so
    // the without-TRR runs reliably flip.
    let probe = Executor::new(profile, geometry, 0, scale.fleet.seed);
    let (_, hero) = probe
        .engine()
        .model()
        .hero_row()
        .expect("chip 0 carries the hero row");
    let dummy_phys = RowAddr(geometry.subarray_base(pud_dram::SubarrayId(0)).0 + 5);
    let mut rows = Vec::new();
    let mut techniques: Vec<(String, Technique)> = vec![
        (
            "1-sided RowHammer".into(),
            Technique::RowHammer(vec![RowAddr(hero.0 - 1)]),
        ),
        (
            "2-sided RowHammer".into(),
            Technique::RowHammer(vec![RowAddr(hero.0 - 1), RowAddr(hero.0 + 1)]),
        ),
        (
            "4-sided RowHammer".into(),
            Technique::RowHammer(vec![
                RowAddr(hero.0 - 3),
                RowAddr(hero.0 - 1),
                RowAddr(hero.0 + 1),
                RowAddr(hero.0 + 3),
            ]),
        ),
        (
            "8-sided RowHammer".into(),
            Technique::RowHammer(
                (0..4)
                    .flat_map(|i| [RowAddr(hero.0 - (2 * i + 1)), RowAddr(hero.0 + (2 * i + 1))])
                    .collect(),
            ),
        ),
        (
            "2-sided CoMRA".into(),
            Technique::Comra {
                src: RowAddr(hero.0 - 1),
                dst: RowAddr(hero.0 + 1),
            },
        ),
    ];
    let hero_sa = geometry.subarray_of(hero).expect("hero is in range");
    for n in [2u8, 4, 8, 16] {
        let kernels = simra_ds_kernels(probe.chip(), hero_sa, n);
        if let Some(k) = kernels
            .iter()
            .find(|k| {
                let (s, _) = crate::patterns::simra_victims(probe.chip(), k);
                s.contains(&hero)
            })
            .or(kernels.first())
        {
            techniques.push((format!("SiMRA-{n}"), Technique::Simra(*k)));
        }
    }
    // For the 32-row case no sandwiching group exists (footnote 3); pick
    // the contiguous group whose edge victim is most vulnerable, standing
    // in for the paper's search over 100 random groups per subarray.
    let mut best32: Option<(f64, Kernel)> = None;
    for sa in 0..geometry.subarrays_per_bank {
        for k in simra_ss_kernels(probe.chip(), pud_dram::SubarrayId(sa), 32) {
            let (_, edge) = crate::patterns::simra_victims(probe.chip(), &k);
            for v in edge {
                let t = probe.engine().model().row_vuln(pud_dram::BankId(0), v).t_rh;
                if best32.as_ref().is_none_or(|(bt, _)| t < *bt) {
                    best32 = Some((t, k));
                }
            }
        }
    }
    if let Some((_, k)) = best32 {
        techniques.push(("SiMRA-32".into(), Technique::Simra(k)));
    }
    // Techniques are independent (each repetition builds its own executor),
    // so they are swept in parallel like fleet chips. Per-technique trace
    // rings stand in for the global sink during the sweep and are merged
    // timestamp-ordered afterwards, keeping the trace stream — like the
    // rows — identical at any thread count.
    let threads = scale.sweep_threads(techniques.len());
    let dest = pud_observe::global_sink();
    let tracing = dest.is_some();
    let labels: Vec<String> = techniques.iter().map(|(name, _)| name.clone()).collect();
    let (outcomes, sweep) = crate::fleet::sweep::sweep_items_isolated(
        threads,
        scale.sweep_policy(),
        labels,
        techniques,
        |_, (name, tech)| {
            let _span = pud_observe::span("fig24.technique_ns");
            let mut events = Vec::new();
            let row = resume_or_run(ckpt.map(|s| (s, CHECKPOINT_STAGE)), name, || {
                let ring = tracing.then(|| {
                    Arc::new(Mutex::new(RingBufferSink::new(
                        crate::fleet::sweep::TRACE_RING_CAPACITY,
                    )))
                });
                let sink: Option<SharedSink> = ring.clone().map(|r| r as SharedSink);
                // The repetition index only seeds the TRR sampler and the
                // executor carries no fault plan, so without TRR every
                // repetition is the same run: run it once.
                let without = run_once(scale, profile, tech, dummy_phys, false, 0, sink.as_ref());
                let counts_without = vec![without; reps as usize];
                let counts_with: Vec<u64> = (0..reps)
                    .map(|rep| run_once(scale, profile, tech, dummy_phys, true, rep, sink.as_ref()))
                    .collect();
                events = ring.map_or_else(Vec::new, |r| {
                    r.lock().expect("fig24 trace ring poisoned").to_vec()
                });
                Fig24Row {
                    technique: name.clone(),
                    without_trr: FlipStat::from_counts(&counts_without),
                    with_trr: FlipStat::from_counts(&counts_with),
                }
            });
            (row, events)
        },
    );
    if let Some(store) = ckpt {
        store.commit();
    }
    let mut buffers = Vec::with_capacity(outcomes.len());
    for (row, events) in outcomes.into_iter().filter_map(SweepOutcome::ok) {
        rows.push(row);
        buffers.push(events);
    }
    if let Some(dest) = dest {
        pud_observe::merge_ordered(&buffers, &dest);
    }
    sweep.record_metrics();
    Fig24 {
        rows,
        repetitions: reps,
        sweep,
    }
}

#[derive(Debug, Clone)]
enum Technique {
    RowHammer(Vec<RowAddr>),
    Comra { src: RowAddr, dst: RowAddr },
    Simra(Kernel),
}

fn run_once(
    scale: &Scale,
    profile: &'static pud_dram::ModuleProfile,
    tech: &Technique,
    dummy_phys: RowAddr,
    with_trr: bool,
    rep: u32,
    trace: Option<&SharedSink>,
) -> u64 {
    // One evasion run is the cancellation grace unit for this experiment,
    // and the profile's unit below the technique: 30 runs at any scale.
    crate::fleet::supervisor::poll_cancel();
    let _span = pud_observe::span("fig24.run_ns");
    let geometry = scale.fleet.geometry;
    let bank = BankId(0);
    let mut exec = Executor::new(profile, geometry, 0, scale.fleet.seed);
    // During a parallel sweep the executor must not write to the global
    // sink it attached at construction; the caller supplies a private ring
    // (or the sweep runs untraced).
    match trace {
        Some(sink) => exec.set_trace_sink(sink.clone()),
        None => {
            exec.take_trace_sink();
        }
    }
    if with_trr {
        exec.set_env(TestEnv::with_refresh());
        exec.set_observer(Box::new(SamplingTrr::new(
            SamplingTrrConfig::default(),
            profile.mapping(),
            0xC0FFEE ^ u64::from(rep),
        )));
    } else {
        exec.set_env(TestEnv::characterization());
    }
    let dummy = exec.chip().to_logical(dummy_phys);
    // Initialize the neighbourhood: aggressors with their pattern, every
    // other nearby row with the victim pattern.
    let (aggressor_phys, victim_dp, aggressor_dp, program) = match tech {
        Technique::RowHammer(aggs) => {
            let logical: Vec<RowAddr> = aggs.iter().map(|&a| exec.chip().to_logical(a)).collect();
            (
                aggs.clone(),
                DataPattern::CHECKER_AA,
                DataPattern::CHECKER_55,
                trr_patterns::rowhammer_evasion(bank, &logical, dummy, scale.trr_hammers),
            )
        }
        Technique::Comra { src, dst } => (
            vec![*src, *dst],
            DataPattern::CHECKER_AA,
            DataPattern::CHECKER_55,
            trr_patterns::comra_evasion(
                bank,
                exec.chip().to_logical(*src),
                exec.chip().to_logical(*dst),
                dummy,
                scale.trr_hammers,
            ),
        ),
        Technique::Simra(kernel) => {
            let members = crate::patterns::simra_members(exec.chip(), kernel).unwrap_or_default();
            let Kernel::Simra { r1, r2, .. } = kernel else {
                unreachable!("Technique::Simra holds a Simra kernel")
            };
            (
                members,
                DataPattern::ONES,
                DataPattern::ZEROS,
                trr_patterns::simra_evasion(bank, *r1, *r2, scale.trr_hammers),
            )
        }
    };
    let lo = aggressor_phys
        .iter()
        .map(|r| r.0)
        .min()
        .unwrap_or(0)
        .saturating_sub(2);
    let hi = aggressor_phys.iter().map(|r| r.0).max().unwrap_or(0) + 2;
    for r in lo..=hi.min(geometry.rows_per_bank() - 1) {
        let row = RowAddr(r);
        let logical = exec.chip().to_logical(row);
        if aggressor_phys.contains(&row) {
            exec.write_row(bank, logical, aggressor_dp);
        } else {
            exec.write_row(bank, logical, victim_dp);
        }
    }
    exec.write_row(bank, dummy, aggressor_dp);
    let report = exec.run(&program);
    report
        .flips
        .iter()
        .filter(|f| !aggressor_phys.contains(&f.phys_row))
        .count() as u64
}

impl fmt::Display for Fig24 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            format!(
                "Fig. 24 — bitflips with/without TRR ({} reps)",
                self.repetitions
            ),
            &[
                "Technique",
                "w/o TRR (avg)",
                "w/ TRR (avg)",
                "TRR reduction",
            ],
        );
        for row in &self.rows {
            t.push_row(vec![
                row.technique.clone(),
                format!("{:.1}", row.without_trr.avg),
                format!("{:.1}", row.with_trr.avg),
                format!("{:.1}%", row.trr_reduction_pct()),
            ]);
        }
        write!(f, "{t}")?;
        self.sweep.fmt_footer(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_rows_encode_to_pinned_bytes() {
        let row = Fig24Row {
            technique: "SiMRA-32".to_string(),
            without_trr: FlipStat {
                avg: 1234.5,
                min: 1200,
                max: 1269,
            },
            with_trr: FlipStat {
                avg: 0.1 + 0.2,
                min: 0,
                max: 1,
            },
        };
        // Averages are stored as their IEEE-754 bit patterns.
        assert_eq!(
            row.encode(),
            "[\"SiMRA-32\",[4653144203864309760,1200,1269],[4599075939470750516,0,1]]"
        );
    }

    #[test]
    fn the_sweep_barrier_commits_the_store() {
        let mut scale = Scale::quick();
        scale.trr_hammers = 20_000;
        let path = std::env::temp_dir().join(format!("pud-fig24-barrier-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let header = crate::fleet::checkpoint::CheckpointHeader {
            target: "fig24".to_string(),
            scale: "quick".to_string(),
            fingerprint: scale.fleet.fingerprint(),
            fault_seed: None,
            shard: None,
        };
        let store = CheckpointStore::open(&path, header).expect("create");
        fig24_ckpt(&scale, Some(&store));
        let swept = std::fs::read(&path).expect("read");
        store.commit();
        assert!(store.take_write_error().is_none(), "commit must succeed");
        assert_eq!(
            std::fs::read(&path).expect("reread"),
            swept,
            "the sweep left its records committed (sorted)"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fig24_reproduces_observations_25_26() {
        let mut scale = Scale::quick();
        scale.trr_hammers = 60_000;
        let r = fig24(&scale);
        let rh = r
            .rows
            .iter()
            .find(|x| x.technique == "2-sided RowHammer")
            .unwrap();
        // Without TRR, RowHammer flips bits (the hero victim's HC_first is
        // 25K < 60K hammers).
        assert!(rh.without_trr.avg >= 1.0, "{:?}", rh);
        // With TRR, RowHammer is strongly mitigated (paper: 99.89%).
        assert!(
            rh.with_trr.avg <= rh.without_trr.avg * 0.3,
            "RowHammer should be mitigated: {rh:?}"
        );
        // SiMRA bypasses TRR and induces far more bitflips than RowHammer
        // under TRR (paper: 11340x more for SiMRA-32; shape: >=50x here).
        let best_simra = r
            .rows
            .iter()
            .filter(|x| x.technique.starts_with("SiMRA"))
            .map(|x| x.with_trr.avg)
            .fold(0.0f64, f64::max);
        assert!(
            best_simra > (rh.with_trr.avg).max(1.0) * 50.0,
            "SiMRA w/ TRR {best_simra} vs RH w/ TRR {}",
            rh.with_trr.avg
        );
        // Observation 26: SiMRA's own reduction under TRR is small.
        let simra_row = r
            .rows
            .iter()
            .filter(|x| x.technique.starts_with("SiMRA") && x.without_trr.avg > 0.0)
            .max_by(|a, b| a.without_trr.avg.total_cmp(&b.without_trr.avg))
            .unwrap();
        assert!(
            simra_row.trr_reduction_pct() < 60.0,
            "SiMRA reduction {:.1}%",
            simra_row.trr_reduction_pct()
        );
    }
}
