//! The cycle-level system model: five cores, an FR-FCFS+Cap memory
//! controller, refresh, and the PRAC mitigation hooks.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use pud_observe::Counter;

use crate::prac::{ActKind, Mitigation, Prac};
use crate::timing::{DramTiming, SystemConfig};
use crate::workload::{Mix, WorkloadProfile};

/// Rows per SiMRA operation issued by the PuD workload (the paper's
/// synthetic workload performs SiMRA with 32-row activation, §8.2).
pub const PUD_SIMRA_ROWS: u32 = 32;

/// A memory request in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MemRequest {
    core: usize,
    bank: usize,
    row: u32,
    kind: ActKind,
    write: bool,
    arrival: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct BankSim {
    open_row: Option<u32>,
    busy_until: u64,
    consecutive_hits: u32,
}

#[derive(Debug)]
struct CoreSim {
    profile: WorkloadProfile,
    instr: f64,
    to_next_miss: f64,
    outstanding: usize,
    stalled_for_mlp: bool,
    pending: Option<MemRequest>,
    completions: BinaryHeap<Reverse<u64>>,
    last_bank: usize,
    last_row: u32,
    rng: u64,
    finish_ns: Option<u64>,
    /// Cached [`CoreSim::next_busy_tick`] while the core runs.
    busy_tick: u64,
}

impl CoreSim {
    fn new(profile: WorkloadProfile, seed: u64) -> CoreSim {
        let mut c = CoreSim {
            profile,
            instr: 0.0,
            to_next_miss: 0.0,
            outstanding: 0,
            stalled_for_mlp: false,
            pending: None,
            completions: BinaryHeap::new(),
            last_bank: 0,
            last_row: 0,
            rng: seed | 1,
            finish_ns: None,
            busy_tick: 0,
        };
        c.to_next_miss = c.sample_gap();
        c
    }

    /// Whether the core retires instructions on its next tick: not
    /// finished, not retrying a pending request, not stalled on MLP.
    fn running(&self) -> bool {
        self.finish_ns.is_none() && self.pending.is_none() && !self.stalled_for_mlp
    }

    /// The first tick after `now` (at most `limit`) at which this running
    /// core does more than `to_next_miss -= slack; instr += slack`: its
    /// next miss, or the tick its instruction count reaches `budget`.
    ///
    /// The answer depends only on the two floats, which change only by
    /// those ops until then, so it stays valid across executed ticks.
    fn next_busy_tick(&self, now: u64, slack: f64, budget: f64, limit: u64) -> u64 {
        let (mut to_next_miss, mut instr) = (self.to_next_miss, self.instr);
        let mut t = now + 1;
        while t < limit && to_next_miss > slack {
            to_next_miss -= slack;
            instr += slack;
            if instr >= budget {
                break;
            }
            t += 1;
        }
        t
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn sample_gap(&mut self) -> f64 {
        // Instructions between LLC misses: exponential with mean 1000/MPKI.
        let mean = 1000.0 / self.profile.mpki.max(1e-3);
        let u = self.unit().max(1e-12);
        -mean * u.ln()
    }

    fn gen_address(&mut self, index: usize, cfg: &crate::timing::SystemConfig) -> (usize, u32) {
        if self.unit() < self.profile.row_locality {
            (self.last_bank, self.last_row)
        } else {
            // Misses fall within a bounded per-core working set of hot
            // rows spread over a few banks.
            let nb = cfg.working_set_banks.clamp(1, cfg.banks);
            let bank = (index * 7 + (self.next_u64() % nb as u64) as usize) % cfg.banks;
            let ws = u64::from(cfg.working_set_rows.max(1));
            let base = (index as u32 * 512) % cfg.rows_per_bank.saturating_sub(64).max(1);
            let row = base + (self.next_u64() % ws) as u32;
            self.last_bank = bank;
            self.last_row = row;
            (bank, row)
        }
    }
}

/// Outcome of one mix execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Instructions-per-nanosecond of each benchmark core.
    pub core_ipc: Vec<f64>,
    /// Wall-clock nanoseconds simulated.
    pub elapsed_ns: u64,
    /// RFM commands serviced.
    pub rfms: u64,
    /// PuD operations issued by the synthetic workload.
    pub pud_ops: u64,
}

/// Runs one five-core mix to completion (each benchmark core retires
/// `instr_budget` instructions) under the given mitigation.
///
/// `pud_period_ns = None` disables the synthetic PuD workload; `Some(n)`
/// issues one SiMRA-32 plus one CoMRA operation every `n` nanoseconds
/// (§8.2's synthetic workload).
///
/// The model has 1 ns resolution, but the loop is event-driven: after each
/// executed tick it jumps to the next tick at which the tick body can do
/// more than a running core's two float ops. The result is bitwise
/// identical to executing every nanosecond because
///
/// - on a skipped tick every running core performs exactly
///   `to_next_miss -= slack; instr += slack`, and the skip replays those
///   two ops once per skipped tick, in order, with no multiplication;
/// - completions are popped lazily: a core reads `outstanding` only on a
///   tick that is executed, and by then every completion due is popped;
/// - the queue, banks, channel and PRAC counters change only inside an
///   executed tick;
/// - every other action is an event candidate: refresh, PuD issue, a
///   pending core finding room, a stalled core's earliest completion, a
///   running core's miss or budget tick, the first tick at which FR-FCFS
///   picks an issuable request, and `cap_ns`.
///
/// Panics if `cfg.ipc_per_ns` is not positive (no core could progress).
pub fn run_mix(
    cfg: &SystemConfig,
    timing: &DramTiming,
    mix: &Mix,
    pud_period_ns: Option<u64>,
    mitigation: Mitigation,
    instr_budget: u64,
    seed: u64,
) -> RunStats {
    let mut sim = Sim::new(
        cfg,
        timing,
        mix,
        pud_period_ns,
        mitigation,
        instr_budget,
        seed,
    );
    let now = sim.run();
    sim.stats(now)
}

/// The state of one [`run_mix`] simulation.
struct Sim<'a> {
    cfg: &'a SystemConfig,
    timing: &'a DramTiming,
    pud_period_ns: Option<u64>,
    budget: f64,
    cap_ns: u64,
    cores: Vec<CoreSim>,
    banks: Vec<BankSim>,
    prac: Prac,
    queue: VecDeque<MemRequest>,
    channel_busy_until: u64,
    next_refresh: u64,
    next_pud: u64,
    pud_ops: u64,
    /// Tick bodies executed.
    steps: u64,
    scheduled_metric: Arc<Counter>,
}

impl<'a> Sim<'a> {
    fn new(
        cfg: &'a SystemConfig,
        timing: &'a DramTiming,
        mix: &Mix,
        pud_period_ns: Option<u64>,
        mitigation: Mitigation,
        instr_budget: u64,
        seed: u64,
    ) -> Sim<'a> {
        assert!(cfg.ipc_per_ns > 0.0, "ipc_per_ns must be positive");
        let cores = mix
            .benchmarks
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                CoreSim::new(
                    p,
                    seed.wrapping_add(i as u64 * 77)
                        .wrapping_add(u64::from(mix.id)),
                )
            })
            .collect();
        // Hard cap: generous multiple of the unloaded execution time.
        let unloaded = (instr_budget as f64 / cfg.ipc_per_ns) as u64;
        Sim {
            cfg,
            timing,
            pud_period_ns,
            budget: instr_budget as f64,
            cap_ns: unloaded.saturating_mul(400).max(2_000_000),
            cores,
            banks: vec![BankSim::default(); cfg.banks],
            prac: Prac::new(mitigation, cfg.banks, cfg.rows_per_bank),
            queue: VecDeque::with_capacity(cfg.queue_depth),
            channel_busy_until: 0,
            next_refresh: timing.t_refi,
            next_pud: pud_period_ns.unwrap_or(u64::MAX),
            pud_ops: 0,
            steps: 0,
            // Fetched once: the registry lock must stay out of the loop.
            scheduled_metric: pud_observe::counter("memsim.requests_scheduled"),
        }
    }

    /// Runs the event-driven loop to completion or `cap_ns`; returns the
    /// final `now`.
    fn run(&mut self) -> u64 {
        let mut now = 0u64;
        while now < self.cap_ns {
            if self.tick(now) {
                break;
            }
            now = self.advance(now);
        }
        // A completed run simulated ticks 0..=now; a capped one 0..cap_ns.
        let ticks = now + u64::from(now < self.cap_ns);
        pud_observe::counter("memsim.ticks").add(ticks);
        pud_observe::counter("memsim.steps").add(self.steps);
        now
    }

    /// One nanosecond of the model. Returns whether every core has
    /// finished.
    fn tick(&mut self, now: u64) -> bool {
        self.steps += 1;
        let (cfg, timing) = (self.cfg, self.timing);
        // Refresh.
        if now >= self.next_refresh {
            for b in &mut self.banks {
                b.busy_until = b.busy_until.max(now + timing.t_rfc);
                b.open_row = None;
            }
            self.next_refresh += timing.t_refi;
        }
        // Synthetic PuD workload: one SiMRA-32 and one CoMRA per period.
        if now >= self.next_pud && self.queue.len() + 2 <= cfg.queue_depth {
            let pud_bank = cfg.banks - 1;
            self.queue.push_back(MemRequest {
                core: usize::MAX,
                bank: pud_bank,
                row: 0,
                kind: ActKind::Simra,
                write: false,
                arrival: now,
            });
            self.queue.push_back(MemRequest {
                core: usize::MAX,
                bank: pud_bank,
                row: PUD_SIMRA_ROWS,
                kind: ActKind::Comra,
                write: false,
                arrival: now,
            });
            self.pud_ops += 2;
            self.next_pud += self.pud_period_ns.expect("pud enabled");
        }
        // Core progress.
        for (i, core) in self.cores.iter_mut().enumerate() {
            step_core(i, core, cfg, &mut self.queue, now, self.budget);
        }
        // Scheduling: FR-FCFS with a row-hit cap.
        schedule(
            cfg,
            timing,
            &mut self.queue,
            &mut self.banks,
            &mut self.prac,
            &mut self.cores,
            &mut self.channel_busy_until,
            now,
            &self.scheduled_metric,
        );
        self.cores.iter().all(|c| c.finish_ns.is_some())
    }

    /// Moves from the executed tick `now` to the next event tick (at most
    /// `cap_ns`) and replays the skipped ticks' float ops on every running
    /// core.
    fn advance(&mut self, now: u64) -> u64 {
        let floor = now + 1;
        let slack = self.cfg.ipc_per_ns;
        let mut next = self.cap_ns.min(self.next_refresh);
        if self.queue.len() + 2 <= self.cfg.queue_depth {
            next = next.min(self.next_pud);
        }
        let room = self.queue.len() < self.cfg.queue_depth;
        for core in &mut self.cores {
            let wake = if core.finish_ns.is_some() {
                u64::MAX
            } else if core.pending.is_some() {
                if room {
                    floor
                } else {
                    u64::MAX
                }
            } else if core.stalled_for_mlp {
                core.completions.peek().map_or(u64::MAX, |&Reverse(t)| t)
            } else {
                if core.busy_tick <= now {
                    core.busy_tick = core.next_busy_tick(now, slack, self.budget, self.cap_ns);
                }
                core.busy_tick
            };
            next = next.min(wake);
        }
        let next = next.min(self.next_issue(floor)).max(floor);
        for core in self.cores.iter_mut().filter(|c| c.running()) {
            for _ in floor..next {
                core.to_next_miss -= slack;
                core.instr += slack;
            }
        }
        next
    }

    /// The first tick `t >= floor` at which [`pick`] chooses a request,
    /// given that the queue and banks stay as they are until then.
    ///
    /// A request is ready at `a = max(busy_until, floor)`. While the channel
    /// is busy only a PuD pick can issue, and it is the pick exactly while
    /// it is the oldest ready request and no row hit is ready; once the
    /// channel is free the oldest ready request issues.
    fn next_issue(&self, floor: u64) -> u64 {
        let mut first_ready = u64::MAX;
        let mut first_hit = u64::MAX;
        let mut first_pud = u64::MAX;
        for req in &self.queue {
            let bank = &self.banks[req.bank];
            let ready = bank.busy_until.max(floor);
            if req.kind != ActKind::Normal {
                if ready < first_ready {
                    first_pud = first_pud.min(ready);
                }
            } else if bank.open_row == Some(req.row) && bank.consecutive_hits < self.cfg.cap {
                first_hit = first_hit.min(ready);
            }
            first_ready = first_ready.min(ready);
        }
        let channel = self.channel_busy_until.max(floor);
        if first_pud < channel.min(first_hit) {
            first_pud
        } else {
            channel.max(first_ready)
        }
    }

    fn stats(&self, now: u64) -> RunStats {
        let core_ipc = self
            .cores
            .iter()
            .map(|c| {
                let t = c.finish_ns.unwrap_or(now).max(1);
                c.instr.min(self.budget) / t as f64
            })
            .collect();
        RunStats {
            core_ipc,
            elapsed_ns: now,
            rfms: self.prac.rfm_count(),
            pud_ops: self.pud_ops,
        }
    }
}

fn step_core(
    index: usize,
    core: &mut CoreSim,
    cfg: &SystemConfig,
    queue: &mut VecDeque<MemRequest>,
    now: u64,
    budget: f64,
) {
    while let Some(&Reverse(t)) = core.completions.peek() {
        if t <= now {
            core.completions.pop();
            core.outstanding -= 1;
        } else {
            break;
        }
    }
    if core.finish_ns.is_some() {
        return;
    }
    if core.instr >= budget {
        core.finish_ns = Some(now);
        return;
    }
    // A request stalled on a full controller queue retries first.
    if let Some(req) = core.pending {
        if queue.len() < cfg.queue_depth {
            queue.push_back(req);
            core.pending = None;
        } else {
            return;
        }
    }
    if core.stalled_for_mlp {
        if core.outstanding >= cfg.mlp {
            return;
        }
        core.stalled_for_mlp = false;
    }
    let mut slack = cfg.ipc_per_ns;
    while slack > 0.0 && core.instr < budget {
        if core.to_next_miss > slack {
            core.to_next_miss -= slack;
            core.instr += slack;
            break;
        }
        core.instr += core.to_next_miss;
        slack -= core.to_next_miss;
        core.to_next_miss = core.sample_gap();
        if core.outstanding >= cfg.mlp {
            core.stalled_for_mlp = true;
            break;
        }
        let (bank, row) = core.gen_address(index, cfg);
        // Writes are posted: the core does not wait for them (no MLP slot,
        // no completion), but they still consume bank and channel time.
        let write = core.unit() < core.profile.write_frac;
        let req = MemRequest {
            core: if write { usize::MAX } else { index },
            bank,
            row,
            kind: ActKind::Normal,
            write,
            arrival: now,
        };
        if !write {
            core.outstanding += 1;
        }
        if queue.len() < cfg.queue_depth {
            queue.push_back(req);
        } else {
            core.pending = Some(req);
            break;
        }
    }
    if core.instr >= budget {
        core.finish_ns = Some(now);
    }
}

#[allow(clippy::too_many_arguments)]
fn schedule(
    cfg: &SystemConfig,
    timing: &DramTiming,
    queue: &mut VecDeque<MemRequest>,
    banks: &mut [BankSim],
    prac: &mut Prac,
    cores: &mut [CoreSim],
    channel_busy_until: &mut u64,
    now: u64,
    scheduled_metric: &Arc<Counter>,
) {
    let Some(idx) = pick(cfg, queue, banks, *channel_busy_until, now) else {
        return;
    };
    let req = queue[idx];
    queue.remove(idx);
    scheduled_metric.incr();
    let bank = &mut banks[req.bank];
    let completion;
    match req.kind {
        ActKind::Normal => {
            let is_hit = bank.open_row == Some(req.row);
            let mut alert = false;
            let ready = if is_hit {
                bank.consecutive_hits += 1;
                now + timing.t_cl
            } else {
                bank.consecutive_hits = 0;
                let pre = if bank.open_row.is_some() {
                    timing.t_rp
                } else {
                    0
                };
                let outcome =
                    prac.on_activation(req.bank, &[req.row], ActKind::Normal, timing.t_rc);
                alert = outcome.alert;
                now + pre + timing.t_rcd + timing.t_cl
            };
            bank.open_row = Some(req.row);
            bank.busy_until = ready.max(now + timing.t_ccd);
            *channel_busy_until = ready + 2;
            completion = ready + 2;
            if alert {
                back_off(
                    req.bank,
                    completion,
                    timing,
                    banks,
                    prac,
                    channel_busy_until,
                );
            }
        }
        ActKind::Simra => {
            let rows: [u32; PUD_SIMRA_ROWS as usize] = std::array::from_fn(|i| req.row + i as u32);
            let outcome = prac.on_activation(req.bank, &rows, ActKind::Simra, timing.t_rc);
            let busy = timing.t_simra_op + outcome.extra_latency_ns;
            bank.open_row = None;
            bank.consecutive_hits = 0;
            bank.busy_until = now + busy;
            completion = now + busy;
            if outcome.alert {
                back_off(
                    req.bank,
                    completion,
                    timing,
                    banks,
                    prac,
                    channel_busy_until,
                );
            }
        }
        ActKind::Comra => {
            let rows = [req.row, req.row + 2];
            let outcome = prac.on_activation(req.bank, &rows, ActKind::Comra, timing.t_rc);
            let busy = timing.t_comra_op + outcome.extra_latency_ns;
            bank.open_row = None;
            bank.consecutive_hits = 0;
            bank.busy_until = now + busy;
            completion = now + busy;
            if outcome.alert {
                back_off(
                    req.bank,
                    completion,
                    timing,
                    banks,
                    prac,
                    channel_busy_until,
                );
            }
        }
    }
    if req.core != usize::MAX {
        // Benchmark request: notify its core.
        cores[req.core].completions.push(Reverse(completion));
    }
}

/// The queue index FR-FCFS+Cap issues at `now`, if any: the first ready
/// row hit under the cap, else the oldest ready request; nothing while
/// that pick is a column access and the data channel is busy.
fn pick(
    cfg: &SystemConfig,
    queue: &VecDeque<MemRequest>,
    banks: &[BankSim],
    channel_busy_until: u64,
    now: u64,
) -> Option<usize> {
    let mut pick: Option<usize> = None;
    for (i, req) in queue.iter().enumerate() {
        let bank = &banks[req.bank];
        if bank.busy_until > now {
            continue;
        }
        let is_hit = req.kind == ActKind::Normal
            && bank.open_row == Some(req.row)
            && bank.consecutive_hits < cfg.cap;
        if is_hit {
            pick = Some(i);
            break;
        }
        if pick.is_none() {
            pick = Some(i);
        }
    }
    let idx = pick?;
    // Column transfers need the shared data channel.
    if queue[idx].kind == ActKind::Normal && channel_busy_until > now {
        return None;
    }
    Some(idx)
}

/// DDR5 back-off (ABO): the chip asserts alert, the controller drains and
/// issues one RFM per saturated row; the whole channel is blocked while the
/// alert is serviced.
fn back_off(
    bank: usize,
    from: u64,
    timing: &DramTiming,
    banks: &mut [BankSim],
    prac: &mut Prac,
    channel_busy_until: &mut u64,
) {
    let rfms = prac.service_alert(bank);
    if rfms == 0 {
        return;
    }
    let until = from + rfms * timing.t_rfm;
    for b in banks.iter_mut() {
        b.busy_until = b.busy_until.max(until);
    }
    *channel_busy_until = (*channel_busy_until).max(until);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::build_mixes;

    fn quick_run(mitigation: Mitigation, pud: Option<u64>) -> RunStats {
        let cfg = SystemConfig::default();
        let timing = DramTiming::default();
        let mix = &build_mixes(1, 3)[0];
        run_mix(&cfg, &timing, mix, pud, mitigation, 20_000, 9)
    }

    /// The reference loop: the same tick body on every nanosecond.
    fn run_per_ns(sim: &mut Sim) -> u64 {
        let mut now = 0;
        while now < sim.cap_ns {
            if sim.tick(now) {
                break;
            }
            now += 1;
        }
        now
    }

    /// Everything both loops must agree on, floats as bit patterns.
    /// Completion heaps are popped lazily, so they are left out.
    fn fingerprint(sim: &Sim, now: u64) -> Vec<u64> {
        let stats = sim.stats(now);
        let mut out = vec![stats.elapsed_ns, stats.rfms, stats.pud_ops];
        out.extend(stats.core_ipc.iter().map(|x| x.to_bits()));
        for c in &sim.cores {
            out.extend([
                c.instr.to_bits(),
                c.to_next_miss.to_bits(),
                c.finish_ns.map_or(u64::MAX, |t| t),
                c.rng,
                u64::from(c.stalled_for_mlp),
                u64::from(c.pending.is_some()),
            ]);
        }
        for b in &sim.banks {
            out.extend([
                b.busy_until,
                b.open_row.map_or(u64::MAX, u64::from),
                u64::from(b.consecutive_hits),
            ]);
        }
        for r in &sim.queue {
            out.extend([r.core as u64, r.bank as u64, u64::from(r.row), r.arrival]);
        }
        out.extend([sim.channel_busy_until, sim.next_refresh, sim.next_pud]);
        out
    }

    const MITIGATIONS: [Mitigation; 4] = [
        Mitigation::None,
        Mitigation::PracPoNaive,
        Mitigation::PracPoWeighted,
        Mitigation::PracAoWeighted,
    ];

    /// Runs one configuration both ways, asserts identical final state and
    /// returns (steps executed, ticks simulated) of the event-driven loop.
    fn assert_event_loop_matches_per_ns(
        cfg: &SystemConfig,
        mix: &Mix,
        pud: Option<u64>,
        mitigation: Mitigation,
        budget: u64,
        seed: u64,
    ) -> (u64, u64) {
        let timing = DramTiming::default();
        let new = || Sim::new(cfg, &timing, mix, pud, mitigation, budget, seed);
        let mut oracle = new();
        let oracle_now = run_per_ns(&mut oracle);
        let mut sim = new();
        let now = sim.run();
        assert_eq!(
            fingerprint(&sim, now),
            fingerprint(&oracle, oracle_now),
            "mix {} pud {pud:?} {mitigation:?} budget {budget} seed {seed} {cfg:?}",
            mix.id
        );
        assert_eq!(
            oracle.steps,
            oracle_now + u64::from(oracle_now < oracle.cap_ns)
        );
        (sim.steps, oracle.steps)
    }

    #[test]
    fn event_loop_matches_the_per_ns_loop() {
        let cfg = SystemConfig::default();
        let (mut steps, mut ticks) = (0, 0);
        for seed in [9, 0xF1625] {
            for mix in &build_mixes(3, seed) {
                for pud in [None, Some(125), Some(1_000), Some(16_000)] {
                    for mitigation in MITIGATIONS {
                        let (s, t) = assert_event_loop_matches_per_ns(
                            &cfg, mix, pud, mitigation, 6_000, seed,
                        );
                        steps += s;
                        ticks += t;
                    }
                }
            }
        }
        assert!(steps * 5 <= ticks, "{steps} steps for {ticks} ticks");
    }

    #[test]
    fn event_loop_matches_the_per_ns_loop_under_stress() {
        // Tiny queues and MLP keep cores pending and stalled, a cap of 1
        // and one working-set bank force row-hit and bank conflicts, and
        // PuD at 125 ns under naive PRAC keeps back-off (ABO) busy.
        let base = SystemConfig::default();
        let configs = [
            SystemConfig {
                queue_depth: 2,
                ..base
            },
            SystemConfig {
                queue_depth: 3,
                mlp: 1,
                ..base
            },
            SystemConfig {
                queue_depth: 4,
                cap: 1,
                ..base
            },
            SystemConfig {
                mlp: 1,
                cap: 1,
                working_set_banks: 1,
                ..base
            },
            SystemConfig {
                queue_depth: 3,
                cap: 1,
                working_set_banks: 1,
                ..base
            },
        ];
        let mixes = build_mixes(2, 5);
        for cfg in &configs {
            for mix in &mixes {
                for pud in [None, Some(125), Some(1_000)] {
                    for mitigation in MITIGATIONS {
                        assert_event_loop_matches_per_ns(cfg, mix, pud, mitigation, 3_000, 17);
                    }
                }
            }
        }
    }

    #[test]
    fn event_loop_matches_the_per_ns_loop_at_the_cap() {
        // One bank shared with PuD issued back to back under PRAC-AO (each
        // SiMRA holds the bank ~1.5 µs): the cores cannot retire their
        // budget before `cap_ns`.
        let cfg = SystemConfig {
            banks: 1,
            working_set_banks: 1,
            ..SystemConfig::default()
        };
        let mix = &build_mixes(1, 3)[0];
        let (pud, mitigation, budget) = (Some(1), Mitigation::PracAoWeighted, 20_000);
        assert_event_loop_matches_per_ns(&cfg, mix, pud, mitigation, budget, 9);
        let timing = DramTiming::default();
        let stats = run_mix(&cfg, &timing, mix, pud, mitigation, budget, 9);
        assert_eq!(stats.elapsed_ns, 2_000_000, "the run must hit cap_ns");
    }

    #[test]
    fn next_issue_is_the_first_tick_fr_fcfs_picks() {
        // Brute force: from every executed tick, scan forward to the first
        // tick at which `pick` chooses a request in the unchanged queue.
        let base = SystemConfig::default();
        let configs = [
            base,
            SystemConfig {
                cap: 1,
                working_set_banks: 1,
                ..base
            },
        ];
        let timing = DramTiming::default();
        for (cfg, mix) in configs.iter().zip(&build_mixes(2, 5)) {
            for mitigation in MITIGATIONS {
                let mut sim = Sim::new(cfg, &timing, mix, Some(125), mitigation, 3_000, 3);
                let mut now = 0;
                while now < sim.cap_ns && !sim.tick(now) {
                    let floor = now + 1;
                    let predicted = sim.next_issue(floor);
                    if predicted != u64::MAX {
                        let first = (floor..=predicted).find(|&t| {
                            pick(cfg, &sim.queue, &sim.banks, sim.channel_busy_until, t).is_some()
                        });
                        assert_eq!(first, Some(predicted), "at {now}");
                    }
                    now = sim.advance(now);
                }
            }
        }
    }

    #[test]
    fn baseline_run_completes_and_reports_ipc() {
        let s = quick_run(Mitigation::None, None);
        assert_eq!(s.core_ipc.len(), 4);
        for &ipc in &s.core_ipc {
            assert!(ipc > 0.0 && ipc <= SystemConfig::default().ipc_per_ns);
        }
        assert_eq!(s.rfms, 0);
        assert_eq!(s.pud_ops, 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = quick_run(Mitigation::PracPoWeighted, Some(1_000));
        let b = quick_run(Mitigation::PracPoWeighted, Some(1_000));
        assert_eq!(a, b);
    }

    #[test]
    fn pud_workload_issues_operations() {
        let s = quick_run(Mitigation::None, Some(500));
        assert!(s.pud_ops > 10, "{}", s.pud_ops);
    }

    #[test]
    fn naive_prac_triggers_many_rfms_under_pud_load() {
        let naive = quick_run(Mitigation::PracPoNaive, Some(500));
        let weighted = quick_run(Mitigation::PracPoWeighted, Some(500));
        assert!(naive.rfms > 0);
        assert!(
            naive.rfms > weighted.rfms,
            "naive {} vs weighted {}",
            naive.rfms,
            weighted.rfms
        );
    }

    #[test]
    fn mitigation_slows_the_system_down() {
        let base = quick_run(Mitigation::None, Some(250));
        let naive = quick_run(Mitigation::PracPoNaive, Some(250));
        let sum = |s: &RunStats| s.core_ipc.iter().sum::<f64>();
        assert!(
            sum(&naive) < sum(&base),
            "naive {} vs base {}",
            sum(&naive),
            sum(&base)
        );
    }
}
