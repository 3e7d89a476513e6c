//! Test-program representation and builder.
//!
//! A test program is a tree of timed commands and counted loops, mirroring
//! how DRAM Bender programs express hammering kernels: a small body of
//! commands with explicit inter-command delays, repeated millions of times.

use pud_dram::{BankId, DataPattern, Picos, RowAddr};

use crate::command::{DramCommand, TimedCommand};

/// One step of a test program.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// A single timed command.
    Cmd(TimedCommand),
    /// A counted loop over a sub-program.
    Loop {
        /// Iteration count.
        count: u64,
        /// Loop body.
        body: Vec<Step>,
    },
}

impl Step {
    /// Total wall-clock duration of this step.
    pub fn duration(&self) -> Picos {
        match self {
            Step::Cmd(tc) => tc.delay_after,
            Step::Loop { count, body } => {
                let body_time = body
                    .iter()
                    .fold(Picos::ZERO, |acc, s| acc.saturating_add(s.duration()));
                body_time.saturating_mul(*count)
            }
        }
    }

    /// Total number of ACT commands issued by this step.
    pub fn act_count(&self) -> u64 {
        match self {
            Step::Cmd(tc) => matches!(tc.cmd, DramCommand::Act { .. }) as u64,
            Step::Loop { count, body } => count * body.iter().map(Step::act_count).sum::<u64>(),
        }
    }

    /// Total number of commands (of any kind) issued by this step — the
    /// unit the fault-injection clock (`crate::fault`) advances in.
    pub fn cmd_count(&self) -> u64 {
        match self {
            Step::Cmd(_) => 1,
            Step::Loop { count, body } => {
                count.saturating_mul(body.iter().map(Step::cmd_count).sum::<u64>())
            }
        }
    }

    /// Whether this step is a command a loop replay may elide: plain
    /// ACT/PRE/PREA/NOP steps have no per-iteration observable output
    /// (no captured reads, no data writes, no refresh sweeps), so a loop
    /// whose body is made entirely of them can be warmed twice and then
    /// replayed as bulk hammer events. Both the interpreter's loop
    /// batching and the compiler's `Block` lowering use this predicate.
    pub fn is_batchable_cmd(&self) -> bool {
        matches!(
            self,
            Step::Cmd(tc) if matches!(
                tc.cmd,
                DramCommand::Act { .. }
                    | DramCommand::Pre { .. }
                    | DramCommand::PreAll
                    | DramCommand::Nop
            )
        )
    }
}

/// A complete test program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TestProgram {
    steps: Vec<Step>,
}

impl TestProgram {
    /// Creates an empty program.
    pub fn new() -> TestProgram {
        TestProgram::default()
    }

    /// The program's steps.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Total wall-clock duration of the program.
    pub fn duration(&self) -> Picos {
        self.steps
            .iter()
            .fold(Picos::ZERO, |acc, s| acc.saturating_add(s.duration()))
    }

    /// Total number of ACT commands the program issues.
    pub fn act_count(&self) -> u64 {
        self.steps.iter().map(Step::act_count).sum()
    }

    /// Total number of commands (of any kind) the program issues.
    pub fn cmd_count(&self) -> u64 {
        self.steps.iter().map(Step::cmd_count).sum()
    }

    /// Appends an activate command followed by `delay`.
    pub fn act(&mut self, bank: BankId, row: RowAddr, delay: Picos) -> &mut TestProgram {
        self.push_cmd(DramCommand::Act { bank, row }, delay)
    }

    /// Appends a precharge command followed by `delay`.
    pub fn pre(&mut self, bank: BankId, delay: Picos) -> &mut TestProgram {
        self.push_cmd(DramCommand::Pre { bank }, delay)
    }

    /// Appends a precharge-all command followed by `delay`.
    pub fn pre_all(&mut self, delay: Picos) -> &mut TestProgram {
        self.push_cmd(DramCommand::PreAll, delay)
    }

    /// Appends a read of the open row.
    pub fn rd(&mut self, bank: BankId, delay: Picos) -> &mut TestProgram {
        self.push_cmd(DramCommand::Rd { bank }, delay)
    }

    /// Appends a pattern write to the open row(s).
    pub fn wr(&mut self, bank: BankId, pattern: DataPattern, delay: Picos) -> &mut TestProgram {
        self.push_cmd(DramCommand::Wr { bank, pattern }, delay)
    }

    /// Appends a refresh command followed by `delay`.
    pub fn refresh(&mut self, delay: Picos) -> &mut TestProgram {
        self.push_cmd(DramCommand::Ref, delay)
    }

    /// Appends a pure delay.
    pub fn wait(&mut self, delay: Picos) -> &mut TestProgram {
        self.push_cmd(DramCommand::Nop, delay)
    }

    /// Appends a counted loop built by `f`.
    pub fn repeat(&mut self, count: u64, f: impl FnOnce(&mut TestProgram)) -> &mut TestProgram {
        let mut body = TestProgram::new();
        f(&mut body);
        self.steps.push(Step::Loop {
            count,
            body: body.steps,
        });
        self
    }

    /// Appends all steps of another program.
    pub fn extend(&mut self, other: &TestProgram) -> &mut TestProgram {
        self.steps.extend(other.steps.iter().cloned());
        self
    }

    fn push_cmd(&mut self, cmd: DramCommand, delay_after: Picos) -> &mut TestProgram {
        self.steps
            .push(Step::Cmd(TimedCommand { cmd, delay_after }));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let mut p = TestProgram::new();
        p.act(BankId(0), RowAddr(1), Picos::from_ns(36.0))
            .pre(BankId(0), Picos::from_ns(15.0));
        assert_eq!(p.steps().len(), 2);
        assert_eq!(p.duration(), Picos::from_ns(51.0));
        assert_eq!(p.act_count(), 1);
    }

    #[test]
    fn loops_multiply_duration_and_acts() {
        let mut p = TestProgram::new();
        p.repeat(1000, |b| {
            b.act(BankId(0), RowAddr(1), Picos::from_ns(36.0))
                .pre(BankId(0), Picos::from_ns(15.0))
                .act(BankId(0), RowAddr(3), Picos::from_ns(36.0))
                .pre(BankId(0), Picos::from_ns(15.0));
        });
        assert_eq!(p.act_count(), 2000);
        assert_eq!(p.duration(), Picos::from_ns(102_000.0));
    }

    #[test]
    fn nested_loops() {
        let mut p = TestProgram::new();
        p.repeat(10, |outer| {
            outer.repeat(5, |inner| {
                inner.act(BankId(0), RowAddr(0), Picos::from_ns(1.0));
            });
            outer.refresh(Picos::from_ns(350.0));
        });
        assert_eq!(p.act_count(), 50);
    }

    #[test]
    fn empty_program() {
        let p = TestProgram::new();
        assert_eq!(p.duration(), Picos::ZERO);
        assert_eq!(p.act_count(), 0);
        assert!(p.steps().is_empty());
    }
}
