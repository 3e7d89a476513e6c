//! Compile-then-replay: lowers a [`TestProgram`] tree into a flat,
//! branch-light op buffer the executor replays without re-walking the
//! tree. Every program [`crate::Executor::try_run`] accepts goes through
//! here; lowering is total over validated programs.
//!
//! The lowering pass resolves every logical row address to its physical
//! address once (the tree-walking interpreter calls the row-decoder
//! scramble on every ACT of every loop iteration) and keeps counted loops
//! as counted blocks that record their flat length and whether the body
//! is bulk-replayable. Replaying a compiled program drives the exact same
//! per-command semantics as the interpreter — the same trace events, the
//! same metrics and work counters, the same warm-up-then-bulk-replay loop
//! batching; the speed comes from the pre-resolved addresses and from the
//! executor pairing replay with the `pud-disturb` batching caches
//! ([`pud_disturb::batch`]). The interpreter survives only as the
//! test oracle ([`crate::Executor::interpret`]).

use pud_dram::{BankId, Chip, DataPattern, Picos, RowAddr};

use crate::command::DramCommand;
use crate::program::{Step, TestProgram};

/// One DDR4 command with its row address pre-resolved through the chip's
/// row-decoder scramble. Mirrors [`DramCommand`] except that `Act` carries
/// both the logical address (what the bus — and thus the TRR observer and
/// the SiMRA group decode — sees) and the physical address (what the
/// device model touches).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ResolvedCmd {
    /// Activate: logical address for the observer, physical for the model.
    Act {
        bank: BankId,
        logical: RowAddr,
        phys: RowAddr,
    },
    /// Precharge one bank.
    Pre { bank: BankId },
    /// Precharge all banks.
    PreAll,
    /// Read the open row.
    Rd { bank: BankId },
    /// Overwrite the open row(s).
    Wr { bank: BankId, pattern: DataPattern },
    /// Refresh.
    Ref,
    /// Pure delay.
    Nop,
}

/// One slot of the flat op buffer.
///
/// A `Block` header is immediately followed by the `len` slots of its
/// body (nested blocks included), so replay walks the buffer with an
/// index and a slice — no tree pointers, no per-iteration dispatch on
/// step shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum CompiledOp {
    /// A single timed command.
    Cmd {
        cmd: ResolvedCmd,
        delay_after: Picos,
    },
    /// A counted block over the following `len` slots.
    Block {
        /// Iteration count.
        count: u64,
        /// Flat slots occupied by the body (nested blocks included).
        len: usize,
        /// Whether the body qualifies for warm-up-then-bulk replay
        /// (same predicate as the interpreter's `run_loop`).
        batchable: bool,
    },
}

/// A [`TestProgram`] lowered into a flat op buffer. The addresses embed
/// one chip's row mapping, so a compiled program lives only for the one
/// [`crate::Executor::try_run`] call that built it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CompiledProgram {
    pub(crate) ops: Vec<CompiledOp>,
}

impl CompiledProgram {
    /// Lowers `program` against `chip`'s row mapping. The caller has
    /// already validated every bank and row against the chip's geometry.
    pub(crate) fn compile(program: &TestProgram, chip: &Chip) -> CompiledProgram {
        let mut ops = Vec::with_capacity(program.steps().len());
        lower(program.steps(), chip, &mut ops);
        CompiledProgram { ops }
    }
}

impl ResolvedCmd {
    /// Resolves `cmd`'s row address through `chip`'s row-decoder scramble.
    pub(crate) fn resolve(cmd: DramCommand, chip: &Chip) -> ResolvedCmd {
        match cmd {
            DramCommand::Act { bank, row } => ResolvedCmd::Act {
                bank,
                logical: row,
                phys: chip.to_physical(row),
            },
            DramCommand::Pre { bank } => ResolvedCmd::Pre { bank },
            DramCommand::PreAll => ResolvedCmd::PreAll,
            DramCommand::Rd { bank } => ResolvedCmd::Rd { bank },
            DramCommand::Wr { bank, pattern } => ResolvedCmd::Wr { bank, pattern },
            DramCommand::Ref => ResolvedCmd::Ref,
            DramCommand::Nop => ResolvedCmd::Nop,
        }
    }
}

/// Recursively appends the lowered form of `steps` to `ops`.
fn lower(steps: &[Step], chip: &Chip, ops: &mut Vec<CompiledOp>) {
    for step in steps {
        match step {
            Step::Cmd(tc) => ops.push(CompiledOp::Cmd {
                cmd: ResolvedCmd::resolve(tc.cmd, chip),
                delay_after: tc.delay_after,
            }),
            Step::Loop { count, body } => {
                // Reserve the header slot, lower the body behind it, then
                // patch the header with the measured flat length.
                let header = ops.len();
                ops.push(CompiledOp::Block {
                    count: *count,
                    len: 0,
                    batchable: false,
                });
                lower(body, chip, ops);
                let len = ops.len() - header - 1;
                // Same predicate as the interpreter's `run_loop`: every
                // body step is a plain ACT/PRE/PREALL/NOP command (flat
                // form: no nested blocks, no RD/WR/REF slots).
                let batchable = ops[header + 1..].iter().all(|op| {
                    matches!(
                        op,
                        CompiledOp::Cmd {
                            cmd: ResolvedCmd::Act { .. }
                                | ResolvedCmd::Pre { .. }
                                | ResolvedCmd::PreAll
                                | ResolvedCmd::Nop,
                            ..
                        }
                    )
                });
                ops[header] = CompiledOp::Block {
                    count: *count,
                    len,
                    batchable,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pud_dram::profiles::TESTED_MODULES;
    use pud_dram::ChipGeometry;

    fn chip() -> Chip {
        let p = &TESTED_MODULES[1];
        Chip::new(
            ChipGeometry::scaled_for_tests(),
            p.mapping(),
            p.cell_layout(),
        )
    }

    fn hammer_program(row: u32, count: u64) -> TestProgram {
        let mut p = TestProgram::new();
        p.repeat(count, |b| {
            b.act(BankId(0), RowAddr(row), Picos::from_ns(36.0))
                .pre(BankId(0), Picos::from_ns(15.0));
        });
        p
    }

    #[test]
    fn lowering_flattens_blocks_and_resolves_rows() {
        let chip = chip();
        let p = hammer_program(10, 1000);
        let cp = CompiledProgram::compile(&p, &chip);
        assert_eq!(cp.ops.len(), 3, "one block header + two command slots");
        match cp.ops[0] {
            CompiledOp::Block {
                count,
                len,
                batchable,
            } => {
                assert_eq!(count, 1000);
                assert_eq!(len, 2);
                assert!(batchable);
            }
            ref other => panic!("expected block header, got {other:?}"),
        }
        match cp.ops[1] {
            CompiledOp::Cmd {
                cmd: ResolvedCmd::Act { logical, phys, .. },
                ..
            } => {
                assert_eq!(logical, RowAddr(10));
                assert_eq!(phys, chip.to_physical(RowAddr(10)));
            }
            ref other => panic!("expected resolved ACT, got {other:?}"),
        }
    }

    #[test]
    fn loops_with_side_effects_are_not_batchable() {
        let chip = chip();
        let mut p = TestProgram::new();
        p.repeat(100, |b| {
            b.act(BankId(0), RowAddr(1), Picos::from_ns(36.0))
                .rd(BankId(0), Picos::from_ns(15.0));
        });
        let cp = CompiledProgram::compile(&p, &chip);
        assert!(matches!(
            cp.ops[0],
            CompiledOp::Block {
                batchable: false,
                ..
            }
        ));
    }

    #[test]
    fn depth_20_compiles() {
        let chip = chip();
        fn nest(depth: u32) -> TestProgram {
            let mut p = TestProgram::new();
            if depth == 0 {
                p.wait(Picos::from_ns(1.0));
            } else {
                p.repeat(2, |b| {
                    b.extend(&nest(depth - 1));
                });
            }
            p
        }
        let cp = CompiledProgram::compile(&nest(20), &chip);
        assert_eq!(cp.ops.len(), 21, "twenty block headers + one NOP");
        for (depth, op) in cp.ops[..20].iter().enumerate() {
            assert!(
                matches!(*op, CompiledOp::Block { count: 2, len, .. } if len == 20 - depth),
                "header {depth}: {op:?}"
            );
        }
    }

    #[test]
    fn nested_batchable_inner_loops_stay_batchable() {
        let chip = chip();
        let mut p = TestProgram::new();
        p.repeat(10, |outer| {
            outer.repeat(50, |inner| {
                inner
                    .act(BankId(0), RowAddr(2), Picos::from_ns(36.0))
                    .pre(BankId(0), Picos::from_ns(15.0));
            });
            outer.refresh(Picos::from_ns(350.0));
        });
        let cp = CompiledProgram::compile(&p, &chip);
        // Outer block: 4 slots (inner header, 2 cmds, REF); not batchable.
        match cp.ops[0] {
            CompiledOp::Block {
                count,
                len,
                batchable,
            } => {
                assert_eq!(count, 10);
                assert_eq!(len, 4);
                assert!(!batchable);
            }
            ref other => panic!("expected outer block, got {other:?}"),
        }
        assert!(matches!(
            cp.ops[1],
            CompiledOp::Block {
                count: 50,
                len: 2,
                batchable: true,
            }
        ));
    }
}
