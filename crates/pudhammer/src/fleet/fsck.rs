//! Offline checkpoint verification and repair (`repro fsck`).
//!
//! A checkpoint file is damaged in exactly two ways that matter:
//!
//! * **Tail damage** — a torn trailing line from `kill -9` mid-append, a
//!   CRC-failing record from bit rot, a line that is not UTF-8, framing
//!   garbage. Everything from the first damaged line to EOF is untrusted
//!   (a later line that *looks* valid may be an artifact of the same
//!   fault). `fsck` and resume ([`super::checkpoint::CheckpointStore::open`])
//!   verify through the same scan (`checkpoint::scan`), so they
//!   keep the same records and give the same reason; repair here is the
//!   truncation resume performs online, done ahead of time with an
//!   explicit report and an fsync.
//! * **Header damage** — the first line does not parse (or declares a
//!   foreign schema version). The file's campaign identity is lost, so
//!   no repair is possible: every record would belong to an unknown
//!   fleet. `fsck` reports it and leaves the file alone; the operator
//!   decides whether to delete it.
//!
//! `fsck` never needs the campaign configuration: header identity is
//! checked for *well-formedness* only, and record integrity rests
//! entirely on the per-line CRC32 frames. That is what makes it an
//! offline tool — it can run on a checkpoint copied off a dead machine.
//!
//! Given a campaign checkpoint path, sibling shard files
//! (`<base>.shard<i>of<n>`, see [`super::shard::shard_path`]) are
//! discovered and checked too, along with stale `.commit-tmp` staging
//! files left by a crash mid-[`super::checkpoint::CheckpointStore::commit`] (harmless — the
//! rename either happened or it didn't — and removed under `--repair`).

use std::fmt;
use std::fs::OpenOptions;
use std::path::{Path, PathBuf};

use super::checkpoint::{scan, sync_parent_dir, CheckpointHeader, HeaderIssue, SalvageReport};

/// What `fsck` concluded about one checkpoint file.
#[derive(Debug)]
pub enum FileStatus {
    /// Header parses and every record frame verifies.
    Clean {
        /// Intact records in the file.
        records: usize,
    },
    /// The file is empty or ends inside its header line with no record
    /// ever committed. Resume rewrites such a file from scratch (see
    /// [`super::checkpoint::CheckpointStore::open`]); repair truncates it to empty so the
    /// torn bytes cannot be mistaken for content.
    Embryonic {
        /// Torn header bytes present (zero for a genuinely empty file).
        torn_bytes: usize,
        /// Whether repair truncated them away.
        repaired: bool,
    },
    /// Damage strictly after the last intact record: the intact prefix
    /// holds `records` rows, the tail is discarded (by repair here, or by
    /// salvage at the next resume).
    TailDamage {
        /// Intact records in the surviving prefix.
        records: usize,
        /// The discarded tail, exactly as a resume would report it.
        damage: SalvageReport,
        /// Whether the file was truncated to the intact prefix.
        repaired: bool,
    },
    /// The header line itself is unreadable or foreign — unrepairable.
    HeaderDamage {
        /// Why the header was rejected.
        reason: String,
    },
}

impl FileStatus {
    /// Whether the file is usable for resume as it now stands on disk —
    /// either it was never damaged, or repair brought it back.
    pub fn healthy(&self) -> bool {
        match self {
            FileStatus::Clean { .. } => true,
            // A genuinely empty file needs no repair: resume restarts it.
            FileStatus::Embryonic {
                torn_bytes,
                repaired,
            } => *torn_bytes == 0 || *repaired,
            FileStatus::TailDamage { repaired, .. } => *repaired,
            FileStatus::HeaderDamage { .. } => false,
        }
    }

    /// Whether the file needed (or still needs) any intervention.
    pub fn damaged(&self) -> bool {
        match self {
            FileStatus::Clean { .. } => false,
            FileStatus::Embryonic { torn_bytes, .. } => *torn_bytes > 0,
            _ => true,
        }
    }
}

impl fmt::Display for FileStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FileStatus::Clean { records } => write!(f, "clean ({records} record(s))"),
            FileStatus::Embryonic {
                torn_bytes,
                repaired,
            } => {
                if *torn_bytes == 0 {
                    write!(f, "empty (no record committed; resume restarts it)")
                } else if *repaired {
                    write!(f, "repaired: truncated {torn_bytes} torn header byte(s)")
                } else {
                    write!(
                        f,
                        "torn header ({torn_bytes} byte(s), no record committed; \
                         repairable by truncation)"
                    )
                }
            }
            FileStatus::TailDamage {
                records,
                damage,
                repaired,
            } => {
                let verb = if *repaired { "repaired" } else { "tail damage" };
                write!(
                    f,
                    "{verb}: kept {records} record(s), dropped {} record(s) ({} byte(s)): {}",
                    damage.dropped_records, damage.dropped_bytes, damage.reason
                )
            }
            FileStatus::HeaderDamage { reason } => {
                write!(f, "unrepairable header damage: {reason}")
            }
        }
    }
}

/// One checked file.
#[derive(Debug)]
pub struct FileReport {
    /// The file.
    pub path: PathBuf,
    /// What fsck concluded.
    pub status: FileStatus,
}

/// Everything `fsck` found under one checkpoint base path.
#[derive(Debug, Default)]
pub struct FsckReport {
    /// Per-file verdicts: the base file (if present) first, then any
    /// sibling shard files in name order.
    pub files: Vec<FileReport>,
    /// Stale `.commit-tmp` staging files (removed when repairing).
    pub stale_tmp: Vec<PathBuf>,
}

impl FsckReport {
    /// Whether every checked file is usable for resume as it stands.
    pub fn healthy(&self) -> bool {
        self.files.iter().all(|f| f.status.healthy())
    }

    /// Whether any file needed (or still needs) intervention.
    pub fn damaged(&self) -> bool {
        self.files.iter().any(|f| f.status.damaged())
    }
}

/// Verifies the checkpoint at `base` plus any sibling shard files, and —
/// when `repair` is set — truncates tail damage away (fsynced) and
/// removes stale commit staging files. Errors only on filesystem
/// failures; damage itself is reported in the [`FsckReport`].
pub fn fsck(base: &Path, repair: bool) -> std::io::Result<FsckReport> {
    let mut report = FsckReport::default();
    for path in discover(base)? {
        let status = check_file(&path, repair)?;
        report.files.push(FileReport { path, status });
    }
    for tmp in discover_stale_tmp(base)? {
        if repair {
            std::fs::remove_file(&tmp)?;
        }
        report.stale_tmp.push(tmp);
    }
    Ok(report)
}

/// The base file (if it exists) plus every sibling shard slice, in name
/// order. Empty when nothing exists at all.
fn discover(base: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut found = Vec::new();
    if base.is_file() {
        found.push(base.to_path_buf());
    }
    found.extend(siblings(base, ".shard")?);
    Ok(found)
}

/// Stale `.commit-tmp` staging files for the base or any shard.
fn discover_stale_tmp(base: &Path) -> std::io::Result<Vec<PathBuf>> {
    Ok(siblings(base, "")?
        .into_iter()
        .filter(|p| p.as_os_str().to_string_lossy().ends_with(".commit-tmp"))
        .collect())
}

/// Directory entries whose name is `<base file name><infix>…`, sorted.
/// `.commit-tmp` files are excluded (they are staging artifacts, not
/// checkpoints) unless the caller filters *for* them.
fn siblings(base: &Path, infix: &str) -> std::io::Result<Vec<PathBuf>> {
    let parent = match base.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let Some(stem) = base.file_name().map(|n| n.to_string_lossy().to_string()) else {
        return Ok(Vec::new());
    };
    let prefix = format!("{stem}{infix}");
    let mut found = Vec::new();
    let entries = match std::fs::read_dir(&parent) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().to_string();
        let is_tmp = name.ends_with(".commit-tmp");
        if name != stem && name.starts_with(&prefix) && (infix.is_empty() || !is_tmp) {
            found.push(parent.join(name));
        }
    }
    found.sort();
    Ok(found)
}

/// Verifies one file; truncates tail damage when `repair` is set.
fn check_file(path: &Path, repair: bool) -> std::io::Result<FileStatus> {
    let bytes = std::fs::read(path)?;
    let scan = scan(path, &bytes);
    let Some(header) = scan.header else {
        // No complete header line ever hit the disk: nothing committed,
        // nothing to save. Truncating to empty is always safe — resume
        // treats an empty file as fresh.
        let torn = bytes.len();
        let repaired = repair && torn > 0;
        if repaired {
            truncate_to(path, 0)?;
        }
        return Ok(FileStatus::Embryonic {
            torn_bytes: torn,
            repaired,
        });
    };
    if let Err(issue) = CheckpointHeader::parse(header) {
        let reason = match issue {
            HeaderIssue::Version(v) => format!("unsupported checkpoint schema version {v}"),
            HeaderIssue::Malformed(why) => why,
        };
        return Ok(FileStatus::HeaderDamage { reason });
    }
    let records = scan.records.len();
    let Some(damage) = scan.damage else {
        return Ok(FileStatus::Clean { records });
    };
    if repair {
        truncate_to(path, scan.valid_len as u64)?;
    }
    Ok(FileStatus::TailDamage {
        records,
        damage,
        repaired: repair,
    })
}

/// Truncates `path` to `len` bytes and makes the truncation durable.
fn truncate_to(path: &Path, len: u64) -> std::io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    file.sync_all()?;
    sync_parent_dir(path)
}

#[cfg(test)]
mod tests {
    use super::super::checkpoint::record_line;
    use super::*;

    fn header() -> CheckpointHeader {
        CheckpointHeader {
            target: "table2".to_string(),
            scale: "quick".to_string(),
            fingerprint: 0xABCD,
            fault_seed: None,
            shard: None,
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pud-fsck-{name}-{}", std::process::id()));
        p
    }

    fn write_checkpoint(path: &Path, rows: usize) -> String {
        let mut content = header().render();
        content.push('\n');
        for i in 0..rows {
            content.push_str(&record_line("s0", &format!("C#{i}"), &format!("{i}")));
            content.push('\n');
        }
        std::fs::write(path, &content).expect("write");
        content
    }

    #[test]
    fn a_clean_file_verifies_and_nothing_changes() {
        let path = temp_path("clean");
        let content = write_checkpoint(&path, 3);
        let report = fsck(&path, true).expect("fsck");
        assert_eq!(report.files.len(), 1);
        assert!(matches!(
            report.files[0].status,
            FileStatus::Clean { records: 3 }
        ));
        assert!(report.healthy());
        assert!(!report.damaged());
        assert_eq!(std::fs::read_to_string(&path).expect("read"), content);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_torn_tail_is_reported_and_repair_truncates_it() {
        let path = temp_path("tail");
        let content = write_checkpoint(&path, 3);
        std::fs::write(&path, &content[..content.len() - 7]).expect("tear");
        // Verify-only: damage reported, file untouched.
        let report = fsck(&path, false).expect("fsck");
        let FileStatus::TailDamage {
            records,
            damage,
            repaired,
        } = &report.files[0].status
        else {
            panic!("{:?}", report.files[0].status);
        };
        assert_eq!(*records, 2);
        assert_eq!(damage.dropped_records, 1);
        assert_eq!(damage.reason, "record unterminated (torn write)");
        assert!(!repaired);
        assert!(!report.healthy());
        // Repair: truncated to the intact prefix, then verifies clean.
        let report = fsck(&path, true).expect("repair");
        assert!(report.healthy());
        let report = fsck(&path, false).expect("re-verify");
        assert!(matches!(
            report.files[0].status,
            FileStatus::Clean { records: 2 }
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_flipped_bit_is_caught_by_the_crc_and_everything_after_is_dropped() {
        let path = temp_path("bitrot");
        let content = write_checkpoint(&path, 4);
        let mut bytes = content.into_bytes();
        // Flip a data bit inside the *second* record's payload.
        let second = bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .map(|(i, _)| i)
            .nth(1)
            .expect("line offsets")
            + 20;
        bytes[second] ^= 0x01;
        std::fs::write(&path, &bytes).expect("corrupt");
        let report = fsck(&path, false).expect("fsck");
        let FileStatus::TailDamage {
            records, damage, ..
        } = &report.files[0].status
        else {
            panic!("{:?}", report.files[0].status);
        };
        assert_eq!(*records, 1, "only the prefix before the flip survives");
        assert_eq!(
            damage.dropped_records, 3,
            "the flipped line poisons the rest"
        );
        assert!(
            damage.reason.contains("crc mismatch") || damage.reason.contains("framing"),
            "{}",
            damage.reason
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn header_damage_is_unrepairable_and_left_alone() {
        let path = temp_path("header");
        let content = write_checkpoint(&path, 2);
        let mangled = content.replacen("pud-checkpoint", "pud-checkpoInt", 1);
        std::fs::write(&path, &mangled).expect("mangle");
        let report = fsck(&path, true).expect("fsck");
        assert!(matches!(
            report.files[0].status,
            FileStatus::HeaderDamage { .. }
        ));
        assert!(!report.healthy());
        assert_eq!(
            std::fs::read_to_string(&path).expect("read"),
            mangled,
            "repair must not touch a file whose identity is lost"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_torn_header_with_no_records_repairs_to_empty() {
        let path = temp_path("embryo");
        std::fs::write(&path, &header().render()[..10]).expect("torn header");
        let report = fsck(&path, false).expect("fsck");
        assert!(matches!(
            report.files[0].status,
            FileStatus::Embryonic {
                torn_bytes: 10,
                repaired: false
            }
        ));
        let report = fsck(&path, true).expect("repair");
        assert!(report.healthy());
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shard_siblings_and_stale_tmp_files_are_discovered() {
        let base = temp_path("family");
        let _ = std::fs::remove_file(&base);
        let shard0 = PathBuf::from(format!("{}.shard0of2", base.display()));
        let shard1 = PathBuf::from(format!("{}.shard1of2", base.display()));
        let tmp = PathBuf::from(format!("{}.commit-tmp", base.display()));
        write_checkpoint(&shard0, 2);
        let content = write_checkpoint(&shard1, 2);
        std::fs::write(&shard1, &content[..content.len() - 4]).expect("tear shard1");
        std::fs::write(&tmp, "staging leftovers").expect("tmp");
        let report = fsck(&base, true).expect("fsck");
        assert_eq!(report.files.len(), 2, "base absent, both shards found");
        assert!(report.healthy(), "shard1's tail damage was repaired");
        assert_eq!(report.stale_tmp, vec![tmp.clone()]);
        assert!(!tmp.exists(), "repair removes stale staging files");
        let _ = std::fs::remove_file(&shard0);
        let _ = std::fs::remove_file(&shard1);
        let _ = std::fs::remove_file(&base);
    }
}
