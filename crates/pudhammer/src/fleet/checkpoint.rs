//! JSONL sweep checkpoints: append-only per-chip result rows with a
//! verified header and CRC32-framed records, so interrupted campaigns
//! resume where they left off and storage damage is detected, salvaged,
//! or cleanly rejected — never silently replayed.
//!
//! Format (one JSON object per line, written with `pud-observe`'s JSON
//! writer):
//!
//! ```text
//! {"kind":"pud-checkpoint","version":2,"target":"table2","scale":"quick",
//!  "fingerprint":1234,"fault_seed":7}
//! {"crc":"9ae0daaf","rec":{"stage":"rowhammer","chip":"SKHynix-A-8Gb#0","data":{...}}}
//! ...
//! ```
//!
//! The header binds the file to one campaign: the repro target, the scale
//! label, the [`FleetConfig::fingerprint`](super::FleetConfig::fingerprint)
//! (fleet seed, geometry, sampling density, fault configuration, family
//! roster), and the fault seed for human readability. [`CheckpointStore::open`]
//! rejects a mismatched header instead of silently mixing incompatible
//! rows. Every record line wraps its payload in a CRC32 (IEEE) frame
//! computed over the exact payload bytes, so bit rot — not just torn
//! tails — is caught at the next open, merge, or `repro fsck`.
//!
//! Durability model, two layers:
//!
//! - **Append**: each record is one `write` + `flush` of a complete line,
//!   so a kill leaves at most one truncated trailing line.
//! - **Commit barriers**: at sweep barriers (and before a shard worker
//!   reports `Done`) [`CheckpointStore::commit`] rewrites the file, its
//!   records sorted by `(stage, chip)`, through a temp file, `fsync`s it,
//!   renames it over the original, and `fsync`s the parent directory —
//!   after which every recorded row survives power loss, not just
//!   process death.
//!
//! One scanner (`scan`) reads the record stream for every consumer —
//! resume, the shard merge, the profile store and `repro fsck` — and one
//! writer (`record_line`) builds every record line. On reopen the
//! longest intact prefix is kept and everything from the first damaged
//! line onward is truncated away — a [`SalvageReport`] describes the
//! discarded tail, the campaign footer reports it, and the chips it
//! covered simply re-run. Quarantined chips are never recorded —
//! a resume retries them, keeping counters and rendered output identical
//! to an uninterrupted run.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use pud_disturb::rng::{mix_all, unit};
use pud_observe::json::{JsonArray, JsonObject};
use pud_observe::JsonValue;

/// Checkpoint file-format version. Version 2 added the CRC32 record
/// frame; version-1 files (no frame) are rejected with a typed
/// [`CheckpointError::Version`], never reinterpreted.
pub const CHECKPOINT_VERSION: u64 = 2;

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) lookup table,
/// built at compile time — the framing must not cost a dependency.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Standard CRC32 (the one `cksum -o3`, zlib, and PNG agree on).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

const FRAME_PREFIX: &str = "{\"crc\":\"";
const FRAME_MID: &str = "\",\"rec\":";

/// Strips and verifies a record line's CRC32 frame, returning the payload
/// slice. Byte-exact: the frame is matched structurally (prefix, 8 hex
/// digits, separator, trailing brace) *before* any JSON parsing, so a
/// flipped bit anywhere in the line fails here rather than producing a
/// plausible-but-wrong parse.
pub(crate) fn unframe_record(line: &str) -> Result<&str, String> {
    let rest = line
        .strip_prefix(FRAME_PREFIX)
        .ok_or("record framing malformed: missing crc prefix")?;
    if rest.len() < 8 {
        return Err("record framing malformed: truncated crc digest".to_string());
    }
    let (hex, rest) = rest.split_at(8);
    let payload = rest
        .strip_prefix(FRAME_MID)
        .and_then(|r| r.strip_suffix('}'))
        .ok_or("record framing malformed: missing rec field or closing brace")?;
    let declared = u32::from_str_radix(hex, 16)
        .map_err(|_| format!("record framing malformed: non-hex crc {hex:?}"))?;
    let actual = crc32(payload.as_bytes());
    if declared != actual {
        return Err(format!(
            "crc mismatch: frame declares {declared:08x}, payload hashes to {actual:08x}"
        ));
    }
    Ok(payload)
}

/// The shard a checkpoint file belongs to, when it is one shard's slice of
/// a sharded campaign (see [`super::shard`]). Stored in the header so the
/// coordinator's merge can reject a stray file from a different topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSlot {
    /// Shard index, `0..count`.
    pub index: u32,
    /// Total shard count of the campaign.
    pub count: u32,
    /// First chip (fleet order) owned by the shard.
    pub chip_lo: u32,
    /// One past the last chip owned by the shard.
    pub chip_hi: u32,
}

/// Campaign identity stored in (and verified against) the first line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// The repro target (e.g. `table2`).
    pub target: String,
    /// Scale label (`quick` / `full`).
    pub scale: String,
    /// [`super::FleetConfig::fingerprint`] of the campaign's fleet.
    pub fingerprint: u64,
    /// The fault seed, if fault injection is on (informational — the
    /// fingerprint already covers the full fault configuration).
    pub fault_seed: Option<u64>,
    /// Set when the file is one shard's slice of a sharded campaign;
    /// `None` for whole-campaign files (including merged ones). Absent
    /// from the rendered header when `None`, so pre-sharding files parse
    /// unchanged.
    pub shard: Option<ShardSlot>,
}

/// Why a header line could not be accepted, before campaign comparison.
pub(crate) enum HeaderIssue {
    /// The file declares a schema version this build does not speak.
    Version(u64),
    /// Not parseable as a checkpoint header at all.
    Malformed(String),
}

impl CheckpointHeader {
    /// Renders the header line exactly as [`CheckpointStore::open`] writes
    /// it for a fresh file (the shard merge rebuilds merged files with it).
    pub(crate) fn render(&self) -> String {
        let obj = JsonObject::new()
            .str("kind", "pud-checkpoint")
            .u64("version", CHECKPOINT_VERSION)
            .str("target", &self.target)
            .str("scale", &self.scale)
            .u64("fingerprint", self.fingerprint);
        let obj = match self.fault_seed {
            Some(seed) => obj.u64("fault_seed", seed),
            None => obj.raw("fault_seed", "null"),
        };
        match self.shard {
            None => obj,
            Some(s) => obj.raw(
                "shard",
                &JsonArray::new()
                    .u64(u64::from(s.index))
                    .u64(u64::from(s.count))
                    .u64(u64::from(s.chip_lo))
                    .u64(u64::from(s.chip_hi))
                    .finish(),
            ),
        }
        .finish()
    }

    /// Parses a header line (without its newline).
    pub(crate) fn parse(line: &[u8]) -> Result<CheckpointHeader, HeaderIssue> {
        let malformed = HeaderIssue::Malformed;
        let line = std::str::from_utf8(line)
            .map_err(|_| malformed("header line is not valid UTF-8".to_string()))?;
        let v =
            JsonValue::parse(line).map_err(|e| malformed(format!("unparseable header: {e}")))?;
        if v.get("kind").and_then(JsonValue::as_str) != Some("pud-checkpoint") {
            return Err(malformed("not a pud-checkpoint file".to_string()));
        }
        let version = v
            .get("version")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| malformed("header missing version".to_string()))?;
        if version != CHECKPOINT_VERSION {
            return Err(HeaderIssue::Version(version));
        }
        let shard = match v.get("shard") {
            None => None,
            Some(s) => {
                let words: Vec<u64> = s
                    .as_arr()
                    .map(|items| items.iter().filter_map(JsonValue::as_u64).collect())
                    .unwrap_or_default();
                match words[..] {
                    [index, count, chip_lo, chip_hi] => Some(ShardSlot {
                        index: index as u32,
                        count: count as u32,
                        chip_lo: chip_lo as u32,
                        chip_hi: chip_hi as u32,
                    }),
                    _ => return Err(malformed("header shard field malformed".to_string())),
                }
            }
        };
        Ok(CheckpointHeader {
            target: v
                .get("target")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| malformed("header missing target".to_string()))?
                .to_string(),
            scale: v
                .get("scale")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| malformed("header missing scale".to_string()))?
                .to_string(),
            fingerprint: v
                .get("fingerprint")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| malformed("header missing fingerprint".to_string()))?,
            fault_seed: v.get("fault_seed").and_then(JsonValue::as_u64),
            shard,
        })
    }
}

/// Why a checkpoint could not be opened.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file's header does not match this campaign (boxed: the two
    /// headers would otherwise dominate every `Result` in the open path).
    HeaderMismatch {
        /// Path of the offending file.
        path: PathBuf,
        /// Expected header (this campaign).
        expected: Box<CheckpointHeader>,
        /// Header found in the file.
        found: Box<CheckpointHeader>,
    },
    /// The file declares a checkpoint schema version this build does not
    /// speak — never silently reinterpreted, whatever the rest looks like.
    Version {
        /// Path of the offending file.
        path: PathBuf,
        /// The version the file declares.
        found: u64,
        /// The version this build reads and writes.
        supported: u64,
    },
    /// The header line is unusable (unparseable, or torn in a way that
    /// cannot be proven to be this campaign's own half-written header).
    /// Record damage never lands here — it salvages (see [`SalvageReport`]);
    /// a damaged *header* means the file's identity itself is unknown, so
    /// repairing it in place could clobber another campaign's data.
    Corrupt {
        /// Path of the offending file.
        path: PathBuf,
        /// 1-based line number.
        line: usize,
        /// Parse failure description.
        reason: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::HeaderMismatch {
                path,
                expected,
                found,
            } => {
                write!(
                    f,
                    "checkpoint {} belongs to a different campaign: \
                     file has target={} scale={} fingerprint={:#x} fault_seed={:?}, \
                     this run needs target={} scale={} fingerprint={:#x} fault_seed={:?} \
                     — delete the file or point --checkpoint elsewhere",
                    path.display(),
                    found.target,
                    found.scale,
                    found.fingerprint,
                    found.fault_seed,
                    expected.target,
                    expected.scale,
                    expected.fingerprint,
                    expected.fault_seed,
                )
            }
            CheckpointError::Version {
                path,
                found,
                supported,
            } => write!(
                f,
                "checkpoint {} declares schema version {found}; this build speaks only {supported}",
                path.display()
            ),
            CheckpointError::Corrupt { path, line, reason } => write!(
                f,
                "checkpoint {} is corrupt at line {line}: {reason}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> CheckpointError {
        CheckpointError::Io(e)
    }
}

/// What a salvaging open threw away: everything from the first damaged
/// line to end of file (prefix salvage — a later line may look intact,
/// but once the stream is damaged nothing after the damage is trusted;
/// the dropped chips simply re-measure, so output stays byte-identical).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SalvageReport {
    /// The salvaged file.
    pub path: PathBuf,
    /// 1-based line number of the first discarded line.
    pub first_bad_line: usize,
    /// Line-shaped segments discarded (the damaged line and everything
    /// after it).
    pub dropped_records: usize,
    /// Bytes truncated off the file.
    pub dropped_bytes: u64,
    /// What was wrong with the first discarded line.
    pub reason: String,
}

impl fmt::Display for SalvageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "checkpoint {} salvaged: dropped {} record(s) ({} byte(s)) from line {}: {}",
            self.path.display(),
            self.dropped_records,
            self.dropped_bytes,
            self.first_bad_line,
            self.reason
        )
    }
}

/// How a checkpoint write failed (see [`WriteFailure`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFailureKind {
    /// The filesystem is out of space (`ENOSPC`).
    NoSpace,
    /// The write tore mid-record: a prefix of the line reached the file.
    ShortWrite,
    /// Any other I/O failure.
    Other,
}

impl WriteFailureKind {
    fn label(self) -> &'static str {
        match self {
            WriteFailureKind::NoSpace => "no space left on device",
            WriteFailureKind::ShortWrite => "short write (record torn)",
            WriteFailureKind::Other => "write failed",
        }
    }
}

/// A typed, latched checkpoint write failure: what happened, to which
/// file. Carried to the end of the campaign (writes must not panic or
/// abort a sweep mid-measurement) and surfaced once in the strict footer.
#[derive(Debug)]
pub struct WriteFailure {
    /// The checkpoint file the write was destined for.
    pub path: PathBuf,
    /// Failure classification.
    pub kind: WriteFailureKind,
    /// The underlying I/O error.
    pub source: std::io::Error,
}

impl WriteFailure {
    fn classify(path: PathBuf, source: std::io::Error) -> WriteFailure {
        let kind = if source.raw_os_error() == Some(28) || source.kind() == ErrorKind::StorageFull {
            WriteFailureKind::NoSpace
        } else if source.kind() == ErrorKind::WriteZero {
            WriteFailureKind::ShortWrite
        } else {
            WriteFailureKind::Other
        };
        WriteFailure { path, kind, source }
    }
}

impl fmt::Display for WriteFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "checkpoint {}: {}: {}",
            self.path.display(),
            self.kind.label(),
            self.source
        )
    }
}

impl std::error::Error for WriteFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// `fsync` the directory containing `path`, making a just-completed
/// rename durable (a renamed file whose directory entry was never synced
/// can vanish on power loss).
pub(crate) fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()
}

/// The temp-file sibling a checkpoint image is staged through.
fn commit_tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".commit-tmp");
    PathBuf::from(os)
}

/// Writes a whole checkpoint image — `header`, then one record line each —
/// to `path` atomically: staged in the `.commit-tmp` sibling, `fsync`ed,
/// renamed over `path`, and the parent directory `fsync`ed. A crash
/// leaves the old file or the new one, never a torn hybrid; a failure
/// removes the staging file. Returns the new file, positioned at its end.
pub(crate) fn write_image<'a>(
    path: &Path,
    header: &CheckpointHeader,
    lines: impl IntoIterator<Item = &'a str>,
) -> std::io::Result<File> {
    let mut buf = header.render();
    buf.push('\n');
    for line in lines {
        buf.push_str(line);
        buf.push('\n');
    }
    let tmp = commit_tmp_path(path);
    let result = (|| {
        let mut file = File::create(&tmp)?;
        file.write_all(buf.as_bytes())?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path)?;
        Ok(file)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// What one pass over a checkpoint file's bytes found.
pub(crate) struct Scan<'a> {
    /// The header line without its newline; `None` when the file holds no
    /// complete line (empty, or torn inside its header).
    pub(crate) header: Option<&'a [u8]>,
    /// The records of the longest intact prefix, in file order: each
    /// one's `(stage, chip)` key, `data` value and line (no newline).
    pub(crate) records: Vec<((String, String), JsonValue, &'a str)>,
    /// Bytes in that prefix, header included.
    pub(crate) valid_len: usize,
    /// The damaged tail past the prefix, if any: the first bad line, why
    /// it is bad, and the lines and bytes from it to end of file.
    pub(crate) damage: Option<SalvageReport>,
}

/// Walks the record lines of the checkpoint `bytes` read from `path`: the
/// one verifier behind both resume ([`CheckpointStore::open`]) and
/// `repro fsck`. A record line is intact when it is newline-terminated,
/// valid UTF-8, its CRC frame verifies and its payload parses; the first
/// line that is not ends the prefix, and nothing after it is trusted (a
/// later line that looks intact may be an artifact of the same fault).
/// The header line is returned unparsed: each caller judges it.
pub(crate) fn scan<'a>(path: &Path, bytes: &'a [u8]) -> Scan<'a> {
    // An unterminated segment is always the last one, so a file with no
    // complete header line has no record lines either.
    let mut lines = bytes.split_inclusive(|&b| b == b'\n');
    let header = lines.next().and_then(|line| line.strip_suffix(b"\n"));
    let mut scan = Scan {
        header,
        records: Vec::new(),
        valid_len: header.map_or(0, |h| h.len() + 1),
        damage: None,
    };
    for (idx, line) in lines.enumerate() {
        let record = match line.strip_suffix(b"\n").map(std::str::from_utf8) {
            None => Err("record unterminated (torn write)".to_string()),
            Some(Err(_)) => Err("record line is not valid UTF-8".to_string()),
            Some(Ok(body)) => unframe_record(body)
                .and_then(parse_record)
                .map(|(stage, chip, data)| ((stage, chip), data, body)),
        };
        match record {
            Ok(record) => {
                scan.records.push(record);
                scan.valid_len += line.len();
            }
            Err(reason) => {
                let tail = &bytes[scan.valid_len..];
                scan.damage = Some(SalvageReport {
                    path: path.to_path_buf(),
                    first_bad_line: idx + 2,
                    dropped_records: tail.split_inclusive(|&b| b == b'\n').count(),
                    dropped_bytes: tail.len() as u64,
                    reason,
                });
                break;
            }
        }
    }
    scan
}

/// Salt of the storage-fault draws: the checkpoint layer's faults never
/// correlate with the chip faults drawn from the same campaign seed.
const STORAGE_FAULT_SALT: u64 = 0x5704_A6EF_AA17_0002;

/// The kinds of injected storage fault (see [`StorageFaultPlan`]). They
/// corrupt or refuse the durable record stream so the recovery paths (CRC
/// salvage, typed write-error latch, fsck repair) are drilled
/// deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StorageFaultKind {
    /// The write tears mid-record: only a prefix of the line reaches the
    /// file (simulates a kill or power cut between `write` and completion).
    ShortWrite,
    /// The write fails outright with `ENOSPC` — nothing reaches the file.
    NoSpace,
    /// The record is written in full but with one bit flipped (simulates
    /// media corruption; only the CRC frame can catch it later).
    BitCorrupt,
}

/// One scheduled storage fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StorageFault {
    /// 0-based ordinal of the *appended* record the fault fires on
    /// (records replayed from a resumed file do not count).
    at_record: u64,
    /// What happens to that record's write.
    kind: StorageFaultKind,
    /// Raw draw used to pick the flipped bit for [`StorageFaultKind::BitCorrupt`].
    bit_draw: u64,
}

/// Seeded storage-fault schedule for one checkpoint file.
///
/// At most one fault is scheduled per file — enough to drill every
/// recovery path (a torn tail salvages, `ENOSPC` latches a typed error,
/// a flipped bit trips the CRC at the next reopen or `fsck`) while
/// keeping campaigns convergent: respawned worker attempts run with
/// storage faults disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct StorageFaultPlan {
    fault: Option<StorageFault>,
}

impl StorageFaultPlan {
    /// Derives the schedule for the checkpoint file identified by `scope`
    /// (its file name) under `seed`. `permille` is the probability the
    /// file draws a fault at all; the record ordinal, kind, and corrupted
    /// bit all derive from `(seed, scope)` deterministically.
    fn derive(seed: u64, permille: u32, scope: &str) -> StorageFaultPlan {
        let mut plan = StorageFaultPlan::default();
        if permille == 0 {
            return plan;
        }
        let scope_hash = mix_all(&scope.bytes().map(u64::from).collect::<Vec<u64>>());
        let id = [seed ^ STORAGE_FAULT_SALT, scope_hash, 0];
        let draw = |tag: u64| mix_all(&[id[0], id[1], id[2], tag]);
        if unit(&[id[0], id[1], id[2], 1]) < f64::from(permille) / 1000.0 {
            let kind = match draw(2) % 3 {
                0 => StorageFaultKind::ShortWrite,
                1 => StorageFaultKind::NoSpace,
                _ => StorageFaultKind::BitCorrupt,
            };
            plan.fault = Some(StorageFault {
                // Early ordinals so quick-fleet shards (a handful of
                // records each) still reach the fault.
                at_record: draw(3) % 4,
                kind,
                bit_draw: draw(4),
            });
        }
        plan
    }

    /// The fault firing on appended record `ordinal`, if any.
    fn fault_at(&self, ordinal: u64) -> Option<StorageFault> {
        self.fault.filter(|f| f.at_record == ordinal)
    }
}

/// Append-side state, under one lock: the file handle plus the in-memory
/// copy of every committed line that `commit` rewrites atomically.
struct Writer {
    file: File,
    /// Every record line (framed, no trailing newline) with its
    /// `(stage, chip)` key — both lines recovered at open and lines
    /// appended since, in file order until `commit` sorts them.
    lines: Vec<((String, String), String)>,
    /// Records appended by this process (recovered lines don't count);
    /// the ordinal storage faults key on.
    appended: u64,
    /// Seeded storage-fault schedule (inert by default).
    storage: StorageFaultPlan,
}

/// An open checkpoint: completed rows loaded for lookup, file positioned
/// for appending new ones.
pub struct CheckpointStore {
    header: CheckpointHeader,
    path: PathBuf,
    completed: HashMap<(String, String), JsonValue>,
    salvage: Option<SalvageReport>,
    writer: Mutex<Writer>,
    /// First append failure, latched. Sweep workers call [`Self::record`]
    /// from hot paths where panicking on a full disk would masquerade as a
    /// chip fault; instead the error is kept here and surfaced once, at
    /// the end of the run, by the CLI (see [`Self::take_write_error`]).
    write_error: Mutex<Option<WriteFailure>>,
}

impl fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckpointStore")
            .field("header", &self.header)
            .field("completed", &self.completed.len())
            .finish_non_exhaustive()
    }
}

impl CheckpointStore {
    /// Opens (or creates) the checkpoint at `path` for the campaign
    /// described by `header`.
    ///
    /// A fresh or empty file gets the header written immediately. An
    /// existing file has its header verified and the rows of the intact
    /// prefix `scan` finds loaded; damage anywhere in the record stream —
    /// a truncated trailing line from an interrupted write, a CRC-failing
    /// or non-UTF-8 record from bit rot, torn framing — is *salvaged*: the
    /// file is truncated to the prefix, and the discarded tail is described
    /// by [`Self::salvage`] so the campaign footer can report it. Only
    /// header damage is a hard error (the file's identity would
    /// be unknown), with one exception: a file torn mid-*header* whose
    /// bytes are a prefix of this campaign's own header is rewritten
    /// fresh — it was this campaign's file, created and killed before the
    /// header write completed.
    pub fn open(path: &Path, header: CheckpointHeader) -> Result<CheckpointStore, CheckpointError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let scan = scan(path, &bytes);
        let corrupt = |line: usize, reason: &str| CheckpointError::Corrupt {
            path: path.to_path_buf(),
            line,
            reason: reason.to_string(),
        };
        let (valid_len, records, salvage) = match scan.header {
            // Empty, or a torn header. If the bytes are a prefix of the
            // header this campaign would write, the file is provably our
            // own, killed at creation — start it over. Anything else could
            // be someone else's data: refuse to touch it.
            None => {
                let line = format!("{}\n", header.render());
                if !line.as_bytes().starts_with(&bytes) {
                    return Err(corrupt(1, "header line unterminated"));
                }
                file.set_len(0)?;
                file.seek(SeekFrom::Start(0))?;
                file.write_all(line.as_bytes())?;
                let salvage = (!bytes.is_empty()).then(|| SalvageReport {
                    path: path.to_path_buf(),
                    first_bad_line: 1,
                    dropped_records: 0,
                    dropped_bytes: bytes.len() as u64,
                    reason: "header line torn at creation; file restarted".to_string(),
                });
                (line.len(), Vec::new(), salvage)
            }
            Some(found) => {
                let found = CheckpointHeader::parse(found).map_err(|issue| match issue {
                    HeaderIssue::Version(found) => CheckpointError::Version {
                        path: path.to_path_buf(),
                        found,
                        supported: CHECKPOINT_VERSION,
                    },
                    HeaderIssue::Malformed(reason) => corrupt(1, &reason),
                })?;
                if found != header {
                    return Err(CheckpointError::HeaderMismatch {
                        path: path.to_path_buf(),
                        expected: Box::new(header),
                        found: Box::new(found),
                    });
                }
                (scan.valid_len, scan.records, scan.damage)
            }
        };
        file.set_len(valid_len as u64)?;
        file.seek(SeekFrom::End(0))?;
        let lines = records
            .iter()
            .map(|(key, _, line)| (key.clone(), line.to_string()))
            .collect();
        let completed = records
            .into_iter()
            .map(|(key, data, _)| (key, data))
            .collect();
        Ok(CheckpointStore {
            header,
            path: path.to_path_buf(),
            completed,
            salvage,
            writer: Mutex::new(Writer {
                file,
                lines,
                appended: 0,
                storage: StorageFaultPlan::default(),
            }),
            write_error: Mutex::new(None),
        })
    }

    /// The campaign identity this store is bound to.
    pub fn header(&self) -> &CheckpointHeader {
        &self.header
    }

    /// The file this store reads and appends.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Rows loaded from the file at open (completed before this run).
    pub fn recovered(&self) -> usize {
        self.completed.len()
    }

    /// What the salvaging open discarded, if the file was damaged.
    pub fn salvage(&self) -> Option<&SalvageReport> {
        self.salvage.as_ref()
    }

    /// Arms the seeded storage-fault schedule of this file: with
    /// probability `permille`/1000 one of the next few [`Self::record`]
    /// calls injects a short write, an `ENOSPC` or a bit flip instead of /
    /// on top of the real write. The schedule derives from `seed` and the
    /// file's name, so every shard file (and the merged base) draws
    /// independently. Drills the salvage, latch, and fsck paths.
    pub fn arm_storage_faults(&self, seed: u64, permille: u32) {
        let scope = self.path.file_name().map_or_else(
            || self.path.to_string_lossy(),
            |name| name.to_string_lossy(),
        );
        self.writer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .storage = StorageFaultPlan::derive(seed, permille, &scope);
    }

    /// Looks up the saved result of `chip` in `stage`, if it completed in
    /// an earlier run.
    pub fn lookup(&self, stage: &str, chip: &str) -> Option<&JsonValue> {
        self.completed.get(&(stage.to_string(), chip.to_string()))
    }

    /// All rows recovered at open, sorted by `(stage, chip)` — the
    /// deterministic order the shard coordinator merges in. Rows appended
    /// by [`Self::record`] since open are on disk but not in this view;
    /// the merge always works from freshly opened stores.
    pub fn sorted_rows(&self) -> Vec<(&str, &str, &JsonValue)> {
        let mut rows: Vec<(&str, &str, &JsonValue)> = self
            .completed
            .iter()
            .map(|((stage, chip), data)| (stage.as_str(), chip.as_str(), data))
            .collect();
        rows.sort_unstable_by_key(|&(stage, chip, _)| (stage, chip));
        rows
    }

    /// Appends a completed chip's result row and flushes it. `data` must be
    /// a rendered JSON value (use `pud-observe`'s writers). Safe to call
    /// from parallel sweep workers; whole lines are written under one lock,
    /// so rows never interleave.
    ///
    /// I/O failures do not panic and do not abort the sweep: the first one
    /// is latched (later records become no-ops, keeping the file's valid
    /// prefix intact) and reported through [`Self::take_write_error`]. The
    /// run's in-memory results are unaffected — only resumability is lost.
    pub fn record(&self, stage: &str, chip: &str, data: &str) {
        let framed = record_line(stage, chip, data);
        // `unwrap_or_else(into_inner)`: a panicking writer (e.g. a
        // cancellation unwinding through a worker mid-record) must not turn
        // every later record into a second panic.
        let mut error = self.write_error.lock().unwrap_or_else(|e| e.into_inner());
        if error.is_some() {
            return;
        }
        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let ordinal = writer.appended;
        writer.appended += 1;
        let mut line = format!("{framed}\n").into_bytes();
        match writer
            .storage
            .fault_at(ordinal)
            .map(|f| (f.kind, f.bit_draw))
        {
            Some((StorageFaultKind::NoSpace, _)) => {
                *error = Some(WriteFailure {
                    path: self.path.clone(),
                    kind: WriteFailureKind::NoSpace,
                    source: std::io::Error::from_raw_os_error(28),
                });
                return;
            }
            Some((StorageFaultKind::ShortWrite, _)) => {
                // Tear the record: only the first half of the line reaches
                // the file, exactly the shape a power cut leaves. The torn
                // tail exercises salvage on the next open.
                let cut = line.len() / 2;
                let result = writer
                    .file
                    .write_all(&line[..cut])
                    .and_then(|()| writer.file.flush());
                *error = Some(match result {
                    Ok(()) => WriteFailure {
                        path: self.path.clone(),
                        kind: WriteFailureKind::ShortWrite,
                        source: std::io::Error::new(
                            ErrorKind::WriteZero,
                            format!("injected short write: {cut} of {} bytes", line.len()),
                        ),
                    },
                    Err(e) => WriteFailure::classify(self.path.clone(), e),
                });
                return;
            }
            Some((StorageFaultKind::BitCorrupt, bit_draw)) => {
                // Flip one deterministic bit in the framed line (never the
                // newline). The write itself succeeds and nothing latches —
                // only the CRC frame can catch this, at the next open,
                // merge, or fsck.
                let idx = (bit_draw as usize) % (line.len() - 1);
                line[idx] ^= 1 << ((bit_draw >> 32) % 8);
            }
            None => {}
        }
        let result = writer
            .file
            .write_all(&line)
            .and_then(|()| writer.file.flush());
        match result {
            // The in-memory copy keeps the corrupted bytes too: a commit
            // barrier must not silently heal what the media damaged.
            Ok(()) => {
                let written = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                writer
                    .lines
                    .push(((stage.to_string(), chip.to_string()), written));
            }
            Err(e) => *error = Some(WriteFailure::classify(self.path.clone(), e)),
        }
    }

    /// Atomically commits everything recorded so far: header + records,
    /// stable-sorted by `(stage, chip)`, are rewritten through
    /// [`write_image`]. After it returns, every recorded row survives power
    /// loss — the append path alone only guarantees surviving process
    /// death — and the file's bytes no longer depend on the order units
    /// completed in. Called at sweep barriers and before a shard worker
    /// reports `Done`.
    ///
    /// Failures latch like append failures (no panic mid-campaign); a
    /// latched store skips the commit entirely, leaving the append-side
    /// file untouched for post-mortem.
    pub fn commit(&self) {
        let mut error = self.write_error.lock().unwrap_or_else(|e| e.into_inner());
        if error.is_some() {
            return;
        }
        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        writer.lines.sort_by(|a, b| a.0.cmp(&b.0));
        let lines = writer.lines.iter().map(|(_, line)| line.as_str());
        match write_image(&self.path, &self.header, lines) {
            // The handle followed the rename (same inode) and sits at end of
            // file: appends continue against the committed image.
            Ok(file) => writer.file = file,
            Err(e) => *error = Some(WriteFailure::classify(self.path.clone(), e)),
        }
    }

    /// Takes the first append/commit failure, if any occurred (see
    /// [`Self::record`]). The CLI calls this once after a run to turn a
    /// silently degraded checkpoint into a hard, typed error naming the
    /// offending path.
    pub fn take_write_error(&self) -> Option<WriteFailure> {
        self.write_error
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
    }
}

/// Encoding of one per-unit result as a checkpoint `data` value.
///
/// Every experiment driver's resumable unit result implements this, which
/// is what lets [`crate::experiments::resume_or_run`] transparently record
/// and replay any driver's rows. Two invariants matter:
///
/// - **Round-trip exactness.** `decode(parse(encode(x))) == x`, bit for
///   bit — the byte-identical-resume guarantee rests on it. Floats are
///   therefore encoded as their IEEE-754 bit patterns (`f64::to_bits`),
///   not as decimal literals: sentinel values like `f64::INFINITY` have
///   no JSON number representation at all.
/// - **Self-description is not a goal.** Rows are compact positional
///   arrays; the header binds the file to one campaign and code version,
///   so field names would be dead weight on a hot flush path.
///
/// Table 2's rows are the exception: named fields, decimal (finite) floats.
pub(crate) trait Codec: Sized {
    /// Renders the value as a raw JSON fragment.
    fn encode(&self) -> String;
    /// Parses a value back; `None` marks a row this build cannot replay.
    fn decode(v: &JsonValue) -> Option<Self>;
}

impl Codec for u64 {
    fn encode(&self) -> String {
        self.to_string()
    }

    fn decode(v: &JsonValue) -> Option<u64> {
        v.as_u64()
    }
}

impl Codec for f64 {
    fn encode(&self) -> String {
        self.to_bits().to_string()
    }

    fn decode(v: &JsonValue) -> Option<f64> {
        v.as_u64().map(f64::from_bits)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self) -> String {
        match self {
            Some(value) => value.encode(),
            None => "null".to_string(),
        }
    }

    fn decode(v: &JsonValue) -> Option<Option<T>> {
        match v {
            JsonValue::Null => Some(None),
            other => T::decode(other).map(Some),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self) -> String {
        let mut arr = JsonArray::new();
        for item in self {
            arr = arr.raw(&item.encode());
        }
        arr.finish()
    }

    fn decode(v: &JsonValue) -> Option<Vec<T>> {
        v.as_arr()?.iter().map(T::decode).collect()
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self) -> String {
        JsonArray::new()
            .raw(&self.0.encode())
            .raw(&self.1.encode())
            .finish()
    }

    fn decode(v: &JsonValue) -> Option<(A, B)> {
        match v.as_arr()? {
            [a, b] => Some((A::decode(a)?, B::decode(b)?)),
            _ => None,
        }
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode(&self) -> String {
        JsonArray::new()
            .raw(&self.0.encode())
            .raw(&self.1.encode())
            .raw(&self.2.encode())
            .finish()
    }

    fn decode(v: &JsonValue) -> Option<(A, B, C)> {
        match v.as_arr()? {
            [a, b, c] => Some((A::decode(a)?, B::decode(b)?, C::decode(c)?)),
            _ => None,
        }
    }
}

/// Per-driver checkpoint context: the open store plus a deterministic
/// stage-name allocator.
///
/// A driver calls [`RunCtx::next_stage`] once per fleet sweep, in code
/// order, yielding `"{prefix}.s0"`, `"{prefix}.s1"`, … — the same
/// sequence on every run of the same build, which is what lets a resumed
/// run match its sweeps back to the recorded rows without any
/// driver-specific naming. The prefix is the repro target name, so one
/// store can host a whole `repro all` campaign without stage collisions.
pub(crate) struct RunCtx<'a> {
    store: &'a CheckpointStore,
    prefix: &'static str,
    stage: Cell<u32>,
}

impl<'a> RunCtx<'a> {
    /// Binds a driver (by its stage `prefix`) to an open store.
    pub(crate) fn new(store: &'a CheckpointStore, prefix: &'static str) -> RunCtx<'a> {
        RunCtx {
            store,
            prefix,
            stage: Cell::new(0),
        }
    }

    /// The underlying store.
    pub(crate) fn store(&self) -> &'a CheckpointStore {
        self.store
    }

    /// Allocates the next stage name in code order.
    pub(crate) fn next_stage(&self) -> String {
        let n = self.stage.get();
        self.stage.set(n + 1);
        format!("{}.s{n}", self.prefix)
    }
}

/// Renders one record line (no newline): the `{"stage","chip","data"}`
/// payload in its CRC32 frame, `{"crc":"<8 hex>","rec":<payload>}`.
/// [`unframe_record`] and [`parse_record`] read it back.
pub(crate) fn record_line(stage: &str, chip: &str, data: &str) -> String {
    let payload = JsonObject::new()
        .str("stage", stage)
        .str("chip", chip)
        .raw("data", data)
        .finish();
    format!(
        "{FRAME_PREFIX}{:08x}{FRAME_MID}{payload}}}",
        crc32(payload.as_bytes())
    )
}

/// Parses a record payload (as [`unframe_record`] returns it) into its
/// stage, chip and `data` value.
pub(crate) fn parse_record(line: &str) -> Result<(String, String, JsonValue), String> {
    let v = JsonValue::parse(line)?;
    let stage = v
        .get("stage")
        .and_then(JsonValue::as_str)
        .ok_or("record missing stage")?
        .to_string();
    let chip = v
        .get("chip")
        .and_then(JsonValue::as_str)
        .ok_or("record missing chip")?
        .to_string();
    let data = v.get("data").ok_or("record missing data")?.clone();
    Ok((stage, chip, data))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> CheckpointHeader {
        CheckpointHeader {
            target: "table2".to_string(),
            scale: "quick".to_string(),
            fingerprint: 0xABCD_EF01_2345_6789,
            fault_seed: Some(7),
            shard: None,
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pud-ckpt-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn fresh_checkpoint_round_trips_records() {
        let path = temp_path("fresh");
        let _ = std::fs::remove_file(&path);
        {
            let store = CheckpointStore::open(&path, header()).expect("create");
            assert_eq!(store.recovered(), 0);
            store.record("rh", "A#0", "{\"hc\":12345,\"region\":\"begin\"}");
            store.record("rh", "B#0", "null");
            assert!(store.take_write_error().is_none());
        }
        let store = CheckpointStore::open(&path, header()).expect("reopen");
        assert_eq!(store.recovered(), 2);
        let data = store.lookup("rh", "A#0").expect("saved row");
        assert_eq!(data.get("hc").and_then(JsonValue::as_u64), Some(12345));
        assert_eq!(data.render(), "{\"hc\":12345,\"region\":\"begin\"}");
        assert_eq!(store.lookup("rh", "C#0"), None);
        assert_eq!(store.lookup("other", "A#0"), None);
        assert_eq!(store.lookup("rh", "B#0"), Some(&JsonValue::Null));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatched_header_is_rejected_with_a_clear_error() {
        let path = temp_path("mismatch");
        let _ = std::fs::remove_file(&path);
        CheckpointStore::open(&path, header()).expect("create");
        let mut other = header();
        other.fingerprint ^= 1;
        let err = CheckpointStore::open(&path, other).expect_err("must reject");
        let msg = err.to_string();
        assert!(msg.contains("different campaign"), "{msg}");
        assert!(msg.contains("table2"), "{msg}");
        let mut other = header();
        other.target = "fig4".to_string();
        assert!(CheckpointStore::open(&path, other).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shard_slots_round_trip_and_gate_reopen() {
        let path = temp_path("shard-slot");
        let _ = std::fs::remove_file(&path);
        let mut sharded = header();
        sharded.shard = Some(ShardSlot {
            index: 1,
            count: 4,
            chip_lo: 4,
            chip_hi: 8,
        });
        CheckpointStore::open(&path, sharded.clone()).expect("create");
        // Same slot reopens; a different slot (or no slot) is rejected.
        let store = CheckpointStore::open(&path, sharded.clone()).expect("reopen");
        assert_eq!(store.header().shard.unwrap().chip_hi, 8);
        let mut other = sharded.clone();
        other.shard.as_mut().unwrap().index = 2;
        assert!(matches!(
            CheckpointStore::open(&path, other),
            Err(CheckpointError::HeaderMismatch { .. })
        ));
        assert!(matches!(
            CheckpointStore::open(&path, header()),
            Err(CheckpointError::HeaderMismatch { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unshared_headers_render_without_a_shard_field() {
        // Pre-sharding files carried no shard key; whole-campaign files
        // must keep rendering byte-identically to them.
        assert!(!header().render().contains("shard"));
    }

    #[test]
    fn foreign_schema_version_is_a_typed_error() {
        let path = temp_path("version");
        let _ = std::fs::remove_file(&path);
        let line = header()
            .render()
            .replace("\"version\":2", "\"version\":999");
        assert_ne!(line, header().render(), "replacement must hit");
        std::fs::write(&path, format!("{line}\n")).expect("write");
        let err = CheckpointStore::open(&path, header()).expect_err("must reject");
        assert!(
            matches!(
                err,
                CheckpointError::Version {
                    found: 999,
                    supported: CHECKPOINT_VERSION,
                    ..
                }
            ),
            "{err}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sorted_rows_are_deterministic() {
        let path = temp_path("sorted");
        let _ = std::fs::remove_file(&path);
        {
            let store = CheckpointStore::open(&path, header()).expect("create");
            store.record("s1", "B#0", "2");
            store.record("s0", "B#0", "1");
            store.record("s0", "A#0", "0");
        }
        // `sorted_rows` serves the merge, which always reopens the file.
        let store = CheckpointStore::open(&path, header()).expect("reopen");
        let rows: Vec<(String, String)> = store
            .sorted_rows()
            .into_iter()
            .map(|(s, c, _)| (s.to_string(), c.to_string()))
            .collect();
        assert_eq!(
            rows,
            vec![
                ("s0".to_string(), "A#0".to_string()),
                ("s0".to_string(), "B#0".to_string()),
                ("s1".to_string(), "B#0".to_string()),
            ]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_trailing_line_is_dropped_and_the_file_repaired() {
        let path = temp_path("truncated");
        let _ = std::fs::remove_file(&path);
        {
            let store = CheckpointStore::open(&path, header()).expect("create");
            store.record("rh", "A#0", "{\"hc\":1}");
            store.record("rh", "B#0", "{\"hc\":2}");
        }
        // Simulate a kill mid-write: chop the last record in half.
        let content = std::fs::read_to_string(&path).expect("read");
        std::fs::write(&path, &content[..content.len() - 7]).expect("truncate");
        {
            let store = CheckpointStore::open(&path, header()).expect("repair");
            assert_eq!(store.recovered(), 1, "partial row dropped");
            assert!(store.lookup("rh", "A#0").is_some());
            assert!(store.lookup("rh", "B#0").is_none());
            let report = store.salvage().expect("torn tail reported");
            assert_eq!(report.first_bad_line, 3);
            assert_eq!(report.dropped_records, 1);
            assert!(report.reason.contains("torn write"), "{report}");
            store.record("rh", "B#0", "{\"hc\":2}");
        }
        let store = CheckpointStore::open(&path, header()).expect("reopen");
        assert_eq!(store.recovered(), 2);
        assert!(store.salvage().is_none(), "repaired file reopens clean");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mid_file_corruption_salvages_the_intact_prefix() {
        let path = temp_path("corrupt");
        let _ = std::fs::remove_file(&path);
        {
            let store = CheckpointStore::open(&path, header()).expect("create");
            store.record("rh", "A#0", "{\"hc\":1}");
        }
        // Damage line 3, then append a line that *looks* valid after it:
        // prefix salvage must drop both — nothing after the first damaged
        // line is trusted.
        let mut content = std::fs::read_to_string(&path).expect("read");
        let good_len = content.len();
        content.push_str("not json at all\n");
        content.push_str(&record_line("rh", "B#0", "{\"hc\":2}"));
        content.push('\n');
        std::fs::write(&path, content).expect("write");
        let store = CheckpointStore::open(&path, header()).expect("salvage, not reject");
        assert_eq!(store.recovered(), 1, "intact prefix kept");
        assert!(store.lookup("rh", "A#0").is_some());
        assert!(
            store.lookup("rh", "B#0").is_none(),
            "rows after the damage are dropped, not silently trusted"
        );
        let report = store.salvage().expect("salvage reported");
        assert_eq!(report.first_bad_line, 3);
        assert_eq!(report.dropped_records, 2);
        drop(store);
        assert_eq!(
            std::fs::read_to_string(&path).expect("reread").len(),
            good_len,
            "the file is truncated back to the intact prefix"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_flipped_bit_fails_the_crc_and_salvages() {
        let path = temp_path("bitflip");
        let _ = std::fs::remove_file(&path);
        {
            let store = CheckpointStore::open(&path, header()).expect("create");
            store.record("rh", "A#0", "{\"hc\":1}");
            store.record("rh", "B#0", "{\"hc\":2}");
        }
        let mut bytes = std::fs::read(&path).expect("read");
        // Flip one bit inside the *second* record's payload digits: the
        // line still parses as JSON, so only the CRC can catch it.
        let target = bytes.len() - 5;
        assert_eq!(bytes[target], b'2', "aiming at the hc value digit");
        bytes[target] ^= 0x01;
        std::fs::write(&path, &bytes).expect("write");
        let store = CheckpointStore::open(&path, header()).expect("salvage");
        assert_eq!(store.recovered(), 1);
        assert!(store.lookup("rh", "B#0").is_none(), "corrupt row dropped");
        let report = store.salvage().expect("salvage reported");
        assert!(report.reason.contains("crc mismatch"), "{report}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_checkpoint_files_are_rejected() {
        let path = temp_path("alien");
        std::fs::write(&path, "{\"some\":\"other json\"}\n").expect("write");
        let err = CheckpointStore::open(&path, header()).expect_err("must reject");
        assert!(
            matches!(err, CheckpointError::Corrupt { line: 1, .. }),
            "{err}"
        );
        let _ = std::fs::remove_file(&path);
    }

    fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(value: T) {
        let encoded = value.encode();
        let parsed = JsonValue::parse(&encoded).expect("encoded fragment parses");
        assert_eq!(T::decode(&parsed).as_ref(), Some(&value), "{encoded}");
    }

    #[test]
    fn codec_round_trips_are_bit_exact() {
        round_trip(0u64);
        round_trip(u64::MAX);
        round_trip(1.5f64);
        round_trip(-0.0f64);
        // The sentinel that rules out decimal float encoding: infinity has
        // no JSON number representation, but its bit pattern is just a u64.
        round_trip(f64::INFINITY);
        round_trip(f64::NEG_INFINITY);
        round_trip(0.1f64 + 0.2f64);
        round_trip(Option::<u64>::None);
        round_trip(Some(7u64));
        round_trip(Vec::<f64>::new());
        round_trip(vec![1.0f64, f64::INFINITY, 3.25]);
        round_trip((vec![1.0f64], 2.5f64, f64::INFINITY));
        round_trip((vec![vec![1u64]], vec![0.5f64]));
    }

    #[test]
    fn crc32_matches_the_standard_check_value() {
        // The universal CRC32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_frames_round_trip_and_reject_tampering() {
        let payload = "{\"stage\":\"rh\",\"chip\":\"A#0\",\"data\":7}";
        let framed = record_line("rh", "A#0", "7");
        assert_eq!(unframe_record(&framed).expect("round trip"), payload);
        // Tamper with the payload: crc mismatch.
        let tampered = framed.replace("\"data\":7", "\"data\":8");
        assert!(unframe_record(&tampered)
            .expect_err("must reject")
            .contains("crc mismatch"));
        // Tamper with the digest: crc mismatch too.
        let bad_digest = format!(
            "{FRAME_PREFIX}00000000{}",
            &framed[FRAME_PREFIX.len() + 8..]
        );
        assert!(unframe_record(&bad_digest).is_err());
        // Structural damage: malformed framing, not a panic.
        assert!(unframe_record("{\"other\":1}").is_err());
        assert!(unframe_record("").is_err());
        assert!(unframe_record("{\"crc\":\"zz").is_err());
    }

    #[test]
    fn commit_is_atomic_and_byte_identical_to_the_append_stream() {
        let path = temp_path("commit");
        let _ = std::fs::remove_file(&path);
        {
            let store = CheckpointStore::open(&path, header()).expect("create");
            store.record("rh", "A#0", "{\"hc\":1}");
            store.record("rh", "B#0", "{\"hc\":2}");
            let appended = std::fs::read(&path).expect("read appended image");
            store.commit();
            assert!(store.take_write_error().is_none(), "commit must succeed");
            let committed = std::fs::read(&path).expect("read committed image");
            assert_eq!(
                appended, committed,
                "commit rewrites the exact bytes the append path produced"
            );
            // No temp file left behind, and appends keep working after the
            // writer handle followed the rename.
            assert!(!commit_tmp_path(&path).exists());
            store.record("rh", "C#0", "{\"hc\":3}");
        }
        let store = CheckpointStore::open(&path, header()).expect("reopen");
        assert_eq!(store.recovered(), 3, "post-commit appends land after it");
        // A resumed store commits recovered + fresh rows together.
        store.record("rh", "D#0", "{\"hc\":4}");
        store.commit();
        assert!(store.take_write_error().is_none());
        drop(store);
        let store = CheckpointStore::open(&path, header()).expect("final reopen");
        assert_eq!(store.recovered(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_torn_header_of_our_own_campaign_restarts_the_file() {
        let path = temp_path("torn-header");
        let _ = std::fs::remove_file(&path);
        // Our own header, torn mid-write (no newline, byte prefix).
        let full = header().render();
        std::fs::write(&path, &full[..full.len() / 2]).expect("write torn header");
        let store = CheckpointStore::open(&path, header()).expect("restart");
        assert_eq!(store.recovered(), 0);
        let report = store.salvage().expect("restart reported");
        assert!(report.reason.contains("torn at creation"), "{report}");
        drop(store);
        // A torn header that is NOT ours stays a hard error.
        std::fs::write(&path, "{\"kind\":\"something-else").expect("write alien");
        assert!(matches!(
            CheckpointStore::open(&path, header()),
            Err(CheckpointError::Corrupt { line: 1, .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    /// Arms `store` with the first seed whose schedule for its file lands
    /// on the wanted (kind, ordinal) — keeps these tests independent of
    /// draw details.
    fn arm_with(store: &CheckpointStore, kind: StorageFaultKind, at_record: u64) {
        let scope = store
            .path()
            .file_name()
            .expect("file name")
            .to_string_lossy();
        let seed = (0..50_000u64)
            .find(|&seed| {
                StorageFaultPlan::derive(seed, 1000, &scope)
                    .fault_at(at_record)
                    .is_some_and(|f| f.kind == kind)
            })
            .unwrap_or_else(|| panic!("no seed lands {kind:?} at record {at_record}"));
        store.arm_storage_faults(seed, 1000);
    }

    #[test]
    fn injected_enospc_latches_a_typed_failure_and_writes_nothing() {
        let path = temp_path("inj-enospc");
        let _ = std::fs::remove_file(&path);
        let store = CheckpointStore::open(&path, header()).expect("create");
        arm_with(&store, StorageFaultKind::NoSpace, 1);
        store.record("rh", "A#0", "1");
        let before = std::fs::read(&path).expect("read");
        store.record("rh", "B#0", "2");
        let failure = store.take_write_error().expect("latched");
        assert_eq!(failure.kind, WriteFailureKind::NoSpace);
        assert_eq!(failure.path, path);
        assert!(failure.to_string().contains("no space"), "{failure}");
        assert_eq!(std::fs::read(&path).expect("reread"), before);
        drop(store);
        let store = CheckpointStore::open(&path, header()).expect("reopen");
        assert_eq!(store.recovered(), 1);
        assert!(store.salvage().is_none(), "nothing was torn");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_short_write_tears_the_tail_and_salvage_recovers() {
        let path = temp_path("inj-short");
        let _ = std::fs::remove_file(&path);
        let store = CheckpointStore::open(&path, header()).expect("create");
        arm_with(&store, StorageFaultKind::ShortWrite, 1);
        store.record("rh", "A#0", "1");
        store.record("rh", "B#0", "2");
        let failure = store.take_write_error().expect("latched");
        assert_eq!(failure.kind, WriteFailureKind::ShortWrite);
        drop(store);
        let store = CheckpointStore::open(&path, header()).expect("salvage");
        assert_eq!(store.recovered(), 1, "only the intact record survives");
        assert!(store.salvage().expect("torn tail").reason.contains("torn"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_bit_corruption_is_silent_until_the_crc_catches_it() {
        let path = temp_path("inj-bit");
        let _ = std::fs::remove_file(&path);
        let store = CheckpointStore::open(&path, header()).expect("create");
        arm_with(&store, StorageFaultKind::BitCorrupt, 1);
        store.record("rh", "A#0", "1");
        store.record("rh", "B#0", "2");
        store.record("rh", "C#0", "3");
        assert!(
            store.take_write_error().is_none(),
            "bit corruption must NOT latch — that is the whole point"
        );
        drop(store);
        let store = CheckpointStore::open(&path, header()).expect("salvage");
        assert_eq!(store.recovered(), 1, "prefix before the corrupt row");
        let report = store.salvage().expect("crc caught it");
        assert_eq!(report.first_bad_line, 3);
        // The flip may turn a byte into '\n' and split the line, so the
        // dropped segment count is at least the two damaged-or-later rows.
        assert!(report.dropped_records >= 2, "{report}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn commit_writes_records_sorted_by_stage_and_chip() {
        let path = temp_path("commit-sorted");
        let _ = std::fs::remove_file(&path);
        let store = CheckpointStore::open(&path, header()).expect("create");
        for (stage, chip) in [
            ("rh", "B#0"),
            ("rh", "A#1"),
            ("rh", "A#0"),
            ("comra", "C#0"),
        ] {
            store.record(stage, chip, "1");
        }
        store.commit();
        assert!(store.take_write_error().is_none(), "commit must succeed");
        let bytes = std::fs::read(&path).expect("read");
        let scan = scan(&path, &bytes);
        assert!(scan.damage.is_none(), "committed image verifies");
        let keys: Vec<(String, String)> = scan.records.into_iter().map(|(key, ..)| key).collect();
        let want = [
            ("comra", "C#0"),
            ("rh", "A#0"),
            ("rh", "A#1"),
            ("rh", "B#0"),
        ];
        assert_eq!(keys, want.map(|(s, c)| (s.to_string(), c.to_string())));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn storage_plans_are_deterministic_and_scoped_per_file() {
        let a = StorageFaultPlan::derive(7, 1000, "run.jsonl.shard0of2");
        let b = StorageFaultPlan::derive(7, 1000, "run.jsonl.shard0of2");
        assert_eq!(a, b, "same (seed, scope) must draw the same schedule");
        assert!(a.fault.is_some(), "permille 1000 always fires");
        let fault = (0..4).find_map(|n| a.fault_at(n)).expect("early ordinal");
        assert_eq!(a.fault_at(fault.at_record), Some(fault));
        assert_eq!(a.fault_at(fault.at_record + 1), None, "one fault per file");
        // Different scopes decorrelate (kind or ordinal differs for at
        // least one of a handful of sibling shard names).
        let siblings: Vec<StorageFaultPlan> = (0..6)
            .map(|i| StorageFaultPlan::derive(7, 1000, &format!("run.jsonl.shard{i}of6")))
            .collect();
        assert!(
            siblings.iter().any(|s| s != &a),
            "six sibling files should not all share one schedule: {siblings:?}"
        );
        assert_eq!(StorageFaultPlan::derive(7, 0, "run.jsonl").fault, None);
    }

    #[test]
    fn storage_schedules_are_pinned() {
        // (seed, scope) → (kind, at_record, bit_draw) at permille 1000:
        // a campaign's base file and both shard files of a two-shard run.
        use StorageFaultKind::{BitCorrupt, NoSpace, ShortWrite};
        let expected = [
            (7, "run.jsonl", ShortWrite, 2, 16_743_231_883_656_479_865),
            (
                7,
                "run.jsonl.shard0of2",
                BitCorrupt,
                0,
                13_769_579_943_151_366_019,
            ),
            (
                7,
                "run.jsonl.shard1of2",
                BitCorrupt,
                3,
                15_595_405_130_887_084_863,
            ),
            (103, "run.jsonl", BitCorrupt, 3, 9_439_532_319_389_386_939),
            (
                103,
                "run.jsonl.shard0of2",
                NoSpace,
                1,
                7_089_452_195_288_991_329,
            ),
            (
                103,
                "run.jsonl.shard1of2",
                BitCorrupt,
                1,
                12_771_254_224_447_179_720,
            ),
            (
                0xDEAD_BEEF,
                "run.jsonl",
                NoSpace,
                3,
                11_244_540_903_577_905_467,
            ),
            (
                0xDEAD_BEEF,
                "run.jsonl.shard0of2",
                BitCorrupt,
                2,
                4_935_622_907_794_680_231,
            ),
            (
                0xDEAD_BEEF,
                "run.jsonl.shard1of2",
                ShortWrite,
                1,
                13_354_676_477_786_074_816,
            ),
        ];
        for (seed, scope, kind, at_record, bit_draw) in expected {
            let plan = StorageFaultPlan::derive(seed, 1000, scope);
            assert_eq!(
                plan.fault,
                Some(StorageFault {
                    at_record,
                    kind,
                    bit_draw
                }),
                "seed {seed} scope {scope}"
            );
        }
    }

    #[test]
    fn record_writes_a_pinned_framed_line() {
        // The exact bytes of one appended record, CRC digest included: a
        // resume of a file written by an earlier build depends on them.
        let path = temp_path("pinned-line");
        let _ = std::fs::remove_file(&path);
        let store = CheckpointStore::open(&path, header()).expect("create");
        store.record("fig4.s0", "SKHynix-A-8Gb#0", "[[3,1,77,0,null]]");
        drop(store);
        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(
            text.lines().nth(1),
            Some(PINNED_LINE),
            "framed record bytes changed"
        );
        let _ = std::fs::remove_file(&path);
    }

    const PINNED_LINE: &str = "{\"crc\":\"85b7758c\",\"rec\":{\"stage\":\"fig4.s0\",\
        \"chip\":\"SKHynix-A-8Gb#0\",\"data\":[[3,1,77,0,null]]}}";

    #[test]
    fn run_ctx_allocates_stage_names_in_code_order() {
        let path = temp_path("runctx");
        let _ = std::fs::remove_file(&path);
        let store = CheckpointStore::open(&path, header()).expect("create");
        let ctx = RunCtx::new(&store, "fig6");
        assert_eq!(ctx.next_stage(), "fig6.s0");
        assert_eq!(ctx.next_stage(), "fig6.s1");
        assert_eq!(ctx.next_stage(), "fig6.s2");
        let again = RunCtx::new(ctx.store(), "fig6");
        assert_eq!(again.next_stage(), "fig6.s0", "fresh ctx restarts");
        let _ = std::fs::remove_file(&path);
    }
}
