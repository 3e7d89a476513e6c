//! Fixed-seed corruption fuzz for the checkpoint durability layer.
//!
//! Every case takes a pristine CRC32-framed checkpoint file, applies one
//! seeded mutation — a flipped byte, a truncation, or an overwritten
//! span — and asserts the two invariants the whole durability story
//! rests on:
//!
//! 1. **Salvage-or-clean-reject.** [`CheckpointStore::open`] on the
//!    mutated file either succeeds with *only* rows byte-equal to the
//!    pristine data for their key (a salvaged prefix — a subset, never
//!    an invention), or fails with a typed error. It never panics and
//!    never serves silently wrong data.
//! 2. **fsck agrees with resume.** `fsck --repair` on the same mutated
//!    bytes leaves a file that `open` accepts whenever fsck called it
//!    healthy, and `open` rejects whenever fsck reported unrepairable
//!    header damage.
//! 3. **Resume keeps what fsck keeps.** On the *unrepaired* mutated file,
//!    whenever fsck calls it clean or tail-damaged and its header is this
//!    campaign's, `open` succeeds and recovers exactly the records fsck
//!    kept: both verify through one scanner, so no damage (a non-UTF-8
//!    byte included) can make them disagree.
//!
//! The mutation schedule is derived from a fixed seed through the same
//! SplitMix64 mixer the fault-injection layer uses, so a failure here is
//! a deterministic, single-command repro: `cargo test -p pudhammer
//! --test checkpoint_corruption`.

use std::collections::HashMap;
use std::path::PathBuf;

use pud_disturb::rng::mix_all;
use pudhammer::fleet::checkpoint::{CheckpointHeader, CheckpointStore};
use pudhammer::fleet::fsck::{self, FileStatus};

const FUZZ_SEED: u64 = 0x00D5_7AB1_E0C4_2C1A;
const CASES: u64 = 300;

fn header() -> CheckpointHeader {
    CheckpointHeader {
        target: "table2".to_string(),
        scale: "quick".to_string(),
        fingerprint: 0x5EED_F00D_CAFE_0001,
        fault_seed: Some(42),
        shard: None,
    }
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pud-fuzz-{name}-{}", std::process::id()));
    p
}

/// Builds the pristine file and returns its bytes plus the key→data map
/// every salvaged row must agree with.
fn pristine(path: &PathBuf) -> (Vec<u8>, HashMap<(String, String), String>) {
    let _ = std::fs::remove_file(path);
    let store = CheckpointStore::open(path, header()).expect("pristine open");
    for i in 0..12u64 {
        store.record(
            &format!("stage{}", i % 3),
            &format!("C#{i}"),
            &format!("[{},{}]", i * 7, i * 11 + 3),
        );
    }
    drop(store);
    let bytes = std::fs::read(path).expect("pristine bytes");
    let store = CheckpointStore::open(path, header()).expect("pristine reopen");
    let truth = store
        .sorted_rows()
        .into_iter()
        .map(|(stage, chip, data)| ((stage.to_string(), chip.to_string()), format!("{data:?}")))
        .collect();
    (bytes, truth)
}

/// One seeded mutation of the pristine bytes. Never returns the pristine
/// bytes unchanged (a no-op case would assert nothing).
fn mutate(case: u64, bytes: &[u8]) -> Vec<u8> {
    let draw = |k: u64| mix_all(&[FUZZ_SEED, case, k]);
    let mut out = bytes.to_vec();
    match draw(0) % 3 {
        0 => {
            // Flip one bit anywhere in the file.
            let at = (draw(1) % out.len() as u64) as usize;
            out[at] ^= 1 << (draw(2) % 8);
        }
        1 => {
            // Truncate, as kill -9 or a torn write would.
            let keep = (draw(1) % out.len() as u64) as usize;
            out.truncate(keep);
        }
        _ => {
            // Overwrite a short span with seeded garbage.
            let at = (draw(1) % out.len() as u64) as usize;
            let len = 1 + (draw(2) % 16) as usize;
            for (j, slot) in out[at..].iter_mut().take(len).enumerate() {
                *slot = (draw(3 + j as u64) % 256) as u8;
            }
        }
    }
    out
}

#[test]
fn mutated_checkpoints_salvage_or_reject_but_never_lie() {
    let base = temp_path("salvage");
    let (bytes, truth) = pristine(&base);
    let victim = temp_path("victim");
    for case in 0..CASES {
        let mutated = mutate(case, &bytes);
        std::fs::write(&victim, &mutated).expect("write mutation");
        match CheckpointStore::open(&victim, header()) {
            Ok(store) => {
                // Salvage may drop rows, never invent or alter them.
                for (stage, chip, data) in store.sorted_rows() {
                    let key = (stage.to_string(), chip.to_string());
                    let Some(expected) = truth.get(&key) else {
                        panic!("case {case}: salvage invented row {key:?}");
                    };
                    assert_eq!(
                        &format!("{data:?}"),
                        expected,
                        "case {case}: salvaged row {key:?} diverged from pristine data"
                    );
                }
            }
            Err(e) => {
                // A typed, printable rejection is the other legal outcome.
                let _ = e.to_string();
            }
        }
    }
    let _ = std::fs::remove_file(&victim);
    let _ = std::fs::remove_file(&base);
}

#[test]
fn fsck_repair_verdicts_match_what_resume_accepts() {
    let base = temp_path("fsck");
    let (bytes, _) = pristine(&base);
    let victim = temp_path("fsck-victim");
    for case in 0..CASES {
        let mutated = mutate(case, &bytes);
        std::fs::write(&victim, &mutated).expect("write mutation");
        let report = fsck::fsck(&victim, true).expect("fsck never errors on damage");
        assert_eq!(report.files.len(), 1, "case {case}");
        let reopen = CheckpointStore::open(&victim, header());
        if report.healthy() {
            // Everything fsck repaired (or passed) must resume cleanly —
            // short of a campaign-identity mismatch, which happens when
            // the mutation rewrote header fields into a *different*
            // well-formed campaign. fsck is offline and cannot know our
            // campaign, so that disagreement is expected and must still
            // be a typed error, not a panic.
            if let Err(e) = reopen {
                let msg = e.to_string();
                assert!(
                    msg.contains("header") || msg.contains("campaign"),
                    "case {case}: fsck-healthy file rejected for a non-header reason: {msg}"
                );
            }
        } else {
            // Unrepairable damage (a mangled header) must not resume as
            // if nothing happened: open may only succeed by *restarting*
            // the file (the torn-own-header rule), i.e. with zero rows.
            if let Ok(store) = reopen {
                assert_eq!(
                    store.recovered(),
                    0,
                    "case {case}: resume recovered rows from a file fsck called unrepairable"
                );
            }
        }
    }
    let _ = std::fs::remove_file(&victim);
    let _ = std::fs::remove_file(&base);
}

#[test]
fn resume_recovers_exactly_the_records_fsck_keeps() {
    let base = temp_path("agree");
    let (bytes, _) = pristine(&base);
    let header_len = bytes.iter().position(|&b| b == b'\n').expect("header") + 1;
    let mut cases: Vec<(String, Vec<u8>)> = (0..CASES)
        .map(|case| (format!("case {case}"), mutate(case, &bytes)))
        .collect();
    // Named case: bit 7 of a byte inside the last record makes that line
    // invalid UTF-8 (the storage drill's bit flip lands there one draw in
    // eight). It must salvage like any other damaged record.
    let last_start = bytes[..bytes.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .expect("record lines")
        + 1;
    let mut high_bit = bytes.clone();
    high_bit[(last_start + bytes.len()) / 2] ^= 0x80;
    cases.push(("high bit in the last record".to_string(), high_bit));
    let victim = temp_path("agree-victim");
    for (name, mutated) in &cases {
        std::fs::write(&victim, mutated).expect("write mutation");
        let report = fsck::fsck(&victim, false).expect("fsck never errors on damage");
        let kept = match report.files[0].status {
            FileStatus::Clean { records } | FileStatus::TailDamage { records, .. } => records,
            _ => continue,
        };
        if mutated.get(..header_len) != Some(&bytes[..header_len]) {
            continue;
        }
        let store = CheckpointStore::open(&victim, header())
            .unwrap_or_else(|e| panic!("{name}: fsck kept {kept} record(s), resume failed: {e}"));
        assert_eq!(store.recovered(), kept, "{name}");
        if name.starts_with("high bit") {
            assert_eq!(kept, 11, "only the last record is dropped");
            let salvage = store.salvage().expect("the damage is reported");
            assert!(salvage.reason.contains("UTF-8"), "{salvage}");
        }
    }
    let _ = std::fs::remove_file(&victim);
    let _ = std::fs::remove_file(&base);
}
