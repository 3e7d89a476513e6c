//! `repro fsck <checkpoint> [--repair]`: offline checkpoint verification
//! and repair (see `pudhammer::fleet::fsck`).

use std::process::ExitCode;

use crate::cli::{self, Args, Sub};

/// Exit `0` when every discovered file is usable as it stands (clean, or
/// damage repaired), `40` when damage remains on disk, `1` on usage or
/// filesystem errors.
pub fn fsck_main(args: &[String]) -> ExitCode {
    let args = match Args::parse(Sub::Fsck, args) {
        Ok(args) => args,
        Err(e) => return cli::usage_error(&e),
    };
    let Some(path) = args.positional.as_deref() else {
        return cli::usage_error("fsck requires a checkpoint path");
    };
    let repair = args.on(&cli::REPAIR);
    let report = match pudhammer::fleet::fsck::fsck(std::path::Path::new(path), repair) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: fsck {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if report.files.is_empty() {
        eprintln!("error: no checkpoint found at {path}");
        return ExitCode::FAILURE;
    }
    for f in &report.files {
        println!("fsck: {}: {}", f.path.display(), f.status);
    }
    for tmp in &report.stale_tmp {
        println!(
            "fsck: {}: stale commit staging file{}",
            tmp.display(),
            if repair { " (removed)" } else { "" }
        );
    }
    if report.healthy() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(40)
    }
}
