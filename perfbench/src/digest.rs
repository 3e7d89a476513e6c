//! Reference digests of rendered driver outputs.
//!
//! `reference_digests.txt` holds one line per `(scale, fleet seed, target)`:
//! the FNV-1a 64-bit digest of the driver's rendered output, recorded with
//! `perfbench record-refs`. Every campaign run digests each driver's output
//! and compares it against this table.

use std::collections::BTreeMap;

/// The committed reference table, compiled into the binary.
pub const REFERENCE_TABLE: &str = include_str!("../reference_digests.txt");

/// FNV-1a over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Identifies one reference output.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RefKey {
    /// `quick` or `full`.
    pub scale: String,
    /// Fleet seed the campaign ran with.
    pub fleet_seed: u64,
    /// Driver target (`table2`, `fig4`, ...).
    pub target: String,
}

impl RefKey {
    /// A key for `target` at `scale` and `fleet_seed`.
    pub fn new(scale: &str, fleet_seed: u64, target: &str) -> RefKey {
        RefKey {
            scale: scale.to_string(),
            fleet_seed,
            target: target.to_string(),
        }
    }

    /// The reference-table line recording `digest` under this key.
    pub fn line(&self, digest: u64) -> String {
        format!(
            "{} {:#x} {} {:016x}",
            self.scale, self.fleet_seed, self.target, digest
        )
    }
}

/// The parsed reference table.
#[derive(Debug, Clone, Default)]
pub struct References(BTreeMap<RefKey, u64>);

impl References {
    /// Parses the table text; `#` starts a comment line.
    pub fn parse(text: &str) -> Result<References, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("reference line {}: {line:?}", n + 1);
            let f: Vec<&str> = line.split_whitespace().collect();
            let [scale, seed, target, digest] = f[..] else {
                return Err(bad());
            };
            let seed = u64::from_str_radix(seed.trim_start_matches("0x"), 16).map_err(|_| bad())?;
            let digest = u64::from_str_radix(digest, 16).map_err(|_| bad())?;
            map.insert(RefKey::new(scale, seed, target), digest);
        }
        Ok(References(map))
    }

    /// The committed table.
    pub fn committed() -> References {
        References::parse(REFERENCE_TABLE).expect("committed reference table parses")
    }

    /// Checks `rendered` against the reference for `key`; the error names
    /// the mismatch (or the missing reference).
    pub fn check(&self, key: &RefKey, rendered: &str) -> Result<(), String> {
        let got = fnv1a64(rendered.as_bytes());
        match self.0.get(key) {
            Some(&want) if want == got => Ok(()),
            Some(&want) => Err(format!(
                "{} {} seed {:#x}: digest {got:016x}, reference {want:016x}",
                key.scale, key.target, key.fleet_seed
            )),
            None => Err(format!(
                "{} {} seed {:#x}: no reference digest",
                key.scale, key.target, key.fleet_seed
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn digest_check_fails_on_a_one_byte_change() {
        let rendered = "== Table 2 ==\n| fam | 44.0K |\n";
        let key = RefKey::new("quick", 0x5afa11, "table2");
        let refs = References::parse(&key.line(fnv1a64(rendered.as_bytes()))).unwrap();
        assert!(refs.check(&key, rendered).is_ok());
        let mut bytes = rendered.as_bytes().to_vec();
        for i in 0..bytes.len() {
            bytes[i] ^= 1;
            let changed = String::from_utf8_lossy(&bytes).into_owned();
            assert!(refs.check(&key, &changed).is_err(), "byte {i}");
            bytes[i] ^= 1;
        }
        assert!(refs.check(&key, &rendered[..rendered.len() - 1]).is_err());
        assert!(refs
            .check(&RefKey::new("quick", 1, "table2"), rendered)
            .is_err());
    }

    #[test]
    fn committed_table_covers_every_campaign_target() {
        let refs = References::committed();
        for &seed in &crate::FLEET_SEEDS {
            for target in crate::TARGETS {
                assert!(refs.0.contains_key(&RefKey::new("quick", seed, target)));
            }
            assert!(refs.0.contains_key(&RefKey::new("full", seed, "table2")));
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(References::parse("quick 0x1 table2").is_err());
        assert!(References::parse("quick zz table2 00").is_err());
        assert!(References::parse("# comment\n\n").is_ok());
    }
}
