//! Seeded inputs of the `serve_zipf` workload: a finite set of valid
//! profile keys drawn from the Table 2 roster, Zipf-distributed key ranks,
//! and Poisson arrival times, one stream per connection.
//!
//! Everything derives from the workload seed alone; the server receives
//! only the generated keys.

use pud_dram::profiles::TESTED_MODULES;

/// SplitMix64: a small, fast, well-mixed 64-bit generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed` and a stream tag, so that streams
    /// derived from one seed are independent.
    pub fn new(seed: u64, stream: u64) -> SplitMix64 {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Hammering-pattern classes every family supports.
const COMMON_PATTERNS: [&str; 4] = ["rh-ds", "rh-ss", "comra-ds", "comra-ss"];
/// SiMRA classes, generated only for SiMRA-capable families. SiMRA-32 is
/// left out: at quick geometry no 32-row group sandwiches a victim, so the
/// server answers every such key `BadRequest`.
const SIMRA_PATTERNS: [&str; 4] = ["simra-2", "simra-4", "simra-8", "simra-16"];
/// Aggressor data patterns, including the four-pattern WCDP search.
const DATA_PATTERNS: [&str; 5] = ["0x00", "0x55", "0xaa", "0xff", "wcdp"];
/// Test temperatures in centi-Celsius (50 °C and the paper's 80 °C).
const TEMPS_CC: [u32; 2] = [5000, 8000];
/// Chip indices per family.
const CHIPS: u32 = 2;

/// Every key of the roster in a fixed order: family × chip × pattern class
/// × data pattern × temperature, SiMRA classes only for capable families.
pub fn key_space() -> Vec<String> {
    let mut out = Vec::new();
    for profile in &TESTED_MODULES {
        let simra: &[&str] = if profile.supports_simra() {
            &SIMRA_PATTERNS
        } else {
            &[]
        };
        for chip in 0..CHIPS {
            for pattern in COMMON_PATTERNS.iter().chain(simra) {
                for dp in DATA_PATTERNS {
                    for temp in TEMPS_CC {
                        out.push(format!(
                            "family={};chip={chip};pattern={pattern};dp={dp};temp_cc={temp};aggon_ps=0",
                            profile.key()
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Shape of the generated load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSpec {
    /// Distinct keys drawn from [`key_space`].
    pub distinct_keys: usize,
    /// Zipf exponent over key ranks.
    pub zipf_s: f64,
    /// Offered load over all connections, requests per second.
    pub rate_per_s: f64,
    /// Requests per connection.
    pub requests_per_conn: usize,
    /// Connections, each with its own generator thread.
    pub conns: usize,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// When the request is due, in nanoseconds from the start of the load.
    pub due_ns: u64,
    /// Index into [`Load::keys`].
    pub key: usize,
}

/// A generated load: the key set and one arrival stream per connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Load {
    /// Distinct keys, most popular first.
    pub keys: Vec<String>,
    /// Per-connection request streams, each in due-time order.
    pub conns: Vec<Vec<Request>>,
}

/// Generates the load for `seed`: a seeded sample of distinct keys, then
/// per connection Poisson arrivals at `rate / conns` with Zipf-ranked keys.
pub fn generate(seed: u64, spec: &LoadSpec) -> Load {
    let mut space = key_space();
    let mut rng = SplitMix64::new(seed, 1);
    for i in (1..space.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        space.swap(i, j);
    }
    space.truncate(spec.distinct_keys.min(space.len()));
    let cdf = zipf_cdf(space.len(), spec.zipf_s);
    let per_conn_rate = spec.rate_per_s / spec.conns.max(1) as f64;
    let conns = (0..spec.conns)
        .map(|c| {
            let mut rng = SplitMix64::new(seed, 100 + c as u64);
            let mut t = 0.0f64;
            (0..spec.requests_per_conn)
                .map(|_| {
                    // Exponential inter-arrival; 1 - u lies in (0, 1].
                    t += -(1.0 - rng.next_f64()).ln() / per_conn_rate;
                    let u = rng.next_f64();
                    Request {
                        due_ns: (t * 1e9) as u64,
                        key: cdf.partition_point(|&p| p <= u).min(cdf.len() - 1),
                    }
                })
                .collect()
        })
        .collect();
    Load { keys: space, conns }
}

/// Cumulative Zipf distribution over ranks `1..=n` with exponent `s`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: LoadSpec = LoadSpec {
        distinct_keys: 200,
        zipf_s: 1.0,
        rate_per_s: 400.0,
        requests_per_conn: 500,
        conns: 2,
    };

    #[test]
    fn same_seed_gives_identical_key_and_arrival_streams() {
        assert_eq!(generate(7, &SPEC), generate(7, &SPEC));
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let a = generate(7, &SPEC);
        let b = generate(8, &SPEC);
        assert_ne!(a.keys, b.keys);
        for (ca, cb) in a.conns.iter().zip(&b.conns) {
            let due = |c: &[Request]| c.iter().map(|r| r.due_ns).collect::<Vec<_>>();
            let key = |c: &[Request]| c.iter().map(|r| r.key).collect::<Vec<_>>();
            assert_ne!(due(ca), due(cb));
            assert_ne!(key(ca), key(cb));
        }
    }

    #[test]
    fn streams_are_ordered_at_the_offered_rate() {
        let load = generate(3, &SPEC);
        for conn in &load.conns {
            assert!(conn.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
            let span_s = conn.last().expect("non-empty").due_ns as f64 / 1e9;
            let rate = conn.len() as f64 / span_s;
            assert!(
                (rate / (SPEC.rate_per_s / 2.0) - 1.0).abs() < 0.15,
                "{rate}"
            );
            assert!(conn.iter().all(|r| r.key < load.keys.len()));
        }
        // Zipf: the top-ranked key is drawn far more often than the median one.
        let count = |k: usize| load.conns.iter().flatten().filter(|r| r.key == k).count();
        assert!(count(0) > 5 * count(100).max(1));
    }

    #[test]
    fn every_key_is_valid_and_simra_only_on_capable_families() {
        let space = key_space();
        let mut unique = space.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), space.len());
        for key in &space {
            let parsed = pudhammer::serve::ProfileKey::parse(key).expect("valid key");
            assert_eq!(&parsed.canonical(), key);
            if key.contains("pattern=simra") {
                let family = TESTED_MODULES
                    .iter()
                    .find(|p| p.key() == parsed.family)
                    .expect("roster family");
                assert!(family.supports_simra(), "{key}");
            }
        }
    }
}
