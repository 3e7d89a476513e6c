//! Process readings from `/proc/self`.

/// Peak resident set size (`VmHWM`) in kilobytes.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, which
/// Linux fixes at 100 for user space).
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of the whole process (all threads), in
/// seconds, at `1 / USER_HZ` resolution.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = f.get(11)?.parse().ok()?;
    let stime: f64 = f.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// CPU seconds used since an earlier [`cpu_seconds`] reading; 0 when
/// either reading is unavailable.
pub fn cpu_since(start: Option<f64>) -> f64 {
    cpu_seconds()
        .zip(start)
        .map_or(0.0, |(now, then)| now - then)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    #[test]
    fn readings_are_available_and_grow() {
        assert!(super::peak_rss_kb().expect("VmHWM") > 0);
        let before = super::cpu_seconds().expect("stat");
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(super::cpu_seconds().expect("stat") > before);
    }
}
