//! Summary statistics, host facts and the JSON the benchmark prints.

use std::fmt::Write as _;

/// The median of `samples` (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Samples that must lie beyond the reported tail.
pub const TAIL_BEYOND: usize = 10;

/// The tail: the highest percentile with at least [`TAIL_BEYOND`]
/// samples beyond it, as `(value, percentile)`; `None` with too few
/// samples to have one.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let rank = n.checked_sub(TAIL_BEYOND).filter(|&r| r > 0)?; // 1-based
    Some((s[rank - 1], 100.0 * rank as f64 / n as f64))
}

/// A timing summary as printed in the record line.
pub fn summary_json(samples: &[f64]) -> String {
    let tail = match tail(samples) {
        Some((t, pct)) => format!("\"tail\": {t}, \"tail_percentile\": {pct:.1}"),
        None => "\"tail\": null, \"tail_percentile\": null".into(),
    };
    format!(
        "{{\"p50\": {}, {tail}, \"samples\": {}}}",
        median(samples),
        samples.len()
    )
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            assert!(value.is_finite(), "metric {name} is {value}");
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String");
        }
        out.push('}');
        out
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}

/// The checked-out commit, read from `.git` in the working directory;
/// `"unknown"` outside a git checkout.
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The process's peak resident set (`VmHWM`) in MiB, if the platform
/// reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU time this process has used so far, in nanoseconds: every thread,
/// ended ones included, and none of the time it waited to be scheduled.
/// The timed calls are measured in CPU time, because on a shared host
/// wall time also counts the time the process waited for a core.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let s: Vec<f64> = (1..=40).map(f64::from).collect();
        let (v, pct) = tail(&s).unwrap();
        assert_eq!(v, 30.0);
        assert_eq!(s.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);
        assert_eq!(pct, 75.0);
        assert_eq!(median(&s), 20.5);
        assert!(tail(&s[..TAIL_BEYOND]).is_none());
    }
}
