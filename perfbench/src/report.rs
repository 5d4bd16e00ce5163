//! Exact quantiles over raw samples, the environment stamp, and JSON
//! output.

use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// Exact nearest-rank quantile of raw samples; `None` entries (failed or
/// refused requests) rank above every measured value and read as
/// `failed_as`.
pub fn quantile(samples: &[Option<f64>], q: f64, failed_as: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = samples.iter().map(|s| s.unwrap_or(f64::INFINITY)).collect();
    v.sort_unstable_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    let x = v[rank - 1];
    if x.is_finite() {
        x
    } else {
        failed_as
    }
}

/// Nearest-rank quantile of plain values (0 when empty).
pub fn pct(values: &[f64], q: f64) -> f64 {
    let s: Vec<Option<f64>> = values.iter().map(|&v| Some(v)).collect();
    quantile(&s, q, 0.0)
}

pub fn median(values: &[f64]) -> f64 {
    pct(values, 0.5)
}

/// A flat JSON object built in insertion order.
#[derive(Default)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        let v = if v.is_finite() {
            format!("{v}")
        } else {
            "null".into()
        };
        self.0.push((k.to_string(), v));
        self
    }

    pub fn int(&mut self, k: &str, v: u64) -> &mut Self {
        self.0.push((k.to_string(), v.to_string()));
        self
    }

    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.0.push((k.to_string(), quote(v)));
        self
    }

    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.0.push((k.to_string(), v.to_string()));
        self
    }

    pub fn obj(&mut self, k: &str, v: &Obj) -> &mut Self {
        self.0.push((k.to_string(), v.render()));
        self
    }

    /// Inserts an already-rendered JSON value.
    pub fn raw(&mut self, k: &str, v: &str) -> &mut Self {
        self.0.push((k.to_string(), v.to_string()));
        self
    }

    /// `(key, rendered value)` pairs in insertion order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &str)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", quote(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and when the numbers were taken: cores, CPU model, source
/// revision, compiler and UTC date.
pub fn stamp() -> Obj {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rev = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let mut o = Obj::default();
    o.int("cores", cores)
        .str("cpu", &cpu)
        .str("git_rev", &rev)
        .str("rustc", &rustc)
        .str("date_utc", &utc_now());
    o
}

/// `(steal, total)` CPU time from `/proc/stat`, in clock ticks: the share
/// of time the hypervisor ran someone else on this machine's CPUs.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// `YYYY-MM-DDTHH:MM:SSZ` from the system clock.
fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs()) as i64;
    let (days, rem) = (secs.div_euclid(86_400), secs.rem_euclid(86_400));
    // Civil-from-days (proleptic Gregorian).
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        rem / 3_600,
        rem % 3_600 / 60,
        rem % 60
    )
}
