//! `perfbench`: the pipeline benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cam4-cold-8t|ft-warm-2t|ft-live-2t> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each run sets the workload up several
//! times, then repeats timed reps until `--seconds` have passed. One rep is
//! one estimate followed by one full-detail reference on the same program,
//! each bracketed by the host-speed calibration kernel. `--trace 1` instead
//! alternates untraced reps with layer-by-layer sweeps (see `layers.rs`).
//! The last line of standard output is the result object; the line before
//! it records the host and the raw, uncalibrated times. README.md explains
//! the workloads and metrics.

mod calib;
mod layers;
mod workload;

use calib::{calibrated, Calibrator};
use lp_obs::json::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Bench, Workload};

const USAGE: &str = "usage: perfbench --workload <cam4-cold-8t|ft-warm-2t|ft-live-2t> \
                     --seed <n> --seconds <1-600> --trace <0|1>";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Fewest timed reps per run, however short `--seconds` is.
const MIN_REPS: usize = 3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::find(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?).filter(|s| (1..=600).contains(s)),
            "--trace" => trace = Some(number()?).filter(|t| *t <= 1).map(|t| t == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds must be 1 to 600")?,
        trace: trace.ok_or("--trace must be 0 or 1")?,
    })
}

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Attempted and failed reps, plus any failure that is not a rep's.
#[derive(Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    invalid: bool,
}

impl Tally {
    /// Counts one attempt; logs and counts it as failed on `Err`. Returns
    /// whether it passed.
    pub fn record(&mut self, what: &str, result: Result<(), String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => true,
            Err(e) => {
                eprintln!("perfbench: {what} {} failed: {e}", self.attempted);
                self.failed += 1;
                false
            }
        }
    }

    pub fn fail(&mut self, why: String) {
        eprintln!("perfbench: {why}");
        self.invalid = true;
    }
}

/// The median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A per-run directory inside the checkout, removed when the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn num(v: f64) -> Value {
    Value::Num(v)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = Scratch(PathBuf::from(format!(
        ".bench_build/perfbench-{}-{}",
        args.workload.name,
        std::process::id()
    )));
    match run(&args, &scratch) {
        Ok((info, result)) => {
            println!("{info}");
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Sets up, measures and checks one run; returns the host/raw line and
/// the result object.
fn run(args: &Args, scratch: &Scratch) -> Result<(Value, Value), String> {
    let wl = args.workload;
    let mut tally = Tally::default();

    // Set up several times, each bracketed by the calibration kernel like
    // a timed rep.
    let mut cal = Calibrator::new(args.seed);
    let mut before = cal.measure();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup_raw = Vec::with_capacity(SETUPS);
    let mut bench: Option<Bench> = None;
    for i in 0..SETUPS {
        let prev = bench.take().map(|b| (b.estimate_ref, b.full_ref));
        let t0 = Instant::now();
        let b = Bench::set_up(wl, &scratch.0.join(format!("setup-{i}")))?;
        let raw = t0.elapsed().as_secs_f64();
        let after = cal.measure();
        setup_s.push(calibrated(raw, before, after));
        setup_raw.push(raw);
        before = after;
        if let Some((estimate, full)) = prev {
            if let Some(m) = b
                .estimate_ref
                .mismatch(&estimate)
                .or_else(|| b.full_ref.mismatch(&full))
            {
                tally.fail(format!("set-up {i} differs from set-up {}: {m}", i - 1));
            }
        }
        bench = Some(b);
    }
    let bench = bench.expect("SETUPS > 0");

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (nproc, cpu) = calib::host();
    let mut info = vec![
        ("workload".to_string(), Value::Str(wl.name.to_string())),
        ("seed".to_string(), Value::Int(args.seed.into())),
        ("nproc".to_string(), Value::Int(nproc as i128)),
        ("cpu".to_string(), Value::Str(cpu)),
        ("setup_raw_s".to_string(), num(median(&setup_raw))),
        ("err_pct".to_string(), num(bench.err_pct())),
    ];

    let metrics = if args.trace {
        layers::run(&bench, &mut cal, &scratch.0, deadline, MIN_REPS, &mut tally)?
    } else {
        let mut est = Vec::new();
        let mut full = Vec::new();
        let mut raw = (Vec::new(), Vec::new());
        let mut calibs = Vec::new();
        while tally.attempted < MIN_REPS as u64 || Instant::now() < deadline {
            let t = Instant::now();
            let e = bench.estimate();
            let e_raw = t.elapsed().as_secs_f64();
            let mid = cal.measure();
            let t = Instant::now();
            let f = bench.full_detail();
            let f_raw = t.elapsed().as_secs_f64();
            let after = cal.measure();
            calibs.extend([before, mid]);
            let checked = e
                .and_then(|o| bench.check_estimate(&o))
                .and_then(|()| f.and_then(|o| bench.check_full(&o)));
            if tally.record("rep", checked) {
                est.push(calibrated(e_raw, before, mid));
                full.push(calibrated(f_raw, mid, after));
                raw.0.push(e_raw);
                raw.1.push(f_raw);
            }
            before = after;
        }
        let (estimate_s, full_detail_s) = (median(&est), median(&full));
        info.extend([
            ("reps".to_string(), Value::Int(est.len() as i128)),
            ("calib_s".to_string(), num(median(&calibs))),
            ("estimate_raw_s".to_string(), num(median(&raw.0))),
            ("full_detail_raw_s".to_string(), num(median(&raw.1))),
            ("break_even_x".to_string(), num(estimate_s / full_detail_s)),
        ]);
        vec![
            Metric::new("estimate_s", estimate_s, "s"),
            Metric::new("full_detail_s", full_detail_s, "s"),
            Metric::new("err_pct", bench.err_pct(), "%"),
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    };

    for m in &metrics {
        if !m.value.is_finite() {
            tally.fail(format!("metric {} is not a finite number", m.name));
        }
    }
    let result = Value::Obj(vec![
        (
            "correct".to_string(),
            Value::Bool(!tally.invalid && tally.failed == 0),
        ),
        ("attempted".to_string(), Value::Int(tally.attempted.into())),
        ("failed".to_string(), Value::Int(tally.failed.into())),
        (
            "metrics".to_string(),
            Value::Obj(
                metrics
                    .into_iter()
                    .map(|m| {
                        let v = Value::Obj(vec![
                            ("value".to_string(), num(m.value)),
                            ("unit".to_string(), Value::Str(m.unit.to_string())),
                        ]);
                        (m.name.to_string(), v)
                    })
                    .collect(),
            ),
        ),
    ]);
    Ok((
        Value::Obj(vec![("perfbench".to_string(), Value::Obj(info))]),
        result,
    ))
}
