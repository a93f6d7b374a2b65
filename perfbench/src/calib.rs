//! Host-speed calibration.
//!
//! The benchmark host has host-speed episodes that last seconds, so a raw
//! rep time says as much about the host as about the code. A fixed kernel
//! that calls no repository code runs next to every timed rep on the same
//! thread; each rep is scaled by the mean of the kernel times measured just
//! before and just after it:
//!
//! ```text
//! calibrated = raw × CALIB_REF_S / mean(kernel before, kernel after)
//! ```
//!
//! A calibrated time therefore reads "seconds on a host where the kernel
//! takes `CALIB_REF_S`".

use std::hint::black_box;
use std::time::Instant;

/// Kernel time of the reference host speed, in seconds (about the
/// kernel's median on a 2-vCPU Intel Xeon KVM guest).
pub const CALIB_REF_S: f64 = 0.008;

/// 4 MiB of state: larger than a core's L2, so the kernel mixes
/// last-level-cache traffic with dependent integer work and
/// data-dependent branches, as the simulators under test do.
const WORDS: usize = 1 << 19;
const STEPS: u64 = 1_300_000;

/// The calibration kernel and its seeded state.
pub struct Calibrator {
    buf: Vec<u64>,
    state: u64,
}

impl Calibrator {
    /// Fills the kernel's table from `seed` (same seed, same table).
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        let buf = (0..WORDS).map(|_| splitmix64(&mut s)).collect();
        Calibrator {
            buf,
            state: splitmix64(&mut s) | 1,
        }
    }

    /// Runs the kernel once and returns its wall time in seconds.
    pub fn measure(&mut self) -> f64 {
        let start = Instant::now();
        let mask = self.buf.len() - 1;
        let mut x = self.state;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & mask;
            let v = black_box(self.buf[i]);
            acc = if v & 1 == 0 {
                acc.wrapping_add(v)
            } else {
                acc.rotate_left(5) ^ v
            };
            self.buf[i] = v.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(acc);
        }
        self.state = black_box(x ^ acc) | 1;
        start.elapsed().as_secs_f64()
    }
}

/// Scales `raw` seconds to the reference host speed, given the kernel
/// times measured just before and just after it.
pub fn calibrated(raw: f64, before: f64, after: f64) -> f64 {
    raw * CALIB_REF_S / ((before + after) / 2.0)
}

fn splitmix64(s: &mut u64) -> u64 {
    *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *s;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `(nproc, CPU model)` of the host, recorded beside every result.
pub fn host() -> (usize, String) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    (nproc, model)
}
