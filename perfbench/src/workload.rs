//! The three workloads, their set-up, and one timed rep's two halves: the
//! estimate and the full-detail reference.

use looppoint::{
    run_job, run_live_job, simulate_whole, JobSummary, LiveConfig, LoopPointConfig, SimOptions,
};
use lp_isa::Program;
use lp_obs::Observer;
use lp_omp::WaitPolicy;
use lp_store::Store;
use lp_uarch::SimConfig;
use lp_workloads::InputClass;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// How a workload turns a built program into an estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Two-phase `run_job` with no store: record, three replays,
    /// clustering, region sims.
    Cold,
    /// Two-phase `run_job` served by a store that set-up filled.
    Warm,
    /// One-pass `run_live_job`.
    Live,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub program: &'static str,
    pub nthreads: usize,
    pub slice_base: u64,
    pub mode: Mode,
}

/// All use the train input, the passive wait policy and `gainestown`; why
/// each was chosen is in README.md.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "cam4-cold-8t",
        program: "627.cam4_s.1",
        nthreads: 8,
        slice_base: 8000,
        mode: Mode::Cold,
    },
    Workload {
        name: "ft-warm-2t",
        program: "npb-ft",
        nthreads: 2,
        slice_base: 8000,
        mode: Mode::Warm,
    },
    Workload {
        name: "ft-live-2t",
        program: "npb-ft",
        nthreads: 2,
        slice_base: 2000,
        mode: Mode::Live,
    },
];

/// Checkpoint warmup window, in slices (`run-looppoint`'s default).
pub const WARMUP_SLICES: usize = 2;

impl Workload {
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn build(&self) -> Arc<Program> {
        let spec = lp_workloads::find(self.program).expect("workload names a known program");
        lp_workloads::build(&spec, InputClass::Train, self.nthreads, WaitPolicy::Passive)
    }
}

/// What one estimate or full-detail run produced. Two runs of the same
/// code must compare equal: every field is an exact count or a bit
/// pattern.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Predicted (or, for the reference, simulated) whole-program cycles.
    pub cycles: f64,
    pub counts: Vec<(&'static str, u64)>,
    /// The live run's streamed per-region progress, flattened: regions,
    /// clusters, detailed, predicted and the running estimate's bits.
    pub log: Vec<u64>,
}

impl Outcome {
    /// Describes the first difference from `want`, or `None` when equal.
    pub fn mismatch(&self, want: &Outcome) -> Option<String> {
        if self == want {
            return None;
        }
        if self.cycles.to_bits() != want.cycles.to_bits() {
            return Some(format!("cycles {} != {}", self.cycles, want.cycles));
        }
        for (got, exp) in self.counts.iter().zip(&want.counts) {
            if got != exp {
                return Some(format!("{} {} != {} {}", got.0, got.1, exp.0, exp.1));
            }
        }
        if self.counts.len() != want.counts.len() {
            return Some("count lists differ in length".to_string());
        }
        Some("live decision log differs".to_string())
    }
}

/// A workload after set-up: built program, filled store (warm only) and
/// the reference outcomes of the warm-up rep.
pub struct Bench {
    pub wl: &'static Workload,
    pub program: Arc<Program>,
    pub store: Option<Store>,
    pub simcfg: SimConfig,
    pub cfg: LoopPointConfig,
    pub live_cfg: LiveConfig,
    /// The cold estimate the set-up fill computed (warm only).
    pub cold_cycles: Option<f64>,
    pub estimate_ref: Outcome,
    pub full_ref: Outcome,
    /// Seconds spent in `lp_workloads::build`.
    pub build_s: f64,
}

impl Bench {
    /// Builds the program, fills a fresh store under `dir` (warm only) and
    /// runs one untimed warm-up rep whose outcomes become the references.
    pub fn set_up(wl: &'static Workload, dir: &Path) -> Result<Bench, String> {
        let t = std::time::Instant::now();
        let program = wl.build();
        let build_s = t.elapsed().as_secs_f64();
        let mut bench = Bench {
            wl,
            program,
            store: None,
            simcfg: SimConfig::gainestown(wl.nthreads),
            // Recording nothing: `run-looppoint`'s default when no export
            // is requested.
            cfg: LoopPointConfig::with_slice_base(wl.slice_base)
                .with_observer(Observer::disabled()),
            live_cfg: LiveConfig::with_slice_base(wl.slice_base)
                .with_observer(Observer::disabled()),
            cold_cycles: None,
            estimate_ref: Outcome::default(),
            full_ref: Outcome::default(),
            build_s,
        };
        if wl.mode == Mode::Warm {
            let store = open_fresh_store(dir.join("store"))?;
            let cold = bench.run_job(Some(&store))?;
            if cold.analysis_from_store || cold.checkpoints_from_store {
                return Err("set-up fill was served from a store it had just created".into());
            }
            bench.cold_cycles = Some(cold.predicted_cycles);
            bench.store = Some(store);
        }
        bench.estimate_ref = bench.estimate()?;
        bench.full_ref = bench.full_detail()?;
        Ok(bench)
    }

    /// One estimate by the workload's public entry point.
    pub fn estimate(&self) -> Result<Outcome, String> {
        match self.wl.mode {
            Mode::Cold => self.run_job(None).map(|s| job_outcome(&s)),
            Mode::Warm => {
                let store = self.store.as_ref().expect("warm set-up opens a store");
                let s = self.run_job(Some(store))?;
                if !(s.analysis_from_store && s.checkpoints_from_store) {
                    return Err("warm rep was not served from the store".into());
                }
                Ok(job_outcome(&s))
            }
            Mode::Live => self.live(),
        }
    }

    fn run_job(&self, store: Option<&Store>) -> Result<JobSummary, String> {
        run_job(
            &self.program,
            self.wl.nthreads,
            &self.cfg,
            &self.simcfg,
            &SimOptions::default(),
            WARMUP_SLICES,
            store,
        )
        .map_err(|e| format!("run_job: {e}"))
    }

    fn live(&self) -> Result<Outcome, String> {
        let mut log = Vec::new();
        let s = run_live_job(
            &self.program,
            self.wl.nthreads,
            &self.live_cfg,
            &self.simcfg,
            &mut |p| {
                log.extend([
                    p.regions,
                    p.clusters,
                    p.detailed,
                    p.predicted,
                    p.est_cycles.to_bits(),
                ])
            },
        )
        .map_err(|e| format!("run_live_job: {e}"))?;
        Ok(Outcome {
            cycles: s.est_cycles,
            counts: vec![
                ("live.regions", s.regions as u64),
                ("live.clusters", s.clusters as u64),
                ("live.detailed_regions", s.detailed_regions as u64),
                ("live.total_insts", s.total_insts),
            ],
            log,
        })
    }

    /// One full-detail reference run of the same program.
    pub fn full_detail(&self) -> Result<Outcome, String> {
        let s = simulate_whole(&self.program, self.wl.nthreads, &self.simcfg)
            .map_err(|e| format!("simulate_whole: {e}"))?;
        Ok(Outcome {
            cycles: s.cycles as f64,
            counts: vec![("full.instructions", s.instructions)],
            log: Vec::new(),
        })
    }

    /// `|predicted − full-detail| / full-detail` cycles, in percent.
    pub fn err_pct(&self) -> f64 {
        looppoint::error_pct(self.estimate_ref.cycles, self.full_ref.cycles)
    }

    /// Checks a rep's estimate: bit-identical to the reference, and for the
    /// warm workload equal to the cold estimate of the set-up fill.
    pub fn check_estimate(&self, got: &Outcome) -> Result<(), String> {
        if let Some(m) = got.mismatch(&self.estimate_ref) {
            return Err(format!("estimate differs from the first rep: {m}"));
        }
        match self.cold_cycles {
            Some(cold) if cold.to_bits() != got.cycles.to_bits() => Err(format!(
                "store-warm estimate {} != cold estimate {cold}",
                got.cycles
            )),
            _ => Ok(()),
        }
    }

    pub fn check_full(&self, got: &Outcome) -> Result<(), String> {
        match got.mismatch(&self.full_ref) {
            Some(m) => Err(format!("full-detail run differs from the first rep: {m}")),
            None => Ok(()),
        }
    }
}

fn job_outcome(s: &JobSummary) -> Outcome {
    Outcome {
        cycles: s.predicted_cycles,
        counts: vec![
            ("slices", s.slices as u64),
            ("clusters", s.clusters as u64),
            ("regions", s.regions as u64),
            ("branch_mpki_bits", s.predicted_branch_mpki.to_bits()),
            ("l2_mpki_bits", s.predicted_l2_mpki.to_bits()),
        ],
        log: Vec::new(),
    }
}

/// Opens a store in a directory that holds nothing yet.
pub fn open_fresh_store(dir: PathBuf) -> Result<Store, String> {
    let _ = std::fs::remove_dir_all(&dir);
    Store::open(&dir, Observer::disabled()).map_err(|e| format!("store {}: {e}", dir.display()))
}
