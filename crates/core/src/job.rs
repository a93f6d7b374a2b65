//! Job-level pipeline entry point.
//!
//! The driver and the lp-farm service both need "run the whole sampled
//! pipeline for one (program, threads, config) and hand back a compact,
//! serializable summary" — without each reimplementing the
//! analyze → checkpoint → simulate → extrapolate choreography and the
//! store/cancellation plumbing. [`run_job`] is that single entry point:
//! store-aware (cached analysis and checkpoints when a [`Store`] is
//! given), cancellation-aware (the [`crate::CancelToken`] in the config is
//! honored at phase boundaries and between regions), and cheap to call in
//! a loop.

use crate::config::LoopPointConfig;
use crate::error::LoopPointError;
use crate::extrapolate::extrapolate;
use crate::persist::{analyze_cached, prepare_region_checkpoints_cached};
use crate::pipeline::analyze;
use crate::simulate::{prepare_region_checkpoints, simulate_regions, SimOptions};
use lp_isa::Program;
use lp_store::Store;
use lp_uarch::SimConfig;
use std::sync::Arc;

/// Compact, serializable outcome of one end-to-end pipeline job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSummary {
    /// Slices profiled by the analysis.
    pub slices: usize,
    /// Clusters chosen (`k`).
    pub clusters: usize,
    /// Looppoint regions simulated.
    pub regions: usize,
    /// Extrapolated whole-program runtime in cycles (Eq. 1/2).
    pub predicted_cycles: f64,
    /// Extrapolated branch MPKI.
    pub predicted_branch_mpki: f64,
    /// Extrapolated L2 MPKI.
    pub predicted_l2_mpki: f64,
    /// Whether the analysis was served from the artifact store.
    pub analysis_from_store: bool,
    /// Whether region checkpoints were served from the artifact store.
    pub checkpoints_from_store: bool,
}

impl JobSummary {
    /// The summary as a JSON object (stable field names — the lp-farm wire
    /// format embeds this verbatim).
    pub fn to_value(&self) -> lp_obs::json::Value {
        use lp_obs::json::Value;
        Value::Obj(vec![
            ("slices".to_string(), Value::Int(self.slices as i128)),
            ("clusters".to_string(), Value::Int(self.clusters as i128)),
            ("regions".to_string(), Value::Int(self.regions as i128)),
            (
                "predicted_cycles".to_string(),
                Value::Num(self.predicted_cycles),
            ),
            (
                "predicted_branch_mpki".to_string(),
                Value::Num(self.predicted_branch_mpki),
            ),
            (
                "predicted_l2_mpki".to_string(),
                Value::Num(self.predicted_l2_mpki),
            ),
            (
                "analysis_from_store".to_string(),
                Value::Bool(self.analysis_from_store),
            ),
            (
                "checkpoints_from_store".to_string(),
                Value::Bool(self.checkpoints_from_store),
            ),
        ])
    }
}

/// Runs the full sampled pipeline for one program: analysis (cached when
/// `store` is given), single-pass checkpoint generation (ditto), region
/// simulation honoring `cfg.cancel`, and Eq. 1/2 extrapolation.
///
/// `warmup_slices` is the checkpoint warmup window (the paper's default
/// deployment uses [`crate::DEFAULT_WARMUP_SLICES`]).
///
/// # Errors
/// Any stage failure, or [`LoopPointError::Cancelled`] when the config's
/// token is tripped.
pub fn run_job(
    program: &Arc<Program>,
    nthreads: usize,
    cfg: &LoopPointConfig,
    simcfg: &SimConfig,
    sim_opts: &SimOptions,
    warmup_slices: usize,
    store: Option<&Store>,
) -> Result<JobSummary, LoopPointError> {
    // Attach the caller's trace context (if any) for the whole run, so the
    // job.run span and everything under it carry the caller's trace id.
    let _trace_guard = cfg.trace.as_ref().map(|t| t.attach());
    let mut span = cfg.obs.span("job.run", "pipeline");
    span.arg("nthreads", nthreads);

    let (analysis, analysis_from_store) = match store {
        Some(store) => analyze_cached(program, nthreads, cfg, store)?,
        None => (analyze(program, nthreads, cfg)?, false),
    };
    cfg.cancel.check()?;

    let (prepared, checkpoints_from_store) = match store {
        Some(store) => prepare_region_checkpoints_cached(
            &analysis,
            program,
            nthreads,
            cfg,
            warmup_slices,
            store,
        )?,
        None => (
            prepare_region_checkpoints(&analysis, program, warmup_slices)?,
            false,
        ),
    };
    cfg.cancel.check()?;

    let results = simulate_regions(&prepared, program, nthreads, simcfg, sim_opts, &cfg.cancel)?;
    let prediction = extrapolate(&results);

    span.arg("regions", results.len());
    span.arg("analysis_from_store", u64::from(analysis_from_store));
    Ok(JobSummary {
        slices: analysis.profile.slices.len(),
        clusters: analysis.clustering.k,
        regions: results.len(),
        predicted_cycles: prediction.total_cycles,
        predicted_branch_mpki: prediction.branch_mpki,
        predicted_l2_mpki: prediction.l2_mpki,
        analysis_from_store,
        checkpoints_from_store,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::phased_program;
    use crate::CancelToken;

    #[test]
    fn run_job_produces_a_summary() {
        let nthreads = 2;
        let program = phased_program(nthreads, lp_omp::WaitPolicy::Passive, 3);
        let cfg = LoopPointConfig::with_slice_base(500);
        let simcfg = SimConfig::gainestown(nthreads);
        let summary = run_job(
            &program,
            nthreads,
            &cfg,
            &simcfg,
            &SimOptions::default(),
            2,
            None,
        )
        .unwrap();
        assert!(summary.regions > 0);
        assert!(summary.predicted_cycles > 0.0);
        assert!(!summary.analysis_from_store);
        // JSON embeds every field.
        let v = summary.to_value();
        for key in [
            "slices",
            "clusters",
            "regions",
            "predicted_cycles",
            "analysis_from_store",
        ] {
            assert!(v.get(key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn pre_tripped_token_cancels_before_any_work() {
        let nthreads = 2;
        let program = phased_program(nthreads, lp_omp::WaitPolicy::Passive, 3);
        let cancel = CancelToken::new();
        cancel.cancel();
        let cfg = LoopPointConfig::with_slice_base(500).with_cancel(cancel);
        let simcfg = SimConfig::gainestown(nthreads);
        let err = run_job(
            &program,
            nthreads,
            &cfg,
            &simcfg,
            &SimOptions::default(),
            2,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, LoopPointError::Cancelled), "{err}");
    }

    #[test]
    fn store_backed_second_run_hits() {
        let nthreads = 2;
        let program = phased_program(nthreads, lp_omp::WaitPolicy::Passive, 3);
        let cfg = LoopPointConfig::with_slice_base(500);
        let simcfg = SimConfig::gainestown(nthreads);
        let dir = std::env::temp_dir().join(format!(
            "lp-job-store-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let store = Store::open(&dir, lp_obs::Observer::disabled()).unwrap();
        let opts = SimOptions::default();
        let cold = run_job(&program, nthreads, &cfg, &simcfg, &opts, 2, Some(&store)).unwrap();
        assert!(!cold.analysis_from_store);
        let warm = run_job(&program, nthreads, &cfg, &simcfg, &opts, 2, Some(&store)).unwrap();
        assert!(warm.analysis_from_store && warm.checkpoints_from_store);
        assert_eq!(cold.predicted_cycles, warm.predicted_cycles);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
