//! Pipeline configuration.

use lp_pinball::RecordConfig;
use lp_simpoint::SimpointConfig;

/// Default hard step budget for any single simulation or replay.
///
/// 4 G retired instructions comfortably covers the scaled workloads (the
/// largest bench-scale pipelines retire tens of millions); it exists to
/// turn runaway executions (e.g. a marker that never fires in a buggy
/// region) into a [`lp_pinball::PinballError::StepLimit`] instead of a
/// hang. Override per run via [`LoopPointConfig::max_steps`] or the driver
/// flag `--max-steps`.
pub const DEFAULT_MAX_STEPS: u64 = 4_000_000_000;

/// Default checkpoint warmup window, in slices: each region's checkpoint
/// is cut this many slices before its start marker, and the simulator
/// fast-forwards (warming caches and predictors) through the gap.
pub const DEFAULT_WARMUP_SLICES: usize = 2;

/// Configuration of the end-to-end LoopPoint pipeline.
///
/// Defaults reproduce the paper's settings, scaled ~1000× down in
/// instruction counts so whole pipelines (including the full-application
/// reference simulations the paper itself could not afford for `ref`
/// inputs) run in seconds: the paper's per-thread slice size of 100 M
/// instructions becomes [`LoopPointConfig::slice_base`] = 25 000, while
/// `maxK = 50` and the 100-dimension projection are kept verbatim.
#[derive(Debug, Clone)]
pub struct LoopPointConfig {
    /// Per-thread slice size in *spin-filtered* instructions; the global
    /// slice target is `slice_base × nthreads` (§III-B: N × 100 M, scaled).
    pub slice_base: u64,
    /// Clustering parameters (projection dims, maxK, BIC threshold, seed).
    pub simpoint: SimpointConfig,
    /// Recording (flow-control) parameters.
    pub record: RecordConfig,
    /// Hard step budget for any single simulation or replay
    /// ([`DEFAULT_MAX_STEPS`] by default).
    pub max_steps: u64,
    /// Whether profiling filters library-image (spin) instructions; `false`
    /// is the §IV-F ablation.
    pub filter_spin: bool,
    /// Slice-length policy (§III-B supports varying-length intervals).
    pub slice_policy: lp_bbv::SlicePolicy,
    /// Observability handle spans/metrics from [`crate::analyze`] and the
    /// simulators it drives are recorded into. Defaults to the
    /// process-global observer ([`lp_obs::global`]); set explicitly to
    /// capture a pipeline run in isolation.
    pub obs: lp_obs::Observer,
    /// Cooperative cancellation flag, checked at phase boundaries (and by
    /// [`crate::run_job`] between region simulations). The
    /// default token is never tripped; *not* part of the content key.
    pub cancel: crate::CancelToken,
    /// Distributed trace context this run's spans parent under. When set,
    /// [`crate::run_job`] attaches it for the run's duration, so every
    /// pipeline/store span carries the caller's trace id (e.g. the farm
    /// job that requested the analysis). `None` (the default) leaves
    /// ambient-context behavior unchanged; *not* part of the content key.
    pub trace: Option<lp_obs::TraceContext>,
}

impl Default for LoopPointConfig {
    fn default() -> Self {
        LoopPointConfig {
            slice_base: 25_000,
            simpoint: SimpointConfig::default(),
            record: RecordConfig::default(),
            max_steps: DEFAULT_MAX_STEPS,
            filter_spin: true,
            slice_policy: lp_bbv::SlicePolicy::Fixed,
            obs: lp_obs::global(),
            cancel: crate::CancelToken::default(),
            trace: None,
        }
    }
}

impl LoopPointConfig {
    /// A configuration with a custom per-thread slice size.
    pub fn with_slice_base(slice_base: u64) -> Self {
        LoopPointConfig {
            slice_base,
            ..Default::default()
        }
    }

    /// Routes this pipeline's spans and metrics to `obs` (builder style).
    #[must_use]
    pub fn with_observer(mut self, obs: lp_obs::Observer) -> Self {
        self.obs = obs;
        self
    }

    /// Installs the cancellation token this pipeline run honors (builder
    /// style). Trip it from any thread to abort the run at the next phase
    /// boundary with [`crate::LoopPointError::Cancelled`].
    #[must_use]
    pub fn with_cancel(mut self, cancel: crate::CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Parents this run's spans under `trace` (builder style); see the
    /// [`LoopPointConfig::trace`] field.
    #[must_use]
    pub fn with_trace(mut self, trace: Option<lp_obs::TraceContext>) -> Self {
        self.trace = trace;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let cfg = LoopPointConfig::default();
        assert_eq!(cfg.simpoint.max_k, 50);
        assert_eq!(cfg.simpoint.proj_dims, 100);
        assert_eq!(cfg.slice_base, 25_000);
        let custom = LoopPointConfig::with_slice_base(1000);
        assert_eq!(custom.slice_base, 1000);
    }
}
