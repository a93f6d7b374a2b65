//! Region simulation (§III-F): one per-region body for both deployments.
//!
//! Binary-driven and checkpoint-driven simulation differ only in where a
//! region starts: from reset ([`PreparedCheckpoints::from_reset`]) or
//! from a pinball checkpoint ([`prepare_region_checkpoints`]). Both plans
//! run through [`simulate_prepared`].

use crate::cancel::CancelToken;
use crate::config::DEFAULT_MAX_STEPS;
use crate::error::LoopPointError;
use crate::pipeline::{Analysis, LoopPointRegion};
use crate::pool;
use lp_isa::{MachineState, Marker, Pc, Program};
use lp_sim::{Mode, SimStats, Simulator, StopCond};
use lp_uarch::SimConfig;
use std::sync::Arc;

/// Knobs of [`simulate_prepared`].
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Hard step budget for any single fast-forward or detailed run
    /// (default: [`DEFAULT_MAX_STEPS`]).
    pub max_steps: u64,
    /// Fast-forward warming of caches and predictors (`false` is the
    /// cold-start ablation).
    pub warmup: bool,
    /// Worker-pool width for concurrent region simulation; `<= 1` runs
    /// the regions serially on the caller's thread (the default). Always
    /// clamped to the region count.
    pub pool_size: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            max_steps: DEFAULT_MAX_STEPS,
            warmup: true,
            pool_size: 1,
        }
    }
}

impl SimOptions {
    /// Options running regions on a worker pool as wide as
    /// [`std::thread::available_parallelism`].
    #[must_use]
    pub fn parallel() -> Self {
        SimOptions {
            pool_size: std::thread::available_parallelism().map_or(1, usize::from),
            ..Default::default()
        }
    }
}

/// A region paired with its optional checkpoint payload.
#[derive(Debug, Clone)]
pub struct PreparedRegion {
    /// The region to simulate.
    pub region: LoopPointRegion,
    /// Snapshotted machine state at the warmup marker plus the global
    /// `(PC, count)` watch counts at that point; `None` when the region
    /// is simulated from reset.
    pub checkpoint: Option<(MachineState, Vec<(Pc, u64)>)>,
}

/// A region-simulation plan: each region's start state, plus accounting of
/// what building the checkpoints cost.
#[derive(Debug)]
pub struct PreparedCheckpoints {
    /// One prepared entry per looppoint, in looppoint order.
    pub regions: Vec<PreparedRegion>,
    /// Full pinball replays performed to build the checkpoints. The
    /// single-pass generator keeps this at **1** regardless of region
    /// count (0 when no region needs a checkpoint); the legacy per-region
    /// path pays one replay per checkpointed region.
    pub replay_passes: u64,
}

impl PreparedCheckpoints {
    /// The §III-F **binary-driven** plan: every region starts from reset
    /// and fast-forwards (warming caches and predictors unless
    /// [`SimOptions::warmup`] is off) from program start to its start
    /// marker. No checkpoints, no replays.
    #[must_use]
    pub fn from_reset(analysis: &Analysis) -> PreparedCheckpoints {
        PreparedCheckpoints {
            regions: analysis
                .looppoints
                .iter()
                .map(|region| PreparedRegion {
                    region: region.clone(),
                    checkpoint: None,
                })
                .collect(),
            replay_passes: 0,
        }
    }
}

/// Detailed statistics for one simulated looppoint.
#[derive(Debug, Clone)]
pub struct RegionResult {
    /// The region that was simulated.
    pub region: LoopPointRegion,
    /// Region statistics (with warmup accounting in the `ff_*` fields).
    pub stats: SimStats,
}

/// Builds the §III-F **checkpoint-driven** plan: each region restores a
/// pinball checkpoint taken `warmup_slices` slices before its start marker
/// (regions that close to program start begin from reset). All
/// checkpoints come from a **single pinball replay**, regardless of region
/// count.
///
/// Regions are sorted by warmup-marker position into a multi-marker agenda
/// and batched through [`lp_pinball::Pinball::checkpoints_at`]; each
/// region's watch counts are filtered back down to its own start/end PCs,
/// so the prepared payloads are byte-identical to what the legacy
/// per-region path produces. Snapshot sizes are recorded into the
/// `region.checkpoint_bytes` histogram.
///
/// # Errors
/// Replay failures, or a warmup marker the recording never reaches.
pub fn prepare_region_checkpoints(
    analysis: &Analysis,
    program: &Arc<Program>,
    warmup_slices: usize,
) -> Result<PreparedCheckpoints, LoopPointError> {
    let obs = lp_obs::global();
    let mut span = obs.span("region.checkpoints", "pipeline");
    span.arg("regions", analysis.looppoints.len());

    // Warmup marker per region, plus the union of watch PCs (watch counts
    // are *global* execution counts, so the union pass produces the same
    // values any per-region watch list would see).
    let mut markers: Vec<Marker> = Vec::new();
    let mut marker_slots: Vec<Option<usize>> = Vec::with_capacity(analysis.looppoints.len());
    let mut watch: Vec<Pc> = Vec::new();
    for region in &analysis.looppoints {
        let warm_idx = region.slice_index.saturating_sub(warmup_slices);
        match analysis.profile.slices[warm_idx].start {
            None => marker_slots.push(None), // near program start: from reset
            Some(marker) => {
                marker_slots.push(Some(markers.len()));
                markers.push(marker);
            }
        }
        for pc in boundary_pcs(region) {
            if !watch.contains(&pc) {
                watch.push(pc);
            }
        }
    }

    let batch = analysis
        .pinball
        .checkpoints_at(program.clone(), &markers, &watch)?;
    let replay_passes = u64::from(!markers.is_empty());
    span.arg("replay_passes", replay_passes);

    let regions = assemble_prepared(analysis, &marker_slots, batch);
    Ok(PreparedCheckpoints {
        regions,
        replay_passes,
    })
}

/// The pre-batching checkpoint builder: one full pinball replay **per
/// region**. Kept as the measured baseline for the analysis-cost benchmark
/// (`cargo bench --bench analysis_cost`) — O(k·N) against
/// [`prepare_region_checkpoints`]'s O(N).
///
/// # Errors
/// Replay failures, or a warmup marker the recording never reaches.
pub fn prepare_region_checkpoints_per_region(
    analysis: &Analysis,
    program: &Arc<Program>,
    warmup_slices: usize,
) -> Result<PreparedCheckpoints, LoopPointError> {
    let obs = lp_obs::global();
    let mut span = obs.span("region.checkpoints", "pipeline");
    span.arg("regions", analysis.looppoints.len());
    let mut regions: Vec<PreparedRegion> = Vec::with_capacity(analysis.looppoints.len());
    let mut replay_passes = 0u64;
    for region in &analysis.looppoints {
        let warm_idx = region.slice_index.saturating_sub(warmup_slices);
        let checkpoint = match analysis.profile.slices[warm_idx].start {
            None => None,
            Some(marker) => {
                let watch = boundary_pcs(region);
                let (ckpt, counts) =
                    analysis
                        .pinball
                        .checkpoint_at_with_counts(program.clone(), marker, &watch)?;
                replay_passes += 1;
                record_checkpoint_size(ckpt.state());
                let counts: Vec<(Pc, u64)> = counts.into_iter().collect();
                Some((ckpt.state().clone(), counts))
            }
        };
        regions.push(PreparedRegion {
            region: region.clone(),
            checkpoint,
        });
    }
    span.arg("replay_passes", replay_passes);
    Ok(PreparedCheckpoints {
        regions,
        replay_passes,
    })
}

/// The region's distinct start/end marker PCs.
fn boundary_pcs(region: &LoopPointRegion) -> Vec<Pc> {
    let mut pcs: Vec<Pc> = region
        .start
        .iter()
        .chain(&region.end)
        .map(|m| m.pc)
        .collect();
    pcs.dedup();
    pcs
}

fn record_checkpoint_size(state: &MachineState) {
    lp_obs::global()
        .histogram("region.checkpoint_bytes")
        .record(state.encoded_len() as u64);
}

fn assemble_prepared(
    analysis: &Analysis,
    marker_slots: &[Option<usize>],
    mut batch: lp_pinball::MarkerCheckpoints,
) -> Vec<PreparedRegion> {
    analysis
        .looppoints
        .iter()
        .zip(marker_slots)
        .map(|(region, slot)| {
            let checkpoint = slot.map(|i| {
                let (ckpt, counts) = &mut batch[i];
                record_checkpoint_size(ckpt.state());
                // Filter the union watch counts down to this region's own
                // start/end PCs (exactly the legacy per-region payload).
                let own = boundary_pcs(region).into_iter().map(|pc| (pc, counts[&pc]));
                (ckpt.state().clone(), own.collect())
            });
            PreparedRegion {
                region: region.clone(),
                checkpoint,
            }
        })
        .collect()
}

/// Simulates every region of a plan unconstrained on `simcfg`: restore the
/// start state, fast-forward (warming caches and predictors) to the start
/// marker, then run detailed to the end marker.
///
/// With [`PreparedCheckpoints::from_reset`] this is binary-driven
/// simulation; with [`prepare_region_checkpoints`] it is the
/// checkpoint-driven deployment the paper's title describes, where no
/// simulation time is spent re-executing the program prefix (the property
/// behind the large *actual* speedups of §V-B). With
/// [`SimOptions::pool_size`] above 1, regions run concurrently on a
/// bounded worker pool (§III-J).
///
/// # Errors
/// The first region failure is returned; outstanding parallel work is
/// cancelled.
pub fn simulate_prepared(
    prepared: &PreparedCheckpoints,
    program: &Arc<Program>,
    nthreads: usize,
    simcfg: &SimConfig,
    opts: &SimOptions,
) -> Result<Vec<RegionResult>, LoopPointError> {
    let cancel = CancelToken::default();
    simulate_regions(prepared, program, nthreads, simcfg, opts, &cancel)
}

/// [`simulate_prepared`] honoring a cooperative [`CancelToken`]: the token
/// is checked before every region (serial and pooled alike), so a tripped
/// token aborts the sweep with [`LoopPointError::Cancelled`] after at most
/// one in-flight region per worker completes.
pub(crate) fn simulate_regions(
    prepared: &PreparedCheckpoints,
    program: &Arc<Program>,
    nthreads: usize,
    simcfg: &SimConfig,
    opts: &SimOptions,
    cancel: &CancelToken,
) -> Result<Vec<RegionResult>, LoopPointError> {
    let max_steps = opts.max_steps;
    let run_one = |p: &PreparedRegion| -> Result<RegionResult, LoopPointError> {
        cancel.check()?;
        let region = &p.region;
        let obs = lp_obs::global();
        let mut span = obs.span("region.sim", "pipeline");
        span.arg("cluster", region.cluster);
        span.arg("slice_index", region.slice_index);
        span.arg("multiplier", region.multiplier);
        span.arg("checkpointed", u64::from(p.checkpoint.is_some()));
        let mut sim = match &p.checkpoint {
            None => Simulator::new(program.clone(), nthreads, simcfg.clone()),
            Some((state, counts)) => {
                let machine = lp_isa::Machine::from_snapshot(program.clone(), state);
                let mut sim = Simulator::from_machine(machine, simcfg.clone());
                for &(pc, count) in counts {
                    sim.watch_pc_from(pc, count);
                }
                sim
            }
        };
        sim.set_ff_warming(opts.warmup);
        for pc in boundary_pcs(region) {
            sim.watch_pc(pc);
        }
        // A checkpoint cut at the start marker itself (zero warmup
        // slices) has already retired it: run cold from there.
        if let Some(s) = region.start.filter(|s| sim.watch_count(s.pc) < s.count) {
            sim.run(Mode::FastForward, Some(StopCond::Marker(s)), max_steps)?;
        }
        let stats = sim.run(Mode::Detailed, region.end.map(StopCond::Marker), max_steps)?;
        span.arg("instructions", stats.instructions);
        span.arg("cycles", stats.cycles);
        obs.counter("region.sims").inc();
        Ok(RegionResult {
            region: region.clone(),
            stats,
        })
    };

    if opts.pool_size <= 1 {
        return prepared.regions.iter().map(run_one).collect();
    }
    pool::run_cancelable(&prepared.regions, opts.pool_size, run_one)
}

/// Simulates the whole application in detailed mode (the reference run the
/// prediction error is measured against).
///
/// # Errors
/// Propagates simulator failures.
pub fn simulate_whole(
    program: &Arc<Program>,
    nthreads: usize,
    simcfg: &SimConfig,
) -> Result<SimStats, LoopPointError> {
    let _span = lp_obs::global().span("sim.whole", "pipeline");
    lp_sim::simulate_full(program.clone(), nthreads, simcfg.clone(), DEFAULT_MAX_STEPS)
        .map_err(LoopPointError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, LoopPointConfig};
    use lp_omp::WaitPolicy;

    #[test]
    fn tripped_token_aborts_binary_driven_sweeps() {
        let program = crate::testutil::phased_program(2, WaitPolicy::Passive, 6);
        let analysis = analyze(&program, 2, &LoopPointConfig::with_slice_base(2_000)).unwrap();
        let plan = PreparedCheckpoints::from_reset(&analysis);
        assert!(plan.regions.len() >= 2 && plan.replay_passes == 0);
        let simcfg = SimConfig::gainestown(2);
        let cancel = CancelToken::new();
        cancel.cancel();
        for pool_size in [1, 2] {
            let opts = SimOptions {
                pool_size,
                ..Default::default()
            };
            let err = simulate_regions(&plan, &program, 2, &simcfg, &opts, &cancel).unwrap_err();
            assert!(
                matches!(err, LoopPointError::Cancelled),
                "pool_size {pool_size}: {err}"
            );
        }
    }
}
