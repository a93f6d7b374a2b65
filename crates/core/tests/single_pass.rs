//! Single-pass checkpoint generation: equivalence with the legacy
//! per-region path, the one-replay guarantee, and serial/pooled simulation
//! determinism.

use looppoint::{
    analyze, prepare_region_checkpoints, prepare_region_checkpoints_per_region, simulate_prepared,
    LoopPointConfig, SimOptions,
};
use lp_omp::WaitPolicy;
use lp_uarch::SimConfig;
use lp_workloads::{build, matrix_demo, InputClass};
use std::sync::Arc;

const NTHREADS: usize = 4;
const WARMUP_SLICES: usize = 2;

fn demo_analysis() -> (Arc<lp_isa::Program>, usize, looppoint::Analysis) {
    let spec = matrix_demo(1);
    let n = spec.effective_threads(NTHREADS);
    let p = build(&spec, InputClass::Test, NTHREADS, WaitPolicy::Passive);
    let cfg = LoopPointConfig::with_slice_base(4_000);
    let analysis = analyze(&p, n, &cfg).unwrap();
    (p, n, analysis)
}

fn state_bytes(s: &lp_isa::MachineState) -> Vec<u8> {
    let mut buf = Vec::new();
    s.write_to(&mut buf).unwrap();
    buf
}

/// Asserts the deterministic parts of two [`lp_sim::SimStats`] are equal
/// (wall-clock fields are excluded by construction).
fn assert_stats_eq(a: &lp_sim::SimStats, b: &lp_sim::SimStats, what: &str) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.instructions, b.instructions, "{what}: instructions");
    assert_eq!(
        a.filtered_instructions, b.filtered_instructions,
        "{what}: filtered instructions"
    );
    assert_eq!(
        a.per_thread_instructions, b.per_thread_instructions,
        "{what}: per-thread instructions"
    );
    assert_eq!(
        a.ff_instructions, b.ff_instructions,
        "{what}: warmup instructions"
    );
    assert_eq!(a.branch, b.branch, "{what}: branch stats");
    assert_eq!(a.mem, b.mem, "{what}: memory stats");
}

#[test]
fn single_pass_prepares_identical_checkpoints_in_one_replay() {
    let (p, _, analysis) = demo_analysis();
    assert!(
        analysis.looppoints.len() >= 2,
        "need multiple regions to make the one-pass guarantee interesting"
    );

    let single = prepare_region_checkpoints(&analysis, &p, WARMUP_SLICES).unwrap();
    let legacy = prepare_region_checkpoints_per_region(&analysis, &p, WARMUP_SLICES).unwrap();

    // The headline property: one replay pass regardless of region count.
    assert_eq!(
        single.replay_passes, 1,
        "single-pass generation must replay the pinball exactly once"
    );
    assert_eq!(
        legacy.replay_passes,
        legacy
            .regions
            .iter()
            .filter(|r| r.checkpoint.is_some())
            .count() as u64,
        "legacy path replays once per checkpointed region"
    );
    assert!(legacy.replay_passes >= 1);

    // Byte-identical payloads, region by region.
    assert_eq!(single.regions.len(), legacy.regions.len());
    for (a, b) in single.regions.iter().zip(&legacy.regions) {
        assert_eq!(a.region.slice_index, b.region.slice_index);
        match (&a.checkpoint, &b.checkpoint) {
            (None, None) => {}
            (Some((sa, ca)), Some((sb, cb))) => {
                assert_eq!(
                    state_bytes(sa),
                    state_bytes(sb),
                    "snapshot for slice {} must be byte-identical",
                    a.region.slice_index
                );
                let mut ca = ca.clone();
                let mut cb = cb.clone();
                ca.sort_unstable();
                cb.sort_unstable();
                assert_eq!(ca, cb, "watch counts for slice {}", a.region.slice_index);
            }
            _ => panic!(
                "checkpoint presence differs for slice {}",
                a.region.slice_index
            ),
        }
    }
}

#[test]
fn checkpointed_simulation_unchanged_by_single_pass_and_pool() {
    let (p, n, analysis) = demo_analysis();
    let simcfg = SimConfig::gainestown(n);

    // Single-pass prepare + serial simulate.
    let prepared = prepare_region_checkpoints(&analysis, &p, WARMUP_SLICES).unwrap();
    let serial = simulate_prepared(&prepared, &p, n, &simcfg, &SimOptions::default()).unwrap();

    // Legacy prepare + serial simulate: the pre-PR result.
    let legacy_prep = prepare_region_checkpoints_per_region(&analysis, &p, WARMUP_SLICES).unwrap();
    let legacy = simulate_prepared(&legacy_prep, &p, n, &simcfg, &SimOptions::default()).unwrap();

    // Bounded-pool parallel run.
    let pool = SimOptions {
        pool_size: 3,
        ..Default::default()
    };
    let pooled = simulate_prepared(&prepared, &p, n, &simcfg, &pool).unwrap();

    assert_eq!(serial.len(), legacy.len());
    assert_eq!(serial.len(), pooled.len());
    for ((s, l), q) in serial.iter().zip(&legacy).zip(&pooled) {
        assert_eq!(s.region.slice_index, l.region.slice_index);
        assert_eq!(s.region.slice_index, q.region.slice_index);
        assert_stats_eq(&s.stats, &l.stats, "single-pass vs legacy prepare");
        assert_stats_eq(&s.stats, &q.stats, "serial vs pooled simulation");
    }
}

#[test]
fn zero_warmup_runs_cold_from_the_start_marker_checkpoint() {
    // With no warmup window the checkpoint is cut at the region's start
    // marker itself, after it retired: simulation must start detailed
    // right there, with no fast-forward leg.
    let (p, n, analysis) = demo_analysis();
    let prepared = prepare_region_checkpoints(&analysis, &p, 0).unwrap();
    assert!(prepared.regions.iter().any(|r| r.checkpoint.is_some()));
    let simcfg = SimConfig::gainestown(n);
    let results = simulate_prepared(&prepared, &p, n, &simcfg, &SimOptions::default()).unwrap();
    assert_eq!(results.len(), prepared.regions.len());
    for (r, prep) in results.iter().zip(&prepared.regions) {
        if prep.checkpoint.is_some() {
            assert_eq!(r.stats.ff_instructions, 0, "slice {}", r.region.slice_index);
        }
        assert!(r.stats.instructions > 0);
    }
}
