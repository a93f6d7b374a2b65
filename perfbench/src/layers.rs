//! The traced run: every layer's public call, timed from here.
//!
//! A *sweep* runs the workload's estimate path one layer call at a time
//! (the traced estimate), then measures the layers the path does not use on
//! the same program, so every workload reports every layer:
//!
//! | workload | traced estimate | rest of the sweep |
//! |---|---|---|
//! | cold | record, DCFG replay, slicing replay, clustering, checkpoint pass, region sims | store save + load, live run |
//! | warm | store load, region sims | cold layers + store save (what set-up's fill does), live run |
//! | live | live run | cold layers, region sims, store save + load |
//!
//! Every sweep ends with the full-detail reference and a functional-VM run.
//! Sweeps alternate with untraced reps of the public entry point; the two
//! give the tracing overhead.

use crate::calib::{calibrated, Calibrator};
use crate::workload::{open_fresh_store, Bench, Mode, WARMUP_SLICES};
use crate::{median, Metric, Tally};
use looppoint::persist::{
    analysis_key, checkpoints_key, encode_analysis_meta, encode_checkpoints, encode_clustering,
    encode_profile,
};
use looppoint::{
    analyze_cached, analyze_live, extrapolate, prepare_region_checkpoints,
    prepare_region_checkpoints_cached, simulate_prepared, simulate_whole, Analysis,
    LoopPointRegion, PreparedCheckpoints, SimOptions,
};
use lp_bbv::{LoopAlignedSlicer, SliceProfile};
use lp_dcfg::DcfgBuilder;
use lp_isa::Machine;
use lp_pinball::Pinball;
use lp_simpoint::{cluster, Clustering};
use lp_store::{ArtifactKind, Store, StoreKey};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::time::Instant;

/// The traced run fails when its layer times account for less than this
/// share of the traced estimate.
pub const COVERAGE_MIN_PCT: f64 = 95.0;

/// Layer times that make up each mode's traced estimate.
fn on_path(mode: Mode) -> &'static [&'static str] {
    match mode {
        Mode::Cold => &[
            "pinball.record_s",
            "dcfg.replay_s",
            "bbv.slicing_s",
            "simpoint.cluster_s",
            "pinball.checkpoint_s",
            "sim.region_s",
        ],
        Mode::Warm => &["store.load_s", "sim.region_s"],
        Mode::Live => &["live.run_s"],
    }
}

/// One sweep: seconds per layer (raw until the sweep ends, then
/// calibrated), exact counts, and store byte sizes. The sizes are not
/// exact: `encode_analysis_meta` writes DCFG parts in hash-map order, so
/// the compressed container size moves by a few bytes between sweeps.
#[derive(Default)]
struct Sweep {
    secs: Vec<(&'static str, f64)>,
    counts: Vec<(&'static str, u64)>,
    bytes: Vec<(&'static str, f64)>,
}

impl Sweep {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.secs.push((name, start.elapsed().as_secs_f64()));
        out
    }

    fn count(&mut self, name: &'static str, value: u64) {
        self.counts.push((name, value));
    }

    fn secs(&self, name: &str) -> f64 {
        self.secs
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, s)| s)
            .sum()
    }

    fn bytes(&self, name: &str) -> f64 {
        self.bytes
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }

    fn get(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }
}

/// Runs untraced reps and traced sweeps alternately until `deadline` (at
/// least `min_reps` of each) and returns the per-layer metrics.
pub fn run(
    bench: &Bench,
    cal: &mut Calibrator,
    scratch: &Path,
    deadline: Instant,
    min_reps: usize,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let probe = open_fresh_store(scratch.join("probe-store"))?;
    let mut untraced = Vec::new();
    let mut untraced_raw = Vec::new();
    let mut sweeps: Vec<Sweep> = Vec::new();
    let mut traced = Vec::new();
    let mut coverage = Vec::new();
    let mut calibs = Vec::new();
    let mut full_raw = Vec::new();
    let mut before = cal.measure();
    let mut n = 0;
    while n < min_reps || Instant::now() < deadline {
        n += 1;
        let start = Instant::now();
        let est = bench.estimate();
        let raw = start.elapsed().as_secs_f64();
        let mid = cal.measure();
        calibs.extend([before, mid]);
        let checked = est.and_then(|o| bench.check_estimate(&o));
        if tally.record("untraced rep", checked) {
            untraced.push(calibrated(raw, before, mid));
            untraced_raw.push(raw);
        }

        let (sweep, est_raw) = match sweep(bench, &probe) {
            Ok(s) => s,
            Err(e) => {
                tally.record("sweep", Err(e));
                before = cal.measure();
                continue;
            }
        };
        let after = cal.measure();
        let scale = calibrated(1.0, mid, after);
        let exact = match sweeps.first() {
            Some(first) if first.counts != sweep.counts => Err(count_mismatch(first, &sweep)),
            _ => Ok(()),
        };
        if tally.record("sweep", exact) {
            let layers: f64 = on_path(bench.wl.mode).iter().map(|l| sweep.secs(l)).sum();
            coverage.push(layers / est_raw * 100.0);
            traced.push(est_raw * scale);
            full_raw.push(sweep.secs("sim.full_s"));
            let mut sweep = sweep;
            for (_, s) in &mut sweep.secs {
                *s *= scale;
            }
            sweeps.push(sweep);
        }
        before = after;
    }
    if sweeps.is_empty() || untraced.is_empty() {
        return Err("no sweep or untraced rep passed its checks".into());
    }
    let coverage_pct = median(&coverage);
    if coverage_pct < COVERAGE_MIN_PCT {
        tally.fail(format!(
            "layer coverage {coverage_pct:.1}% is below {COVERAGE_MIN_PCT}%"
        ));
    }
    let first = &sweeps[0];
    let med = |f: &dyn Fn(&Sweep) -> f64| median(&sweeps.iter().map(f).collect::<Vec<_>>());
    let secs = |name: &'static str| Metric::new(name, med(&|s| s.secs(name)), "s");
    let bytes = |name: &'static str| Metric::new(name, med(&|s| s.bytes(name)), "bytes");
    let exact = |name: &'static str, unit| Metric::new(name, first.get(name) as f64, unit);
    let rate = |name, insts: &str, time: &str| {
        Metric::new(
            name,
            first.get(insts) as f64 / med(&|s| s.secs(time)) / 1e6,
            "Minst/s",
        )
    };
    let pct = |name, part: &str, whole: &str| {
        Metric::new(
            name,
            first.get(part) as f64 / first.get(whole) as f64 * 100.0,
            "%",
        )
    };
    let estimate_s = median(&untraced);
    Ok(vec![
        secs("pinball.record_s"),
        exact("pinball.record_insts", "count"),
        rate(
            "pinball.record_minst_s",
            "pinball.record_insts",
            "pinball.record_s",
        ),
        secs("dcfg.replay_s"),
        rate("dcfg.replay_minst_s", "dcfg.replay_insts", "dcfg.replay_s"),
        secs("bbv.slicing_s"),
        rate("bbv.slicing_minst_s", "bbv.replay_insts", "bbv.slicing_s"),
        exact("bbv.slices", "count"),
        secs("simpoint.cluster_s"),
        exact("simpoint.k", "count"),
        secs("pinball.checkpoint_s"),
        exact("pinball.checkpoint_bytes", "bytes"),
        exact("pinball.replay_passes", "count"),
        exact("sim.regions", "count"),
        secs("sim.region_s"),
        secs("sim.region_ff_s"),
        secs("sim.region_detailed_s"),
        exact("sim.region_ff_insts", "count"),
        exact("sim.region_detailed_insts", "count"),
        pct(
            "sim.region_detailed_share",
            "sim.region_detailed_insts",
            "sim.region_insts",
        ),
        rate("sim.full_minst_s", "sim.full_insts", "sim.full_s"),
        rate("isa.vm_minst_s", "isa.vm_insts", "isa.vm_s"),
        secs("store.load_s"),
        exact("store.hits", "count"),
        exact("store.misses", "count"),
        bytes("store.bytes_read"),
        secs("store.save_s"),
        bytes("store.bytes_written"),
        secs("live.run_s"),
        exact("live.regions", "count"),
        exact("live.clusters", "count"),
        exact("live.detailed_regions", "count"),
        pct("live.detailed_pct", "live.detailed_regions", "live.regions"),
        pct(
            "live.detailed_inst_pct",
            "live.detailed_insts",
            "live.total_insts",
        ),
        Metric::new("workloads.build_s", bench.build_s, "s"),
        Metric::new("harness.calib_s", median(&calibs), "s"),
        Metric::new("harness.estimate_raw_s", median(&untraced_raw), "s"),
        Metric::new("harness.full_detail_raw_s", median(&full_raw), "s"),
        Metric::new(
            "harness.break_even_x",
            estimate_s / med(&|s| s.secs("sim.full_s")),
            "x",
        ),
        Metric::new("harness.layer_coverage_pct", coverage_pct, "%"),
        Metric::new(
            "harness.trace_overhead_pct",
            (median(&traced) / estimate_s - 1.0) * 100.0,
            "%",
        ),
    ])
}

fn count_mismatch(first: &Sweep, got: &Sweep) -> String {
    for (a, b) in first.counts.iter().zip(&got.counts) {
        if a != b {
            return format!("{} {} != {} in the first sweep", b.0, b.1, a.1);
        }
    }
    "count lists differ in length".to_string()
}

/// One sweep; returns it with the traced estimate's raw wall time. The
/// traced estimate must predict exactly what the untraced entry point does.
fn sweep(b: &Bench, probe: &Store) -> Result<(Sweep, f64), String> {
    let mut sw = Sweep::default();
    let start = Instant::now();
    let (cycles, est_raw) = match b.wl.mode {
        Mode::Cold => {
            let (analysis, prepared) = cold_analysis(b, &mut sw)?;
            let cycles = region_sims(b, &prepared, &mut sw)?;
            let est_raw = start.elapsed().as_secs_f64();
            store_save(b, &analysis, &prepared, probe, &mut sw)?;
            store_load(b, probe, &mut sw)?;
            live(b, &mut sw)?;
            (cycles, est_raw)
        }
        Mode::Warm => {
            // The store set-up filled, as the untraced reps use it.
            let store = b.store.as_ref().expect("warm set-up opens a store");
            let (_, prepared) = store_load(b, store, &mut sw)?;
            let cycles = region_sims(b, &prepared, &mut sw)?;
            let est_raw = start.elapsed().as_secs_f64();
            let (analysis, prepared) = cold_analysis(b, &mut sw)?;
            store_save(b, &analysis, &prepared, probe, &mut sw)?;
            live(b, &mut sw)?;
            (cycles, est_raw)
        }
        Mode::Live => {
            let cycles = live(b, &mut sw)?;
            let est_raw = start.elapsed().as_secs_f64();
            let (analysis, prepared) = cold_analysis(b, &mut sw)?;
            region_sims(b, &prepared, &mut sw)?;
            store_save(b, &analysis, &prepared, probe, &mut sw)?;
            store_load(b, probe, &mut sw)?;
            (cycles, est_raw)
        }
    };
    if cycles.to_bits() != b.estimate_ref.cycles.to_bits() {
        return Err(format!(
            "traced estimate {cycles} != untraced estimate {}",
            b.estimate_ref.cycles
        ));
    }
    full_and_vm(b, &mut sw)?;
    Ok((sw, est_raw))
}

/// Record → DCFG replay → slicing replay → clustering → selection →
/// checkpoint pass, one public call each.
fn cold_analysis(b: &Bench, sw: &mut Sweep) -> Result<(Analysis, PreparedCheckpoints), String> {
    let (program, n, cfg) = (&b.program, b.wl.nthreads, &b.cfg);
    let pinball = sw
        .time("pinball.record_s", || {
            Pinball::record(program, n, cfg.record)
        })
        .map_err(|e| format!("record: {e}"))?;
    sw.count("pinball.record_insts", pinball.instructions());

    let (dcfg, replay) = sw
        .time("dcfg.replay_s", || {
            let mut builder = DcfgBuilder::new(program.clone(), n);
            let stats = pinball.replay(program.clone(), &mut [&mut builder], cfg.max_steps)?;
            Ok::<_, lp_pinball::PinballError>((builder.finish(), stats))
        })
        .map_err(|e| format!("DCFG replay: {e}"))?;
    sw.count("dcfg.replay_insts", replay.instructions);

    let (profile, replay) = sw
        .time("bbv.slicing_s", || {
            let mut slicer = LoopAlignedSlicer::new(program.clone(), &dcfg, n, cfg.slice_base);
            slicer.set_spin_filter(cfg.filter_spin);
            slicer.set_policy(cfg.slice_policy);
            let stats = pinball.replay(program.clone(), &mut [&mut slicer], cfg.max_steps)?;
            Ok::<_, lp_pinball::PinballError>((slicer.finish(), stats))
        })
        .map_err(|e| format!("slicing replay: {e}"))?;
    sw.count("bbv.replay_insts", replay.instructions);
    sw.count("bbv.slices", profile.slices.len() as u64);

    let clustering = sw.time("simpoint.cluster_s", || {
        let vectors: Vec<&[(u64, f64)]> = profile.slices.iter().map(|s| s.bbv.entries()).collect();
        cluster(&vectors, &cfg.simpoint)
    });
    sw.count("simpoint.k", clustering.k as u64);

    let looppoints = select(&profile, &clustering);
    let analysis = Analysis {
        pinball,
        dcfg,
        profile,
        clustering,
        looppoints,
    };
    let prepared = sw
        .time("pinball.checkpoint_s", || {
            prepare_region_checkpoints(&analysis, program, WARMUP_SLICES)
        })
        .map_err(|e| format!("checkpoint pass: {e}"))?;
    let bytes: usize = prepared
        .regions
        .iter()
        .filter_map(|r| r.checkpoint.as_ref())
        .map(|(state, _)| state.encoded_len())
        .sum();
    sw.count("pinball.checkpoint_bytes", bytes as u64);
    sw.count("pinball.replay_passes", 2 + prepared.replay_passes);
    Ok((analysis, prepared))
}

/// One representative per cluster with its Eq. 2 multiplier, as
/// `looppoint::analyze` selects them.
fn select(profile: &SliceProfile, clustering: &Clustering) -> Vec<LoopPointRegion> {
    clustering
        .representatives
        .iter()
        .enumerate()
        .map(|(cluster, &rep)| {
            let slice = &profile.slices[rep];
            let cluster_filtered: u64 = clustering
                .members(cluster)
                .map(|i| profile.slices[i].filtered_insts)
                .sum();
            LoopPointRegion {
                slice_index: rep,
                cluster,
                start: slice.start,
                end: slice.end,
                multiplier: if slice.filtered_insts == 0 {
                    0.0
                } else {
                    cluster_filtered as f64 / slice.filtered_insts as f64
                },
                filtered_insts: slice.filtered_insts,
                cluster_filtered_insts: cluster_filtered,
            }
        })
        .collect()
}

/// Region sims and extrapolation; returns the predicted cycles.
fn region_sims(b: &Bench, prepared: &PreparedCheckpoints, sw: &mut Sweep) -> Result<f64, String> {
    let results = sw
        .time("sim.region_s", || {
            simulate_prepared(
                prepared,
                &b.program,
                b.wl.nthreads,
                &b.simcfg,
                &SimOptions::default(),
            )
        })
        .map_err(|e| format!("region sims: {e}"))?;
    let sum = |f: &dyn Fn(&lp_sim::SimStats) -> f64| results.iter().map(|r| f(&r.stats)).sum();
    sw.secs
        .push(("sim.region_ff_s", sum(&|s| s.ff_wall.as_secs_f64())));
    sw.secs
        .push(("sim.region_detailed_s", sum(&|s| s.wall.as_secs_f64())));
    sw.count("sim.regions", results.len() as u64);
    sw.count(
        "sim.region_ff_insts",
        results.iter().map(|r| r.stats.ff_instructions).sum(),
    );
    let detailed: u64 = results.iter().map(|r| r.stats.instructions).sum();
    sw.count("sim.region_detailed_insts", detailed);
    sw.count("sim.region_insts", detailed + sw.get("sim.region_ff_insts"));
    Ok(extrapolate(&results).total_cycles)
}

/// The store artifacts of one analysis, as `looppoint::persist` names them.
fn artifacts(b: &Bench) -> [(StoreKey, ArtifactKind); 5] {
    let key = analysis_key(&b.program, b.wl.nthreads, &b.cfg);
    [
        (key, ArtifactKind::Pinball),
        (key, ArtifactKind::Analysis),
        (key, ArtifactKind::BbvMatrix),
        (key, ArtifactKind::Clustering),
        (
            checkpoints_key(key, WARMUP_SLICES),
            ArtifactKind::Checkpoints,
        ),
    ]
}

/// On-disk bytes of the analysis's artifacts.
fn artifact_bytes(b: &Bench, store: &Store) -> Result<u64, String> {
    artifacts(b)
        .iter()
        .map(|(key, kind)| {
            std::fs::metadata(store.dir().join(Store::file_name(key, *kind)))
                .map(|m| m.len())
                .map_err(|e| format!("store artifact {kind:?}: {e}"))
        })
        .sum()
}

/// Encodes and saves the analysis and checkpoints the way the cached
/// pipeline persists them.
fn store_save(
    b: &Bench,
    analysis: &Analysis,
    prepared: &PreparedCheckpoints,
    store: &Store,
    sw: &mut Sweep,
) -> Result<(), String> {
    let keys = artifacts(b);
    sw.time("store.save_s", || {
        let payloads = [
            analysis.pinball.to_bytes(),
            encode_analysis_meta(&analysis.dcfg, &analysis.looppoints),
            encode_profile(&analysis.profile),
            encode_clustering(&analysis.clustering),
            encode_checkpoints(prepared),
        ];
        keys.iter()
            .zip(&payloads)
            .try_for_each(|((key, kind), payload)| store.save(key, *kind, payload))
    })
    .map_err(|e| format!("store save: {e}"))?;
    sw.bytes
        .push(("store.bytes_written", artifact_bytes(b, store)? as f64));
    Ok(())
}

/// `analyze_cached` + `prepare_region_checkpoints_cached` on a warm store;
/// both must hit.
fn store_load(
    b: &Bench,
    store: &Store,
    sw: &mut Sweep,
) -> Result<(Analysis, PreparedCheckpoints), String> {
    let (program, n, cfg) = (&b.program, b.wl.nthreads, &b.cfg);
    let before = store.stats();
    let (analysis, prepared, hit) = sw
        .time("store.load_s", || {
            let (analysis, a_hit) = analyze_cached(program, n, cfg, store)?;
            let (prepared, c_hit) = prepare_region_checkpoints_cached(
                &analysis,
                program,
                n,
                cfg,
                WARMUP_SLICES,
                store,
            )?;
            Ok::<_, looppoint::LoopPointError>((analysis, prepared, a_hit && c_hit))
        })
        .map_err(|e| format!("store load: {e}"))?;
    if !hit {
        return Err("warm store load recomputed instead of hitting".into());
    }
    let after = store.stats();
    sw.count("store.hits", after.hits - before.hits);
    sw.count("store.misses", after.misses - before.misses);
    sw.bytes
        .push(("store.bytes_read", artifact_bytes(b, store)? as f64));
    Ok((analysis, prepared))
}

/// One live run; returns its estimate.
fn live(b: &Bench, sw: &mut Sweep) -> Result<f64, String> {
    let outcome = sw
        .time("live.run_s", || {
            analyze_live(
                &b.program,
                b.wl.nthreads,
                &b.live_cfg,
                &b.simcfg,
                &mut |_| {},
            )
        })
        .map_err(|e| format!("live run: {e}"))?;
    let mut log = DefaultHasher::new();
    outcome.decision_log().hash(&mut log);
    sw.count("live.regions", outcome.regions.len() as u64);
    sw.count("live.clusters", outcome.clusters.len() as u64);
    sw.count("live.detailed_regions", outcome.detailed_regions as u64);
    sw.count("live.detailed_insts", outcome.detailed_insts);
    sw.count("live.total_insts", outcome.total_insts);
    sw.count("live.decision_log_hash", log.finish());
    sw.count("live.est_cycles_bits", outcome.est_total_cycles.to_bits());
    Ok(outcome.est_total_cycles)
}

/// The full-detail reference and a functional-VM run of the program.
fn full_and_vm(b: &Bench, sw: &mut Sweep) -> Result<(), String> {
    let full = sw
        .time("sim.full_s", || {
            simulate_whole(&b.program, b.wl.nthreads, &b.simcfg)
        })
        .map_err(|e| format!("full detail: {e}"))?;
    if full.cycles as f64 != b.full_ref.cycles {
        return Err(format!(
            "full detail {} cycles != {} in set-up",
            full.cycles, b.full_ref.cycles
        ));
    }
    sw.count("sim.full_insts", full.instructions);
    let retired = sw
        .time("isa.vm_s", || {
            let mut m = Machine::new(b.program.clone(), b.wl.nthreads);
            m.run_to_completion(u64::MAX).map(|_| m.global_retired())
        })
        .map_err(|e| format!("functional VM: {e}"))?;
    sw.count("isa.vm_insts", retired);
    Ok(())
}
