//! Integration tests for the persistent artifact store: cold/warm
//! equivalence, corruption recovery, and byte-budget eviction, exercised
//! through the public `analyze_cached` / `prepare_region_checkpoints_cached`
//! entry points.

use looppoint::persist::{
    encode_analysis_meta, encode_checkpoints, encode_clustering, encode_profile,
};
use looppoint::{
    analysis_key, analyze, analyze_cached, prepare_region_checkpoints_cached, LoopPointConfig,
};
use lp_obs::Observer;
use lp_omp::WaitPolicy;
use lp_store::{ArtifactKind, Store, StoreConfig};
use lp_workloads::{build, InputClass};
use std::path::PathBuf;
use std::sync::Arc;

const NTHREADS: usize = 2;

fn workload() -> Arc<lp_isa::Program> {
    let spec = lp_workloads::find("619.lbm_s.1").unwrap();
    build(&spec, InputClass::Test, NTHREADS, WaitPolicy::Passive)
}

fn small_cfg() -> LoopPointConfig {
    LoopPointConfig::with_slice_base(4_000)
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "lp-core-store-test-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn cold_then_warm_is_byte_identical() {
    let program = workload();
    let cfg = small_cfg();
    let dir = tmpdir("equiv");
    let store = Store::open(&dir, Observer::disabled()).unwrap();

    let (cold, from_store) = analyze_cached(&program, NTHREADS, &cfg, &store).unwrap();
    assert!(!from_store, "first run must miss");
    assert!(store.stats().misses >= 1);

    let (warm, from_store) = analyze_cached(&program, NTHREADS, &cfg, &store).unwrap();
    assert!(from_store, "second run must hit");
    assert!(store.stats().hits >= 4, "all four artifacts served");

    // The warm analysis re-encodes to exactly the cold bytes: the two are
    // the same analysis for every downstream purpose.
    assert_eq!(cold.pinball.to_bytes(), warm.pinball.to_bytes());
    assert_eq!(encode_profile(&cold.profile), encode_profile(&warm.profile));
    assert_eq!(
        encode_clustering(&cold.clustering),
        encode_clustering(&warm.clustering)
    );
    assert_eq!(
        encode_analysis_meta(&cold.dcfg, &cold.looppoints),
        encode_analysis_meta(&warm.dcfg, &warm.looppoints)
    );

    // An uncached analysis agrees too (determinism, not just persistence).
    let fresh = analyze(&program, NTHREADS, &cfg).unwrap();
    assert_eq!(
        encode_profile(&fresh.profile),
        encode_profile(&warm.profile)
    );

    // Checkpoints: cold builds (≥0 replay passes), warm replays nothing.
    let (ck_cold, hit) =
        prepare_region_checkpoints_cached(&cold, &program, NTHREADS, &cfg, 1, &store).unwrap();
    assert!(!hit);
    let (ck_warm, hit) =
        prepare_region_checkpoints_cached(&warm, &program, NTHREADS, &cfg, 1, &store).unwrap();
    assert!(hit);
    assert_eq!(ck_warm.replay_passes, 0, "warm path replays nothing");
    assert_eq!(encode_checkpoints(&ck_cold), encode_checkpoints(&ck_warm));
    assert_eq!(ck_cold.regions.len(), cold.looppoints.len());
}

#[test]
fn independent_analyses_encode_identical_meta() {
    // The DCFG is canonical: nothing in the persisted analysis depends on
    // hash-map iteration order, which differs between map instances.
    let program = workload();
    let cfg = small_cfg();
    let a = analyze(&program, NTHREADS, &cfg).unwrap();
    let b = analyze(&program, NTHREADS, &cfg).unwrap();
    assert_eq!(
        encode_analysis_meta(&a.dcfg, &a.looppoints),
        encode_analysis_meta(&b.dcfg, &b.looppoints)
    );
}

#[test]
fn corrupt_artifact_is_detected_and_recomputed() {
    let program = workload();
    let cfg = small_cfg();
    let dir = tmpdir("corrupt");
    let store = Store::open(&dir, Observer::disabled()).unwrap();

    let (cold, _) = analyze_cached(&program, NTHREADS, &cfg, &store).unwrap();

    // Flip one byte in the middle of the clustering artifact on disk.
    let key = analysis_key(&program, NTHREADS, &cfg);
    let path = dir.join(Store::file_name(&key, ArtifactKind::Clustering));
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    // The warm path must notice (checksum), quarantine, and recompute.
    let (recovered, from_store) = analyze_cached(&program, NTHREADS, &cfg, &store).unwrap();
    assert!(!from_store, "corrupted cache must not serve a hit");
    assert!(store.stats().corruptions >= 1, "corruption counted");
    let quarantined: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".corrupt"))
        .collect();
    assert_eq!(quarantined.len(), 1, "quarantined for post-mortem");

    // Recomputation equals the original, and the store healed itself.
    assert_eq!(
        encode_clustering(&recovered.clustering),
        encode_clustering(&cold.clustering)
    );
    let (_, from_store) = analyze_cached(&program, NTHREADS, &cfg, &store).unwrap();
    assert!(from_store, "store healed after recompute");
}

#[test]
fn byte_budget_evicts_old_analyses() {
    let program = workload();
    let dir = tmpdir("evict");
    // Budget big enough for roughly one analysis' artifacts (~7 KB each at
    // this scale), not three.
    const BUDGET: u64 = 12 * 1024;
    let store = Store::open_with(
        &dir,
        StoreConfig {
            max_bytes: Some(BUDGET),
        },
        Observer::disabled(),
    )
    .unwrap();

    for slice_base in [3_000u64, 4_000, 5_000] {
        let mut cfg = small_cfg();
        cfg.slice_base = slice_base;
        analyze_cached(&program, NTHREADS, &cfg, &store).unwrap();
    }
    let stats = store.stats();
    assert!(stats.evictions >= 1, "budget forced evictions");
    assert!(
        stats.bytes_stored <= BUDGET || store.len() == 1,
        "stored bytes within budget (or a single over-budget artifact): {} bytes, {} artifacts",
        stats.bytes_stored,
        store.len()
    );

    // The most recent analysis should still be warm.
    let mut cfg = small_cfg();
    cfg.slice_base = 5_000;
    let before = store.stats().hits;
    let (_, _from) = analyze_cached(&program, NTHREADS, &cfg, &store).unwrap();
    assert!(
        store.stats().hits > before,
        "most-recently-used artifacts survive eviction"
    );
}
