//! Engine-level properties: a repeated job is served from the cache
//! without recompiling (the artifact is shared), the disk layer survives
//! an engine restart, and `Pipeline::build_with` routes through the
//! engine.

use metastate::{Engine, EngineOptions, Job, Pipeline, Provenance};
use msc_core::ConvertMode;

const PROG: &str = "main() { poly int x; x = pe_id() * 3 + 1; return(x); }";

#[test]
fn cache_hit_skips_conversion() {
    let engine = Engine::new(EngineOptions::default());
    let job = Job::new("prog", PROG);
    let first = engine.compile(&job).unwrap();
    assert_eq!(first.provenance, Provenance::Fresh);
    assert_eq!(engine.jobs_compiled(), 1);
    let second = engine.compile(&job).unwrap();
    assert_eq!(
        second.provenance,
        Provenance::Memory,
        "repeat is served from cache"
    );
    assert_eq!(engine.jobs_compiled(), 1, "conversion was skipped");
    assert!(
        std::sync::Arc::ptr_eq(&first.artifact, &second.artifact),
        "both calls share one artifact"
    );
    let stats = engine.cache_stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
}

#[test]
fn disk_cache_survives_engine_restart() {
    let dir = std::env::temp_dir().join(format!("msc-engine-disk-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = EngineOptions {
        cache_dir: Some(dir.clone()),
        ..EngineOptions::default()
    };
    let first = Engine::new(opts.clone())
        .compile(&Job::new("p", PROG))
        .unwrap();
    // A fresh engine simulates a new `mscc` process: only the disk layer
    // can satisfy the lookup.
    let engine = Engine::new(opts);
    let second = engine.compile(&Job::new("p", PROG)).unwrap();
    assert_eq!(second.provenance, Provenance::Disk);
    assert_eq!(engine.jobs_compiled(), 0, "nothing was recompiled");
    assert_eq!(second.artifact.meta_states, first.artifact.meta_states);
    assert_eq!(
        second.artifact.automaton_text,
        first.artifact.automaton_text
    );
    // The reloaded program still runs: execute it and check per-PE results.
    let built = Pipeline::new(PROG).build().unwrap();
    let out = built.run(4).unwrap();
    let machine =
        msc_simd::SimdMachine::new(&second.artifact.simd, &msc_simd::MachineConfig::spmd(4));
    let mut machine = machine;
    machine
        .run(&second.artifact.simd, &msc_simd::MachineConfig::spmd(4))
        .unwrap();
    let ret = second.artifact.ret_addr.unwrap();
    for pe in 0..4 {
        assert_eq!(
            machine.poly_at(pe, ret),
            out.machine.poly_at(pe, built.ret_addr().unwrap())
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipeline_build_with_routes_through_engine() {
    let engine = Engine::new(EngineOptions::default());
    let built = Pipeline::new(PROG).build().unwrap();
    let compiled = Pipeline::new(PROG)
        .mode(ConvertMode::Base)
        .build_with(&engine, "prog")
        .unwrap();
    assert_eq!(compiled.provenance, Provenance::Fresh);
    // Same structure as the classic pipeline (numbering may differ only by
    // canonicalization; this program is straight-line so even the text
    // agrees).
    assert_eq!(compiled.artifact.automaton_text, built.automaton_text());
}
