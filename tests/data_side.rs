//! The D-cache data side: backward compatibility and the joint I/D sweep.
//!
//! The data cache is strictly opt-in. The first test is the regression
//! gate for that claim: with `d_cache: None` (the default), timing and
//! statistics are bit-identical to the seed simulator — pinned against
//! the same golden Livermore number `tests/golden_stats.rs` records —
//! and the store/JSON surfaces emit no new key material, so every
//! pre-D-cache store entry and coalescing key stays valid.
//!
//! The remaining tests cover the enabled path: hits bypass the shared
//! memory port, misses compete with instruction fetch (contended
//! cycles), and the joint I/D figure sweeps both dimensions on an
//! assembled program and round-trips its new statistics through the
//! result store.

use std::sync::Arc;

use pipe_repro::core::{run_decoded, run_program, SimConfig};
use pipe_repro::experiments::{
    figure_mem, mem_key, try_joint_id_figure_with, ResultStore, StrategyKind, SweepRunner,
    JOINT_ID_FIGURE,
};
use pipe_repro::icache::PrefetchPolicy;
use pipe_repro::isa::{DecodedProgram, InstrFormat};
use pipe_repro::mem::{DCacheConfig, MemConfig};

fn matmul_program() -> pipe_repro::isa::Program {
    let lib = pipe_repro::workloads::find_program("matmul").expect("matmul is bundled");
    pipe_repro::isa::Assembler::new(InstrFormat::Fixed32)
        .assemble(lib.source)
        .expect("bundled matmul assembles")
}

#[test]
fn disabled_d_cache_is_bit_identical_to_the_seed() {
    // The default configuration carries no data cache...
    assert!(MemConfig::default().d_cache.is_none());
    let (mem, _) = figure_mem("4a");
    assert!(mem.d_cache.is_none(), "paper figures run without a D-cache");

    // ...and produces the exact golden cycle count the seed recorded
    // (conventional engine, 128-byte cache, Livermore; see
    // tests/golden_stats.rs).
    let suite = pipe_repro::workloads::livermore_benchmark();
    let decoded = Arc::new(DecodedProgram::new(suite.program().clone()));
    let fetch = StrategyKind::Conventional
        .fetch_for(128, PrefetchPolicy::TruePrefetch)
        .expect("conventional supports 128B");
    let cfg = SimConfig {
        fetch,
        mem: MemConfig {
            d_cache: None,
            ..mem
        },
        max_cycles: 2_000_000_000,
        ..SimConfig::default()
    };
    let stats = run_decoded(&decoded, &cfg).expect("livermore runs to halt");
    assert_eq!(stats.cycles, 303_006, "seed golden cycles");
    assert_eq!(stats.mem.d_hits, 0);
    assert_eq!(stats.mem.d_misses, 0);
    assert_eq!(stats.mem.d_store_hits, 0);
}

#[test]
fn mem_key_without_d_cache_is_unchanged() {
    // Pre-D-cache store entries and request-coalescing keys must remain
    // byte-identical, so the dcache fragment only appears when set.
    let base = figure_mem("4a").0;
    assert!(!mem_key(&base).contains("dcache"));
    let with = MemConfig {
        d_cache: Some(DCacheConfig {
            size_bytes: 128,
            line_bytes: 16,
            ways: 2,
        }),
        ..base
    };
    let key = mem_key(&with);
    assert!(
        key.contains("dcache=size=128,line=16,ways=2"),
        "dcache fragment present: {key}"
    );
    assert!(
        key.starts_with(&mem_key(&base)),
        "dcache fragment strictly appends: {key}"
    );
}

#[test]
fn d_cache_hits_bypass_the_port_and_change_timing() {
    let program = matmul_program();
    // Slow, narrow memory: every data access that misses competes with
    // instruction fetch for the single port.
    let (base, _) = figure_mem("5a");
    let fetch = StrategyKind::Pipe16x16
        .fetch_for(128, PrefetchPolicy::TruePrefetch)
        .expect("pipe 16-16 supports 128B");
    let run = |d_cache| {
        let cfg = SimConfig {
            fetch,
            mem: MemConfig { d_cache, ..base },
            max_cycles: 2_000_000_000,
            ..SimConfig::default()
        };
        run_program(&program, &cfg).expect("matmul runs to halt")
    };
    let without = run(None);
    let with = run(Some(DCacheConfig {
        size_bytes: 256,
        line_bytes: 16,
        ways: 2,
    }));

    // Same architectural work either way.
    assert_eq!(with.instructions_issued, without.instructions_issued);
    assert_eq!(with.loads, without.loads);
    assert_eq!(with.stores, without.stores);

    // The enabled run observes data locality and relieves the port.
    assert!(with.mem.d_hits > 0, "matmul has data locality");
    assert!(with.mem.d_misses > 0, "cold lines still miss");
    assert!(
        with.cycles < without.cycles,
        "d-cache hits relieve port contention: {} !< {}",
        with.cycles,
        without.cycles
    );
    assert_eq!(without.mem.d_hits, 0, "disabled run counts nothing");
}

#[test]
fn joint_id_figure_sweeps_both_dimensions_and_round_trips_the_store() {
    let dir = std::env::temp_dir().join(format!("pipe-joint-id-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let runner = SweepRunner::new()
        .store(ResultStore::open(&dir).unwrap())
        .resume(true);
    let run = try_joint_id_figure_with(&runner).expect("joint sweep completes");
    assert!(run.outcome.is_complete());
    assert_eq!(run.figure.id, format!("fig{JOINT_ID_FIGURE}"));

    // 2 strategies x 4 D-cache settings, 6 I-cache sizes each.
    assert_eq!(run.figure.series.len(), 8);
    for s in &run.figure.series {
        assert_eq!(s.points.len(), 6, "{}: full I-size sweep", s.label);
    }
    assert_eq!(
        run.figure
            .series
            .iter()
            .filter(|s| !s.label.contains("no-d$"))
            .count(),
        6,
        "three D-cache settings per strategy"
    );

    // D-cache series observe hits; the baseline series observe none.
    for s in &run.figure.series {
        let hits: u64 = s.points.iter().map(|p| p.stats.mem.d_hits).sum();
        if s.label.contains("no-d$") {
            assert_eq!(hits, 0, "{}: no D-cache, no hits", s.label);
        } else {
            assert!(hits > 0, "{}: D-cache sees matmul's locality", s.label);
        }
    }

    // A second run resolves entirely from the store, with the new
    // counters intact — the extended schema round-trips.
    let rerun = try_joint_id_figure_with(
        &SweepRunner::new()
            .store(ResultStore::open(&dir).unwrap())
            .resume(true),
    )
    .expect("cached joint sweep completes");
    assert_eq!(rerun.outcome.computed, 0, "everything cached");
    assert_eq!(
        rerun.outcome.cached,
        run.outcome.cached + run.outcome.computed
    );
    for (a, b) in run.figure.series.iter().zip(&rerun.figure.series) {
        assert_eq!(a.label, b.label);
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert_eq!(pa.cycles, pb.cycles, "{}: cycles round-trip", a.label);
            assert_eq!(
                pa.stats.mem.d_hits, pb.stats.mem.d_hits,
                "{}: d_hits round-trip",
                a.label
            );
            assert_eq!(
                pa.stats.mem.d_misses, pb.stats.mem.d_misses,
                "{}: d_misses round-trip",
                a.label
            );
            assert_eq!(
                pa.stats.mem.contended_cycles, pb.stats.mem.contended_cycles,
                "{}: contended_cycles round-trip",
                a.label
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
