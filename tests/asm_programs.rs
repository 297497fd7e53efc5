//! The bundled assembly programs run correctly on every fetch engine,
//! with and without the on-chip D-cache, in both instruction formats.

use pipe_repro::prelude::*;

fn engines() -> Vec<FetchStrategy> {
    vec![
        FetchStrategy::Perfect,
        FetchStrategy::conventional(CacheConfig::new(64, 16)),
        FetchStrategy::Pipe(PipeFetchConfig::table2(64, 16, 16, 16)),
    ]
}

fn run(
    program: &Program,
    fetch: FetchStrategy,
    dcache: Option<pipe_repro::mem::DCacheConfig>,
) -> Processor {
    let cfg = SimConfig {
        fetch,
        mem: pipe_repro::mem::MemConfig {
            access_cycles: 4,
            d_cache: dcache,
            ..Default::default()
        },
        ..SimConfig::default()
    };
    let mut proc = Processor::new(program, &cfg).expect("valid config");
    proc.run().expect("program runs to halt");
    proc
}

fn assemble(name: &str, format: InstrFormat) -> Program {
    let lib = pipe_repro::workloads::find_program(name).expect("bundled program");
    Assembler::new(format)
        .assemble(lib.source)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn words(proc: &Processor, base: u32, count: u32) -> Vec<u32> {
    (0..count)
        .map(|i| proc.mem().data().read(base + 4 * i))
        .collect()
}

fn dcache_cfg() -> Option<pipe_repro::mem::DCacheConfig> {
    Some(pipe_repro::mem::DCacheConfig {
        size_bytes: 64,
        line_bytes: 16,
        ways: 2,
    })
}

#[test]
fn matmul_computes_identity_product_everywhere() {
    for format in [InstrFormat::Fixed32, InstrFormat::Mixed] {
        let program = assemble("matmul", format);
        let a = program.symbols()["amat"];
        let c = program.symbols()["cmat"];
        for fetch in engines() {
            for dc in [None, dcache_cfg()] {
                let proc = run(&program, fetch, dc);
                let expect = words(&proc, a, 16);
                let got = words(&proc, c, 16);
                assert_eq!(got, expect, "C = A * I under {fetch} ({format:?})");
                assert_eq!(got[0], 0x3f80_0000, "C[0][0] is 1.0f32");
            }
        }
    }
}

#[test]
fn sort_orders_the_array_everywhere() {
    for format in [InstrFormat::Fixed32, InstrFormat::Mixed] {
        let program = assemble("sort", format);
        let base = program.symbols()["values"];
        for fetch in engines() {
            for dc in [None, dcache_cfg()] {
                let proc = run(&program, fetch, dc);
                assert_eq!(
                    words(&proc, base, 8),
                    vec![1, 2, 3, 4, 5, 6, 7, 8],
                    "sorted under {fetch} ({format:?})"
                );
            }
        }
    }
}

#[test]
fn memcpy_copies_all_words_everywhere() {
    for format in [InstrFormat::Fixed32, InstrFormat::Mixed] {
        let program = assemble("memcpy", format);
        let src = program.symbols()["src"];
        let dst = program.symbols()["dst"];
        for fetch in engines() {
            for dc in [None, dcache_cfg()] {
                let proc = run(&program, fetch, dc);
                assert_eq!(
                    words(&proc, dst, 16),
                    words(&proc, src, 16),
                    "copied under {fetch} ({format:?})"
                );
                assert_eq!(proc.mem().data().read(dst), 0x101);
            }
        }
    }
}

#[test]
fn dcache_speeds_up_sort_without_changing_results() {
    let program = assemble("sort", InstrFormat::Fixed32);
    let fetch = FetchStrategy::conventional(CacheConfig::new(64, 16));
    let plain = run(&program, fetch, None);
    let cached = run(&program, fetch, dcache_cfg());
    assert_eq!(
        words(&plain, 0x400, 8),
        words(&cached, 0x400, 8),
        "architectural state must not depend on the D-cache"
    );
    let stats = cached.mem().stats();
    assert!(stats.d_hits > 0, "re-read neighbours should hit");
    assert!(
        cached.stats().cycles < plain.stats().cycles,
        "D-cache hits must shorten the run: {} vs {}",
        cached.stats().cycles,
        plain.stats().cycles
    );
}

#[test]
fn assembled_binaries_survive_the_binfmt_round_trip() {
    for lib in LIBRARY {
        let program = Assembler::new(InstrFormat::Fixed32)
            .assemble(lib.source)
            .unwrap();
        let bytes = pipe_repro::isa::write_program(&program);
        let back = pipe_repro::isa::read_program(&bytes).expect("reads back");
        assert_eq!(back.parcels(), program.parcels(), "{}", lib.name);
        assert_eq!(back.data(), program.data());
        assert_eq!(back.symbols(), program.symbols());
    }
}
