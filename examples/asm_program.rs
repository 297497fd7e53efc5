//! Assemble a bundled program, disassemble it round-trip, and study the I-vs-D memory-port contention with and
//! without a data cache.
//!
//! ```sh
//! cargo run --release --example asm_program
//! ```

use pipe_repro::core::{run_program, SimConfig, SimStats};
use pipe_repro::experiments::figure_mem;
use pipe_repro::icache::PrefetchPolicy;
use pipe_repro::isa::{disassemble, Assembler, InstrFormat};
use pipe_repro::mem::{DCacheConfig, MemConfig};
use pipe_repro::workloads::{find_program, LIBRARY};

fn main() {
    // The bundled program library ships with the workloads crate.
    println!("bundled programs:");
    for p in LIBRARY {
        println!("  {:<8} {}", p.name, p.title);
    }

    // Assemble matmul: two-pass, labels and directives resolved.
    let lib = find_program("matmul").expect("matmul is bundled");
    let program = Assembler::new(InstrFormat::Fixed32)
        .assemble(lib.source)
        .expect("bundled matmul assembles");
    println!(
        "\nmatmul: {} parcels, {} code bytes",
        program.parcels().len(),
        program.code_bytes()
    );

    // The disassembler output re-assembles to the same parcel image.
    let listing = disassemble(&program);
    let again = Assembler::new(InstrFormat::Fixed32)
        .assemble(&listing)
        .expect("disassembly re-assembles");
    assert_eq!(program.parcels(), again.parcels());
    assert_eq!(program.data(), again.data());
    println!("round-trip: disassembly re-assembles bit-identically");

    // Run under the paper's slow 6-cycle, 4-byte-bus memory (figure 5a),
    // where every data access competes with instruction fetch for the
    // single memory port.
    let (mem, mem_desc) = figure_mem("5a");
    let fetch = pipe_repro::experiments::StrategyKind::Pipe16x16
        .fetch_for(128, PrefetchPolicy::TruePrefetch)
        .expect("pipe 16-16 supports 128B");
    let run = |d_cache: Option<DCacheConfig>| -> SimStats {
        let config = SimConfig {
            fetch,
            mem: MemConfig { d_cache, ..mem },
            ..SimConfig::default()
        };
        run_program(&program, &config).expect("matmul runs")
    };

    let without = run(None);
    let with = run(Some(DCacheConfig {
        size_bytes: 256,
        line_bytes: 16,
        ways: 2,
    }));

    println!("\nmemory: {mem_desc}");
    println!(
        "no D-cache:   {} cycles, {} contended cycles",
        without.cycles, without.mem.contended_cycles
    );
    println!(
        "256B D-cache: {} cycles, {} contended cycles, {} hits / {} misses ({:.1}% hit rate)",
        with.cycles,
        with.mem.contended_cycles,
        with.mem.d_hits,
        with.mem.d_misses,
        100.0 * with.mem.d_hits as f64 / (with.mem.d_hits + with.mem.d_misses).max(1) as f64,
    );
    println!(
        "speedup from the data side: {:.2}x",
        without.cycles as f64 / with.cycles as f64
    );
}
