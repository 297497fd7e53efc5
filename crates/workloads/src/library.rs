//! The bundled program library.
//!
//! Small, self-verifying PIPE assembly programs shipped with the
//! repository under `programs/`. They are compiled into the binary with
//! `include_str!`, so workloads built from them need no filesystem
//! access and hash reproducibly.

/// A named assembly program from `programs/`.
#[derive(Debug, Clone, Copy)]
pub struct LibraryProgram {
    /// Short name used on the command line and in workload keys.
    pub name: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// The assembly source text.
    pub source: &'static str,
}

/// Every bundled program, in display order.
pub const LIBRARY: &[LibraryProgram] = &[
    LibraryProgram {
        name: "matmul",
        title: "4x4 f32 matrix multiply via the memory-mapped FPU",
        source: include_str!("../../../programs/matmul.s"),
    },
    LibraryProgram {
        name: "sort",
        title: "bubble sort of eight words (store-heavy inner loop)",
        source: include_str!("../../../programs/sort.s"),
    },
    LibraryProgram {
        name: "memcpy",
        title: "16-word copy through the load/store queues",
        source: include_str!("../../../programs/memcpy.s"),
    },
];

/// Looks up a bundled program by name.
pub fn find(name: &str) -> Option<&'static LibraryProgram> {
    LIBRARY.iter().find(|p| p.name == name)
}

/// The names of every bundled program.
pub fn names() -> impl Iterator<Item = &'static str> {
    LIBRARY.iter().map(|p| p.name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipe_isa::{disassemble, write_program, Assembler, InstrFormat};

    #[test]
    fn find_is_exact() {
        assert!(find("matmul").is_some());
        assert!(find("matmull").is_none());
        assert_eq!(names().count(), LIBRARY.len());
    }

    #[test]
    fn every_program_assembles_in_both_formats() {
        for prog in LIBRARY {
            for format in [InstrFormat::Fixed32, InstrFormat::Mixed] {
                let p = Assembler::new(format)
                    .assemble(prog.source)
                    .unwrap_or_else(|e| panic!("{}: {e}", prog.name));
                assert!(p.static_count() > 0, "{}", prog.name);
            }
        }
    }

    #[test]
    fn every_program_round_trips_through_the_disassembler() {
        for prog in LIBRARY {
            let first = Assembler::new(InstrFormat::Fixed32)
                .assemble(prog.source)
                .unwrap();
            let text = disassemble(&first);
            let second = Assembler::new(InstrFormat::Fixed32)
                .assemble(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", prog.name));
            assert_eq!(
                write_program(&first),
                write_program(&second),
                "{} drifted through the disassembler",
                prog.name
            );
        }
    }
}
