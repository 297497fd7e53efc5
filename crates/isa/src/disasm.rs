//! A round-trippable disassembler.
//!
//! The disassembler emits valid assembly source: reassembling its output
//! with [`crate::Assembler`] reproduces the original image exactly
//! (parcels, base, entry, symbols, and data, in order), for any program
//! produced by the assembler.
//!
//! Programs built by other means round-trip on a best-effort basis:
//! symbols that do not sit on an instruction boundary or in the data
//! region are dropped, and an entry point different from the base cannot
//! be expressed.
//!
//! ```
//! use pipe_isa::{disassemble, Assembler, InstrFormat};
//!
//! let program = Assembler::new(InstrFormat::Fixed32)
//!     .assemble("start: lim r1, 3\nloop: subi r1, r1, 1\nlbr b0, loop\npbr.nez b0, r1, 0\nhalt\n")
//!     .unwrap();
//! let source = disassemble(&program);
//! let again = Assembler::new(InstrFormat::Fixed32).assemble(&source).unwrap();
//! assert_eq!(program.parcels(), again.parcels());
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::program::Program;

/// Disassembles `program` into reassemblable source text.
///
/// ```
/// use pipe_isa::{disassemble, Assembler, InstrFormat};
///
/// let p = Assembler::new(InstrFormat::Fixed32)
///     .assemble("nop\nhalt\n")
///     .unwrap();
/// let text = disassemble(&p);
/// assert!(text.starts_with(".org 0x0\n"));
/// assert!(text.contains("nop"));
/// assert!(text.contains("halt"));
/// ```
pub fn disassemble(program: &Program) -> String {
    let mut out = String::new();
    let mut labels: BTreeMap<u32, Vec<&str>> = BTreeMap::new();
    for (name, addr) in program.symbols() {
        labels.entry(*addr).or_default().push(name.as_str());
    }
    for names in labels.values_mut() {
        names.sort_unstable();
    }

    let _ = writeln!(out, ".org {:#x}", program.base());
    for (addr, instr) in program.instructions() {
        emit_labels_at(&mut out, &mut labels, addr);
        let _ = writeln!(out, "    {instr}");
    }

    // Data section. Words at or past the code end replay through the
    // location counter (`.org` + `.word`), which keeps labels attached.
    // An `.org` is only legal once a `.word` has closed the code section
    // (before that, the reassembler would pad the gap with nops), so until
    // then only words landing exactly at the location counter use the
    // `.word` form; everything else (backward or unaligned addresses)
    // falls back to the order-preserving `.data` form.
    let mut lc = program.end();
    let mut closed = false;
    for &(addr, value) in program.data() {
        let placeable = addr >= lc && addr % 4 == 0;
        if placeable && closed {
            drain_labels_through(&mut out, &mut labels, &mut lc, addr);
            if addr > lc {
                let _ = writeln!(out, ".org {addr:#x}");
                lc = addr;
            }
            let _ = writeln!(out, ".word {value:#x}");
            lc += 4;
        } else if placeable && addr == lc {
            emit_labels_at(&mut out, &mut labels, addr);
            let _ = writeln!(out, ".word {value:#x}");
            lc += 4;
            closed = true;
        } else {
            let _ = writeln!(out, ".data {addr:#x}, {value:#x}");
        }
    }

    // Labels past the last data word (e.g. an end-of-image marker).
    if closed {
        let trailing: Vec<u32> = labels.range(lc..).map(|(a, _)| *a).collect();
        for addr in trailing {
            if addr > lc {
                let _ = writeln!(out, ".org {addr:#x}");
                lc = addr;
            }
            emit_labels_at(&mut out, &mut labels, addr);
        }
    } else {
        // Without data the section is never closed; only labels sitting
        // exactly at the end of the image can be expressed.
        emit_labels_at(&mut out, &mut labels, lc);
    }
    out
}

fn emit_labels_at(out: &mut String, labels: &mut BTreeMap<u32, Vec<&str>>, addr: u32) {
    if let Some(names) = labels.remove(&addr) {
        for name in names {
            let _ = writeln!(out, "{name}:");
        }
    }
}

/// Emits every pending label in `lc..=addr`, advancing the location
/// counter with `.org` as needed.
fn drain_labels_through(
    out: &mut String,
    labels: &mut BTreeMap<u32, Vec<&str>>,
    lc: &mut u32,
    addr: u32,
) {
    let pending: Vec<u32> = labels.range(*lc..=addr).map(|(a, _)| *a).collect();
    for at in pending {
        if at > *lc {
            let _ = writeln!(out, ".org {at:#x}");
            *lc = at;
        }
        emit_labels_at(out, labels, at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::binfmt::write_program;
    use crate::format::InstrFormat;

    fn round_trip(src: &str, format: InstrFormat) {
        let first = Assembler::new(format).assemble(src).unwrap();
        let text = disassemble(&first);
        let second = Assembler::new(format)
            .assemble(&text)
            .unwrap_or_else(|e| panic!("round-trip failed: {e}\n--- source ---\n{text}"));
        assert_eq!(
            write_program(&first),
            write_program(&second),
            "--- disassembly ---\n{text}"
        );
    }

    #[test]
    fn includes_labels_and_addresses() {
        let p = Assembler::new(InstrFormat::Fixed32)
            .assemble("lim r1, 2\nlbr b0, top\ntop: subi r1, r1, 1\npbr.nez b0, r1, 0\nhalt\n")
            .unwrap();
        let text = disassemble(&p);
        assert!(text.contains("top:"), "{text}");
        assert!(text.starts_with(".org 0x0\n"), "{text}");
        assert!(text.contains("pbr.nez b0, r1, 0"), "{text}");
    }

    #[test]
    fn code_round_trips_in_both_formats() {
        let src = "start: lim r1, 3\nloop: subi r1, r1, 1\nlbr b0, loop\npbr.nez b0, r1, 0\nhalt\n";
        round_trip(src, InstrFormat::Fixed32);
        round_trip(src, InstrFormat::Mixed);
    }

    #[test]
    fn data_words_and_labels_round_trip() {
        round_trip(
            "halt\nvals: .word 1, 2, 3\n.org 0x100\nmore: .word 0xdeadbeef\nend_marker:\n",
            InstrFormat::Fixed32,
        );
    }

    #[test]
    fn legacy_data_pairs_round_trip() {
        round_trip(
            "halt\n.data 0x1000, 7\n.data 0x2, 9\n",
            InstrFormat::Fixed32,
        );
    }

    #[test]
    fn org_base_round_trips() {
        round_trip(
            ".org 0x200\nstart: nop\nhalt\n.word 5\n",
            InstrFormat::Mixed,
        );
    }

    #[test]
    fn every_mnemonic_round_trips() {
        round_trip(
            r#"
            nop
            halt
            xchg
            add  r1, r2, r3
            sub  r4, r5, r6
            and  r1, r2, r3
            or   r7, r7, r7
            xor  r1, r2, r3
            sll  r1, r2, r3
            srl  r1, r2, r3
            sra  r1, r2, r3
            addi r1, r2, -5
            andi r1, r2, 0xff
            lim  r1, -100
            lui  r1, 0xABCD
            ldw  r2, 16
            sta  r3, -16
            lbr  b0, 0x40
            lbrr b1, r4
            pbr  b0, r0, 0
            pbr.eqz b1, r1, 1
            pbr.nez b2, r2, 2
            pbr.gtz b3, r3, 3
            pbr.ltz b4, r4, 4
            pbr.never b5, r5, 5
            "#,
            InstrFormat::Fixed32,
        );
    }

    #[test]
    fn interleaved_word_and_data_round_trip() {
        // The backward `.word 2` (address 8 after lc has advanced past it)
        // falls back to `.data`, preserving the pair order.
        let p = Assembler::new(InstrFormat::Fixed32)
            .assemble("halt\n.word 1\n.data 0x1000, 7\n")
            .unwrap();
        let text = disassemble(&p);
        let again = Assembler::new(InstrFormat::Fixed32)
            .assemble(&text)
            .unwrap();
        assert_eq!(p.data(), again.data());
    }
}
