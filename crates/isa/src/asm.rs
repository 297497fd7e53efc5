//! The assembler: PIPE assembly text to a [`Program`].
//!
//! Besides the mnemonics, the pseudo-instructions (`mov`, `li32`, `push`,
//! `pop`) and the `.data`/`.equ`/`.align` directives, the grammar has:
//!
//! * `.org addr` — place subsequent code/data at `addr` (forward only;
//!   gaps inside the code section are filled with `nop`s),
//! * `.word value[, value...]` — emit initial data words at the location
//!   counter; values may be labels,
//! * `li32 rd, label` — load a label's 32-bit byte address,
//! * column-precise [`AsmError`] diagnostics.
//!
//! This module is the public entry point and holds the grammar's tests;
//! the two passes live in the crate-private `assemble` module, next to
//! their layout and diagnostic tests.

use crate::error::AsmError;
use crate::format::InstrFormat;
use crate::program::Program;

/// Assembles PIPE assembly text into a [`Program`].
///
/// ```
/// use pipe_isa::{Assembler, InstrFormat};
///
/// let p = Assembler::new(InstrFormat::Fixed32)
///     .assemble(".org 0x40\nstart: lim r1, 3\nhalt\n.word 7, 9\n")
///     .unwrap();
/// assert_eq!(p.base(), 0x40);
/// assert_eq!(p.symbols()["start"], 0x40);
/// assert_eq!(p.data(), &[(0x48, 7), (0x4c, 9)]);
/// ```
#[derive(Debug, Clone)]
pub struct Assembler {
    format: InstrFormat,
    base: u32,
}

impl Assembler {
    /// Creates an assembler targeting `format`, with code based at 0.
    pub fn new(format: InstrFormat) -> Assembler {
        Assembler { format, base: 0 }
    }

    /// Sets the default code base address (parcel-aligned), used when the
    /// source has no leading `.org`.
    pub fn base(mut self, base: u32) -> Assembler {
        self.base = base;
        self
    }

    /// Assembles `source` into a program.
    ///
    /// # Errors
    ///
    /// Returns an [`AsmError`] identifying the offending source line and
    /// column.
    pub fn assemble(&self, source: &str) -> Result<Program, AsmError> {
        crate::assemble::assemble(self.format, self.base, source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::AsmErrorKind;
    use crate::instruction::Instruction;

    fn asm(src: &str) -> Program {
        Assembler::new(InstrFormat::Fixed32)
            .assemble(src)
            .unwrap_or_else(|e| panic!("assembly failed: {e}"))
    }

    #[test]
    fn assembles_every_mnemonic() {
        let p = asm(r#"
            nop
            halt
            xchg
            add  r1, r2, r3
            sub  r1, r2, r3
            and  r1, r2, r3
            or   r7, r7, r7
            xor  r1, r2, r3
            sll  r1, r2, r3
            srl  r1, r2, r3
            sra  r1, r2, r3
            addi r1, r2, -5
            subi r1, r2, 5
            andi r1, r2, 0xff
            ori  r1, r2, 1
            xori r1, r2, 1
            slli r1, r2, 3
            srli r1, r2, 3
            srai r1, r2, 3
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
        "#);
        assert_eq!(p.static_count(), 31);
    }

    #[test]
    fn labels_and_comments() {
        let p = asm("start: nop ; comment\n  lbr b0, start # another\n");
        assert_eq!(p.symbols()["start"], 0);
    }

    #[test]
    fn multiple_labels_one_line() {
        let p = asm("a: b: nop\n");
        assert_eq!(p.symbols()["a"], 0);
        assert_eq!(p.symbols()["b"], 0);
    }

    #[test]
    fn data_directive() {
        let p = asm(".data 0x1000, 7\nhalt\n");
        assert_eq!(p.data(), &[(0x1000, 7)]);
    }

    #[test]
    fn error_reports_line() {
        let e = Assembler::new(InstrFormat::Fixed32)
            .assemble("nop\nbogus r1\n")
            .unwrap_err();
        assert_eq!(e.line(), 2);
        assert!(matches!(e.kind(), AsmErrorKind::UnknownMnemonic(_)));
    }

    #[test]
    fn bad_register_reported() {
        let e = Assembler::new(InstrFormat::Fixed32)
            .assemble("add r9, r1, r2\n")
            .unwrap_err();
        assert!(matches!(e.kind(), AsmErrorKind::BadRegister(_)));
    }

    #[test]
    fn delay_out_of_range() {
        let e = Assembler::new(InstrFormat::Fixed32)
            .assemble("pbr b0, r0, 8\n")
            .unwrap_err();
        assert!(matches!(e.kind(), AsmErrorKind::BadImmediate(_)));
    }

    #[test]
    fn undefined_label_surfaces_as_build_error() {
        let e = Assembler::new(InstrFormat::Fixed32)
            .assemble("lbr b0, missing\n")
            .unwrap_err();
        assert!(matches!(e.kind(), AsmErrorKind::UndefinedLabel(_)));
    }

    #[test]
    fn equ_constants_substitute() {
        let p = asm(".equ FPU, -4096\n.equ COUNT, 5\nlim r5, FPU\nlim r1, COUNT\nhalt\n");
        let instrs: Vec<_> = p.instructions().map(|(_, i)| i).collect();
        assert_eq!(
            instrs[0],
            Instruction::Lim {
                rd: crate::Reg::new(5),
                imm: -4096
            }
        );
        assert_eq!(
            instrs[1],
            Instruction::Lim {
                rd: crate::Reg::new(1),
                imm: 5
            }
        );
    }

    #[test]
    fn align_pads_with_nops() {
        let p = asm("nop\n.align 16\nhere: halt\n");
        assert_eq!(p.symbols()["here"], 16);
        // Three nops inserted between the first nop and halt.
        assert_eq!(p.static_count(), 5);
    }

    #[test]
    fn pseudo_instructions_expand() {
        let p = asm("mov r1, r2\nli32 r3, 0x12345678\npush r1\npop r4\nhalt\n");
        let instrs: Vec<_> = p.instructions().map(|(_, i)| i).collect();
        assert_eq!(instrs.len(), 6, "li32 expands to two instructions");
        assert_eq!(
            instrs[1],
            Instruction::Lim {
                rd: crate::Reg::new(3),
                imm: 0x5678
            }
        );
        assert_eq!(
            instrs[2],
            Instruction::Lui {
                rd: crate::Reg::new(3),
                imm: 0x1234
            }
        );
        assert!(matches!(instrs[3], Instruction::Alu { rd, .. } if rd.is_queue()));
    }

    #[test]
    fn bad_align_reported() {
        let e = Assembler::new(InstrFormat::Fixed32)
            .assemble("nop\n.align 6\nhalt\n")
            .unwrap_err();
        assert!(matches!(e.kind(), AsmErrorKind::BadAlignment(6)));
    }

    #[test]
    fn hex_immediates_accept_u16_range() {
        let p = asm("lim r0, 0xFFFF\n");
        match p.instructions().next().unwrap().1 {
            Instruction::Lim { imm, .. } => assert_eq!(imm, -1),
            other => panic!("unexpected {other}"),
        }
    }
}
