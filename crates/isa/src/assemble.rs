//! The assembler's two passes.
//!
//! Pass 1 parses the source line by line, tracking a single location
//! counter, defining labels, and collecting instructions (possibly with
//! unresolved label references) plus section data. Pass 2 resolves every
//! label, encodes the parcel image, and builds the final [`Program`].
//!
//! The image is laid out as one contiguous code section followed by data:
//! the first `.word` closes the code section, and instructions after it
//! are an error ([`AsmErrorKind::CodeAfterData`]).

use std::collections::HashMap;

use crate::encode::encode;
use crate::error::{AsmError, AsmErrorKind};
use crate::format::InstrFormat;
use crate::instruction::{AluOp, Cond, Instruction};
use crate::program::Program;
use crate::reg::{BranchReg, Reg};

/// Assembles `source` with code based at `base` unless a leading `.org`
/// moves it.
pub(crate) fn assemble(format: InstrFormat, base: u32, source: &str) -> Result<Program, AsmError> {
    let mut pass = Pass1::new(format, base);
    for (idx, raw) in source.lines().enumerate() {
        pass.parse_line(strip_comment(raw), idx + 1)?;
    }
    pass.finish()
}

/// An instruction collected in pass 1, possibly awaiting label resolution.
#[derive(Debug, Clone)]
enum PendingInstr {
    Ready(Instruction),
    LbrLabel {
        br: BranchReg,
        label: String,
        line: usize,
        col: usize,
    },
    /// Low half of `li32 rd, label` (`lim`).
    LabelLo {
        rd: Reg,
        label: String,
        line: usize,
        col: usize,
    },
    /// High half of `li32 rd, label` (`lui`).
    LabelHi {
        rd: Reg,
        label: String,
        line: usize,
        col: usize,
    },
}

impl PendingInstr {
    fn size_bytes(&self, format: InstrFormat) -> u32 {
        match self {
            // `lbr`, `lim`, and `lui` all carry immediates: two parcels
            // in both formats.
            PendingInstr::LbrLabel { .. }
            | PendingInstr::LabelLo { .. }
            | PendingInstr::LabelHi { .. } => 2 * crate::PARCEL_BYTES,
            PendingInstr::Ready(i) => i.size_bytes(format),
        }
    }
}

/// A data item collected in pass 1.
#[derive(Debug, Clone)]
enum DataItem {
    /// A `.word` at the location counter; the value may be a label.
    Word { addr: u32, value: WordExpr },
    /// A verbatim `.data addr, value` pair (kept in source order).
    Pair { addr: u32, value: u32 },
}

#[derive(Debug, Clone)]
enum WordExpr {
    Value(u32),
    Label {
        name: String,
        line: usize,
        col: usize,
    },
}

/// A single operand with its source column.
#[derive(Debug, Clone, Copy)]
struct Operand<'a> {
    text: &'a str,
    col: usize,
}

struct Pass1 {
    format: InstrFormat,
    base: u32,
    lc: u32,
    /// Whether any code or `.word` has pinned the layout (a leading
    /// `.org` may still move the base before this).
    placed: bool,
    code: Vec<PendingInstr>,
    /// `Some(end)` once the first `.word` closed the code section.
    code_end: Option<u32>,
    data: Vec<DataItem>,
    symbols: HashMap<String, u32>,
    equs: HashMap<String, i64>,
}

impl Pass1 {
    fn new(format: InstrFormat, base: u32) -> Pass1 {
        Pass1 {
            format,
            base,
            lc: base,
            placed: false,
            code: Vec::new(),
            code_end: None,
            data: Vec::new(),
            symbols: HashMap::new(),
            equs: HashMap::new(),
        }
    }

    fn nop_bytes(&self) -> u32 {
        Instruction::Nop.size_bytes(self.format)
    }

    fn define_label(&mut self, name: &str, no: usize, col: usize) -> Result<(), AsmError> {
        if self.symbols.contains_key(name) {
            return Err(AsmError::new(
                no,
                col,
                AsmErrorKind::DuplicateLabel(name.to_string()),
            ));
        }
        self.symbols.insert(name.to_string(), self.lc);
        Ok(())
    }

    fn emit(&mut self, instr: PendingInstr, no: usize, col: usize) -> Result<(), AsmError> {
        if self.code_end.is_some() {
            return Err(AsmError::new(no, col, AsmErrorKind::CodeAfterData));
        }
        self.placed = true;
        self.lc += instr.size_bytes(self.format);
        self.code.push(instr);
        Ok(())
    }

    fn push(&mut self, instr: Instruction, no: usize, col: usize) -> Result<(), AsmError> {
        self.emit(PendingInstr::Ready(instr), no, col)
    }

    /// Advances the location counter to `to` inside the code section by
    /// emitting `nop` padding.
    fn pad_code_to(
        &mut self,
        to: u32,
        no: usize,
        col: usize,
        align_err: bool,
    ) -> Result<(), AsmError> {
        let gap = to - self.lc;
        let nop = self.nop_bytes();
        if !gap.is_multiple_of(nop) {
            let kind = if align_err {
                AsmErrorKind::BadAlignment(gap)
            } else {
                AsmErrorKind::Misaligned {
                    addr: to,
                    need: nop,
                }
            };
            return Err(AsmError::new(no, col, kind));
        }
        for _ in 0..gap / nop {
            self.push(Instruction::Nop, no, col)?;
        }
        Ok(())
    }

    fn parse_line(&mut self, line: &str, no: usize) -> Result<(), AsmError> {
        let mut rest = line;
        let mut off = 0usize;
        // Leading labels (there may be several on one line).
        while let Some(colon) = rest.find(':') {
            let before = &rest[..colon];
            let label = before.trim();
            if label.is_empty() || !is_ident(label) {
                break;
            }
            let col = off + (before.len() - before.trim_start().len()) + 1;
            self.define_label(label, no, col)?;
            off += colon + 1;
            rest = &rest[colon + 1..];
        }
        let body = rest.trim_start();
        if body.is_empty() {
            return Ok(());
        }
        let lead = rest.len() - body.len();
        let mcol = off + lead + 1;
        let (mnemonic, ops_str, ops_off) = match body.find(char::is_whitespace) {
            Some(p) => (&body[..p], &body[p..], off + lead + p),
            None => (body, "", off + lead + body.len()),
        };
        let ops = split_operands(ops_str, ops_off);
        self.parse_instr(mnemonic, mcol, &ops, no)
    }

    fn parse_instr(
        &mut self,
        mnemonic: &str,
        mcol: usize,
        ops: &[Operand<'_>],
        no: usize,
    ) -> Result<(), AsmError> {
        let m = mnemonic.to_ascii_lowercase();

        // pbr and its condition suffixes.
        if let Some(suffix) = m.strip_prefix("pbr") {
            let cond = match suffix {
                "" => Cond::Always,
                ".eqz" => Cond::Eqz,
                ".nez" => Cond::Nez,
                ".gtz" => Cond::Gtz,
                ".ltz" => Cond::Ltz,
                ".never" => Cond::Never,
                _ => {
                    return Err(AsmError::new(
                        no,
                        mcol,
                        AsmErrorKind::UnknownMnemonic(mnemonic.to_string()),
                    ))
                }
            };
            want(ops, 3, mnemonic, no, mcol)?;
            let br = self.parse_breg(&ops[0], no)?;
            let rs = self.parse_reg(&ops[1], no)?;
            let delay = self.parse_int(&ops[2], no)?;
            if !(0..8).contains(&delay) {
                return Err(bad_imm(&ops[2], no));
            }
            return self.push(
                Instruction::Pbr {
                    cond,
                    br,
                    rs,
                    delay: delay as u8,
                },
                no,
                mcol,
            );
        }

        if m.starts_with('.') {
            return self.parse_directive(&m, mnemonic, mcol, ops, no);
        }

        // Pseudo-instructions.
        match m.as_str() {
            // `mov rd, rs` → `or rd, rs, rs`
            "mov" => {
                want(ops, 2, mnemonic, no, mcol)?;
                let rd = self.parse_reg(&ops[0], no)?;
                let rs = self.parse_reg(&ops[1], no)?;
                return self.push(
                    Instruction::Alu {
                        op: AluOp::Or,
                        rd,
                        rs1: rs,
                        rs2: rs,
                    },
                    no,
                    mcol,
                );
            }
            // `li32 rd, imm32|label` → `lim rd, low16` ; `lui rd, high16`
            "li32" => {
                want(ops, 2, mnemonic, no, mcol)?;
                let rd = self.parse_reg(&ops[0], no)?;
                let arg = &ops[1];
                if !self.equs.contains_key(arg.text)
                    && !arg
                        .text
                        .starts_with(|c: char| c.is_ascii_digit() || c == '-')
                    && is_ident(arg.text)
                {
                    let label = arg.text.to_string();
                    self.emit(
                        PendingInstr::LabelLo {
                            rd,
                            label: label.clone(),
                            line: no,
                            col: arg.col,
                        },
                        no,
                        mcol,
                    )?;
                    return self.emit(
                        PendingInstr::LabelHi {
                            rd,
                            label,
                            line: no,
                            col: arg.col,
                        },
                        no,
                        mcol,
                    );
                }
                let v = self.parse_int(arg, no)?;
                if !(i64::from(i32::MIN)..=i64::from(u32::MAX)).contains(&v) {
                    return Err(bad_imm(arg, no));
                }
                let v = v as u32;
                self.push(
                    Instruction::Lim {
                        rd,
                        imm: (v & 0xFFFF) as u16 as i16,
                    },
                    no,
                    mcol,
                )?;
                return self.push(
                    Instruction::Lui {
                        rd,
                        imm: (v >> 16) as u16,
                    },
                    no,
                    mcol,
                );
            }
            // `push rs` → `or r7, rs, rs` (SDQ push)
            "push" => {
                want(ops, 1, mnemonic, no, mcol)?;
                let rs = self.parse_reg(&ops[0], no)?;
                return self.push(
                    Instruction::Alu {
                        op: AluOp::Or,
                        rd: Reg::QUEUE,
                        rs1: rs,
                        rs2: rs,
                    },
                    no,
                    mcol,
                );
            }
            // `pop rd` → `or rd, r7, r7` (LDQ pop)
            "pop" => {
                want(ops, 1, mnemonic, no, mcol)?;
                let rd = self.parse_reg(&ops[0], no)?;
                return self.push(
                    Instruction::Alu {
                        op: AluOp::Or,
                        rd,
                        rs1: Reg::QUEUE,
                        rs2: Reg::QUEUE,
                    },
                    no,
                    mcol,
                );
            }
            _ => {}
        }

        // Immediate ALU forms (addi, subi, ... but not the register forms).
        if let Some(stem) = m.strip_suffix('i') {
            if let Some(op) = alu_op(stem) {
                want(ops, 3, mnemonic, no, mcol)?;
                let rd = self.parse_reg(&ops[0], no)?;
                let rs1 = self.parse_reg(&ops[1], no)?;
                let imm = self.parse_i16(&ops[2], no)?;
                return self.push(Instruction::AluImm { op, rd, rs1, imm }, no, mcol);
            }
        }

        if let Some(op) = alu_op(&m) {
            want(ops, 3, mnemonic, no, mcol)?;
            let rd = self.parse_reg(&ops[0], no)?;
            let rs1 = self.parse_reg(&ops[1], no)?;
            let rs2 = self.parse_reg(&ops[2], no)?;
            return self.push(Instruction::Alu { op, rd, rs1, rs2 }, no, mcol);
        }

        match m.as_str() {
            "nop" => {
                want(ops, 0, mnemonic, no, mcol)?;
                self.push(Instruction::Nop, no, mcol)
            }
            "halt" => {
                want(ops, 0, mnemonic, no, mcol)?;
                self.push(Instruction::Halt, no, mcol)
            }
            "xchg" => {
                want(ops, 0, mnemonic, no, mcol)?;
                self.push(Instruction::Xchg, no, mcol)
            }
            "lim" => {
                want(ops, 2, mnemonic, no, mcol)?;
                let rd = self.parse_reg(&ops[0], no)?;
                let imm = self.parse_i16(&ops[1], no)?;
                self.push(Instruction::Lim { rd, imm }, no, mcol)
            }
            "lui" => {
                want(ops, 2, mnemonic, no, mcol)?;
                let rd = self.parse_reg(&ops[0], no)?;
                let imm = self.parse_u16(&ops[1], no)?;
                self.push(Instruction::Lui { rd, imm }, no, mcol)
            }
            "ldw" => {
                want(ops, 2, mnemonic, no, mcol)?;
                let base = self.parse_reg(&ops[0], no)?;
                let disp = self.parse_i16(&ops[1], no)?;
                self.push(Instruction::Load { base, disp }, no, mcol)
            }
            "sta" => {
                want(ops, 2, mnemonic, no, mcol)?;
                let base = self.parse_reg(&ops[0], no)?;
                let disp = self.parse_i16(&ops[1], no)?;
                self.push(Instruction::StoreAddr { base, disp }, no, mcol)
            }
            "lbr" => {
                want(ops, 2, mnemonic, no, mcol)?;
                let br = self.parse_breg(&ops[0], no)?;
                let target = &ops[1];
                // Numeric operand = absolute byte address; otherwise a label.
                if target
                    .text
                    .starts_with(|c: char| c.is_ascii_digit() || c == '-')
                {
                    let addr = self.parse_int(target, no)? as u32;
                    self.push(
                        Instruction::Lbr {
                            br,
                            target_parcel: (addr / 2) as u16,
                        },
                        no,
                        mcol,
                    )
                } else if is_ident(target.text) {
                    self.emit(
                        PendingInstr::LbrLabel {
                            br,
                            label: target.text.to_string(),
                            line: no,
                            col: target.col,
                        },
                        no,
                        mcol,
                    )
                } else {
                    Err(bad_imm(target, no))
                }
            }
            "lbrr" => {
                want(ops, 2, mnemonic, no, mcol)?;
                let br = self.parse_breg(&ops[0], no)?;
                let rs1 = self.parse_reg(&ops[1], no)?;
                self.push(Instruction::LbrReg { br, rs1 }, no, mcol)
            }
            _ => Err(AsmError::new(
                no,
                mcol,
                AsmErrorKind::UnknownMnemonic(mnemonic.to_string()),
            )),
        }
    }

    fn parse_directive(
        &mut self,
        m: &str,
        mnemonic: &str,
        mcol: usize,
        ops: &[Operand<'_>],
        no: usize,
    ) -> Result<(), AsmError> {
        match m {
            // `.org addr` — place subsequent code/data at `addr`.
            ".org" => {
                want(ops, 1, mnemonic, no, mcol)?;
                let to = self.parse_int(&ops[0], no)?;
                let to = u32::try_from(to).map_err(|_| bad_imm(&ops[0], no))?;
                if to % crate::PARCEL_BYTES != 0 {
                    return Err(AsmError::new(
                        no,
                        ops[0].col,
                        AsmErrorKind::Misaligned {
                            addr: to,
                            need: crate::PARCEL_BYTES,
                        },
                    ));
                }
                if !self.placed {
                    self.base = to;
                    self.lc = to;
                } else {
                    if to < self.lc {
                        return Err(AsmError::new(
                            no,
                            ops[0].col,
                            AsmErrorKind::OrgBackwards { at: self.lc, to },
                        ));
                    }
                    if self.code_end.is_none() {
                        self.pad_code_to(to, no, ops[0].col, false)?;
                    } else {
                        self.lc = to;
                    }
                }
                Ok(())
            }
            // `.word value[, value...]` — initial data words at the
            // location counter; closes the code section.
            ".word" => {
                if ops.is_empty() {
                    return Err(AsmError::new(
                        no,
                        mcol,
                        AsmErrorKind::BadOperands("expected at least 1 operand, got 0".into()),
                    ));
                }
                if self.code_end.is_none() {
                    self.code_end = Some(self.lc);
                    self.placed = true;
                }
                for op in ops {
                    if !self.lc.is_multiple_of(4) {
                        return Err(AsmError::new(
                            no,
                            op.col,
                            AsmErrorKind::Misaligned {
                                addr: self.lc,
                                need: 4,
                            },
                        ));
                    }
                    let value = if !self.equs.contains_key(op.text)
                        && !op
                            .text
                            .starts_with(|c: char| c.is_ascii_digit() || c == '-')
                        && is_ident(op.text)
                    {
                        WordExpr::Label {
                            name: op.text.to_string(),
                            line: no,
                            col: op.col,
                        }
                    } else {
                        let v = self.parse_int(op, no)?;
                        if !(i64::from(i32::MIN)..=i64::from(u32::MAX)).contains(&v) {
                            return Err(bad_imm(op, no));
                        }
                        WordExpr::Value(v as u32)
                    };
                    self.data.push(DataItem::Word {
                        addr: self.lc,
                        value,
                    });
                    self.lc += 4;
                }
                Ok(())
            }
            // `.data addr, value` — a verbatim initial data word,
            // independent of the location counter.
            ".data" => {
                want(ops, 2, mnemonic, no, mcol)?;
                let addr = self.parse_int(&ops[0], no)? as u32;
                let value = self.parse_int(&ops[1], no)? as u32;
                self.data.push(DataItem::Pair { addr, value });
                Ok(())
            }
            // `.equ NAME, value` — a named constant usable as any immediate.
            ".equ" => {
                want(ops, 2, mnemonic, no, mcol)?;
                if !is_ident(ops[0].text) {
                    return Err(AsmError::new(
                        no,
                        ops[0].col,
                        AsmErrorKind::BadOperands(format!(
                            "`{}` is not a valid constant name",
                            ops[0].text
                        )),
                    ));
                }
                let value = self.parse_int(&ops[1], no)?;
                self.equs.insert(ops[0].text.to_string(), value);
                Ok(())
            }
            // `.align bytes` — pad to a power-of-two boundary.
            ".align" => {
                want(ops, 1, mnemonic, no, mcol)?;
                let align = self.parse_int(&ops[0], no)?;
                let align = u32::try_from(align).map_err(|_| bad_imm(&ops[0], no))?;
                if align == 0 || !align.is_power_of_two() {
                    return Err(AsmError::new(
                        no,
                        ops[0].col,
                        AsmErrorKind::BadAlignment(align),
                    ));
                }
                let to = self.lc.next_multiple_of(align);
                if self.code_end.is_none() {
                    self.pad_code_to(to, no, ops[0].col, true)?;
                } else {
                    self.lc = to;
                }
                Ok(())
            }
            _ => Err(AsmError::new(
                no,
                mcol,
                AsmErrorKind::UnknownDirective(mnemonic.to_string()),
            )),
        }
    }

    fn parse_reg(&self, op: &Operand<'_>, no: usize) -> Result<Reg, AsmError> {
        op.text
            .strip_prefix(['r', 'R'])
            .and_then(|n| n.parse::<u8>().ok())
            .and_then(Reg::try_new)
            .ok_or_else(|| {
                AsmError::new(no, op.col, AsmErrorKind::BadRegister(op.text.to_string()))
            })
    }

    fn parse_breg(&self, op: &Operand<'_>, no: usize) -> Result<BranchReg, AsmError> {
        op.text
            .strip_prefix(['b', 'B'])
            .and_then(|n| n.parse::<u8>().ok())
            .and_then(BranchReg::try_new)
            .ok_or_else(|| {
                AsmError::new(no, op.col, AsmErrorKind::BadRegister(op.text.to_string()))
            })
    }

    fn parse_int(&self, op: &Operand<'_>, no: usize) -> Result<i64, AsmError> {
        if let Some(&v) = self.equs.get(op.text) {
            return Ok(v);
        }
        let (neg, body) = match op.text.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, op.text),
        };
        let value =
            if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
                i64::from_str_radix(hex, 16)
            } else {
                body.parse::<i64>()
            }
            .map_err(|_| bad_imm(op, no))?;
        Ok(if neg { -value } else { value })
    }

    fn parse_i16(&self, op: &Operand<'_>, no: usize) -> Result<i16, AsmError> {
        let v = self.parse_int(op, no)?;
        // Accept both signed and unsigned 16-bit spellings (e.g. 0xFFFF).
        if (-(1 << 15)..(1 << 16)).contains(&v) {
            Ok(v as u16 as i16)
        } else {
            Err(bad_imm(op, no))
        }
    }

    fn parse_u16(&self, op: &Operand<'_>, no: usize) -> Result<u16, AsmError> {
        let v = self.parse_int(op, no)?;
        u16::try_from(v).map_err(|_| bad_imm(op, no))
    }

    fn resolve(&self, label: &str, line: usize, col: usize) -> Result<u32, AsmError> {
        self.symbols.get(label).copied().ok_or_else(|| {
            AsmError::new(line, col, AsmErrorKind::UndefinedLabel(label.to_string()))
        })
    }

    fn finish(self) -> Result<Program, AsmError> {
        let mut parcels = Vec::new();
        for item in &self.code {
            let instr = match item {
                PendingInstr::Ready(i) => *i,
                PendingInstr::LbrLabel {
                    br,
                    label,
                    line,
                    col,
                } => {
                    let addr = self.resolve(label, *line, *col)?;
                    let target_parcel =
                        u16::try_from(addr / crate::PARCEL_BYTES).map_err(|_| {
                            AsmError::new(
                                *line,
                                *col,
                                AsmErrorKind::LabelOutOfRange {
                                    label: label.clone(),
                                    addr,
                                },
                            )
                        })?;
                    Instruction::Lbr {
                        br: *br,
                        target_parcel,
                    }
                }
                PendingInstr::LabelLo {
                    rd,
                    label,
                    line,
                    col,
                } => {
                    let addr = self.resolve(label, *line, *col)?;
                    Instruction::Lim {
                        rd: *rd,
                        imm: (addr & 0xFFFF) as u16 as i16,
                    }
                }
                PendingInstr::LabelHi {
                    rd,
                    label,
                    line,
                    col,
                } => {
                    let addr = self.resolve(label, *line, *col)?;
                    Instruction::Lui {
                        rd: *rd,
                        imm: (addr >> 16) as u16,
                    }
                }
            };
            parcels.extend_from_slice(encode(&instr, self.format).parcels());
        }
        let mut data = Vec::with_capacity(self.data.len());
        for item in &self.data {
            match item {
                DataItem::Word { addr, value } => {
                    let v = match value {
                        WordExpr::Value(v) => *v,
                        WordExpr::Label { name, line, col } => self.resolve(name, *line, *col)?,
                    };
                    data.push((*addr, v));
                }
                DataItem::Pair { addr, value } => data.push((*addr, *value)),
            }
        }
        Ok(Program::from_raw(
            parcels,
            self.base,
            self.base,
            self.format,
            self.symbols,
            data,
        ))
    }
}

fn strip_comment(line: &str) -> &str {
    match line.find([';', '#']) {
        Some(pos) => &line[..pos],
        None => line,
    }
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn alu_op(stem: &str) -> Option<AluOp> {
    Some(match stem {
        "add" => AluOp::Add,
        "sub" => AluOp::Sub,
        "and" => AluOp::And,
        "or" => AluOp::Or,
        "xor" => AluOp::Xor,
        "sll" => AluOp::Sll,
        "srl" => AluOp::Srl,
        "sra" => AluOp::Sra,
        _ => return None,
    })
}

fn bad_imm(op: &Operand<'_>, no: usize) -> AsmError {
    AsmError::new(no, op.col, AsmErrorKind::BadImmediate(op.text.to_string()))
}

fn want(
    ops: &[Operand<'_>],
    n: usize,
    mnemonic: &str,
    no: usize,
    mcol: usize,
) -> Result<(), AsmError> {
    if ops.len() == n {
        Ok(())
    } else {
        Err(AsmError::new(
            no,
            mcol,
            AsmErrorKind::BadOperands(format!(
                "`{mnemonic}` expects {n} operands, got {}",
                ops.len()
            )),
        ))
    }
}

fn split_operands(s: &str, base_off: usize) -> Vec<Operand<'_>> {
    if s.trim().is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut start = 0usize;
    loop {
        let end = s[start..].find(',').map(|p| start + p);
        let seg = &s[start..end.unwrap_or(s.len())];
        let lead = seg.len() - seg.trim_start().len();
        out.push(Operand {
            text: seg.trim(),
            col: base_off + start + lead + 1,
        });
        match end {
            Some(e) => start = e + 1,
            None => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;

    fn asm(src: &str) -> Program {
        Assembler::new(InstrFormat::Fixed32)
            .assemble(src)
            .unwrap_or_else(|e| panic!("assembly failed: {e}"))
    }

    fn asm_err(src: &str) -> AsmError {
        Assembler::new(InstrFormat::Fixed32)
            .assemble(src)
            .expect_err("source should not assemble")
    }

    #[test]
    fn accepts_the_seed_grammar() {
        let p = asm(r#"
            nop
            halt
            xchg
            add  r1, r2, r3
            addi r1, r2, -5
            lim  r1, -100
            lui  r1, 0xABCD
            ldw  r2, 16
            sta  r3, -16
            lbr  b0, 0x40
            lbrr b1, r4
            pbr.nez b2, r2, 2
            mov  r1, r2
            li32 r3, 0x12345678
            push r1
            pop  r4
        "#);
        assert_eq!(p.static_count(), 17, "li32 expands to two instructions");
    }

    #[test]
    fn org_sets_base_and_entry() {
        let p = asm(".org 0x100\nstart: halt\n");
        assert_eq!(p.base(), 0x100);
        assert_eq!(p.entry(), 0x100);
        assert_eq!(p.symbols()["start"], 0x100);
    }

    #[test]
    fn org_pads_code_with_nops() {
        let p = asm("nop\n.org 0x10\nhere: halt\n");
        assert_eq!(p.symbols()["here"], 0x10);
        assert_eq!(p.static_count(), 5, "three pad nops inserted");
    }

    #[test]
    fn org_backwards_is_rejected() {
        let e = asm_err("nop\nnop\n.org 0x4\nhalt\n");
        assert!(matches!(e.kind(), AsmErrorKind::OrgBackwards { .. }), "{e}");
        assert_eq!(e.line(), 3);
    }

    #[test]
    fn org_must_be_parcel_aligned() {
        let e = asm_err(".org 0x3\n");
        assert!(matches!(e.kind(), AsmErrorKind::Misaligned { need: 2, .. }));
    }

    #[test]
    fn word_emits_data_at_the_location_counter() {
        let p = asm("halt\n.word 7\nvals: .word 0x22, 9\n");
        assert_eq!(p.data(), &[(4, 7), (8, 0x22), (12, 9)]);
        assert_eq!(p.symbols()["vals"], 8);
        assert_eq!(p.end(), 4, "code section is just the halt");
    }

    #[test]
    fn word_accepts_label_values() {
        let p = asm("start: halt\n.word start\n");
        assert_eq!(p.data(), &[(4, 0)]);
    }

    #[test]
    fn word_requires_alignment() {
        // A Mixed-format single-parcel instruction leaves lc at 2.
        let e = Assembler::new(InstrFormat::Mixed)
            .assemble("nop\n.word 1\n")
            .expect_err("misaligned word");
        assert!(matches!(e.kind(), AsmErrorKind::Misaligned { need: 4, .. }));
    }

    #[test]
    fn code_after_word_is_rejected() {
        let e = asm_err("halt\n.word 1\nnop\n");
        assert!(matches!(e.kind(), AsmErrorKind::CodeAfterData));
        assert_eq!(e.line(), 3);
        assert_eq!(e.col(), 1);
    }

    #[test]
    fn org_in_data_section_moves_forward_without_padding() {
        let p = asm("halt\n.word 1\n.org 0x40\n.word 2\n");
        assert_eq!(p.data(), &[(4, 1), (0x40, 2)]);
        assert_eq!(p.end(), 4);
    }

    #[test]
    fn li32_label_loads_an_address() {
        let p = asm("li32 r1, buf\nhalt\n.org 0x40\nbuf: .word 5\n");
        let instrs: Vec<_> = p.instructions().map(|(_, i)| i).collect();
        assert_eq!(
            instrs[0],
            Instruction::Lim {
                rd: Reg::new(1),
                imm: 0x40
            }
        );
        assert_eq!(
            instrs[1],
            Instruction::Lui {
                rd: Reg::new(1),
                imm: 0
            }
        );
    }

    #[test]
    fn lbr_forward_reference_resolves() {
        let p = asm("lbr b0, fwd\nnop\nfwd: halt\n");
        let instrs: Vec<_> = p.instructions().map(|(_, i)| i).collect();
        assert_eq!(
            instrs[0],
            Instruction::Lbr {
                br: BranchReg::new(0),
                target_parcel: 4
            }
        );
    }

    #[test]
    fn duplicate_label_reported_with_position() {
        let e = asm_err("a: nop\na: halt\n");
        assert!(matches!(e.kind(), AsmErrorKind::DuplicateLabel(_)));
        assert_eq!(e.line(), 2);
        assert_eq!(e.col(), 1);
    }

    #[test]
    fn undefined_label_reports_the_reference_site() {
        let e = asm_err("nop\n  lbr b0, missing\n");
        assert!(matches!(e.kind(), AsmErrorKind::UndefinedLabel(_)));
        assert_eq!(e.line(), 2);
        assert_eq!(e.col(), 11, "points at the label operand");
    }

    #[test]
    fn bad_register_column_points_at_operand() {
        let e = asm_err("add r1, r9, r2\n");
        assert!(matches!(e.kind(), AsmErrorKind::BadRegister(_)));
        assert_eq!(e.line(), 1);
        assert_eq!(e.col(), 9);
    }

    #[test]
    fn unknown_mnemonic_column_points_at_mnemonic() {
        let e = asm_err("nop\n   frobnicate r1\n");
        assert!(matches!(e.kind(), AsmErrorKind::UnknownMnemonic(_)));
        assert_eq!(e.line(), 2);
        assert_eq!(e.col(), 4);
    }

    #[test]
    fn unknown_directive_reported() {
        let e = asm_err(".bogus 1\n");
        assert!(matches!(e.kind(), AsmErrorKind::UnknownDirective(_)));
    }

    #[test]
    fn equ_constants_substitute() {
        let p = asm(".equ FPU, -4096\nlim r5, FPU\nhalt\n");
        let instrs: Vec<_> = p.instructions().map(|(_, i)| i).collect();
        assert_eq!(
            instrs[0],
            Instruction::Lim {
                rd: Reg::new(5),
                imm: -4096
            }
        );
    }

    #[test]
    fn align_pads_with_nops() {
        let p = asm("nop\n.align 16\nhere: halt\n");
        assert_eq!(p.symbols()["here"], 16);
        assert_eq!(p.static_count(), 5);
    }

    #[test]
    fn align_rejects_non_power_of_two() {
        let e = asm_err("nop\n.align 6\nhalt\n");
        assert!(matches!(e.kind(), AsmErrorKind::BadAlignment(6)));
        assert_eq!(e.line(), 2);
    }

    #[test]
    fn data_directive_is_seed_compatible() {
        let p = asm(".data 0x1000, 7\nhalt\n");
        assert_eq!(p.data(), &[(0x1000, 7)]);
    }

    #[test]
    fn delay_out_of_range() {
        let e = asm_err("pbr b0, r0, 8\n");
        assert!(matches!(e.kind(), AsmErrorKind::BadImmediate(_)));
        assert_eq!(e.col(), 13);
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
