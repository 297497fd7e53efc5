//! A simple binary container for assembled programs.
//!
//! Lets `pipe-sim asm` write an assembled image that `pipe-sim` (or any other
//! tool) can load without re-assembling. The format is little-endian:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "PIPE"
//! 4       1     version (currently 1)
//! 5       1     instruction format (0 = fixed-32, 1 = mixed)
//! 6       2     reserved (zero)
//! 8       4     base byte address
//! 12      4     entry byte address
//! 16      4     parcel count N
//! 20      2N    parcels
//! ...     4     symbol count S
//!         each: u16 name length, name bytes (UTF-8), u32 byte address
//! ...     4     data word count D
//!         each: u32 byte address, u32 value
//! ```

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::format::InstrFormat;
use crate::program::Program;

/// Magic bytes identifying the container.
pub const MAGIC: [u8; 4] = *b"PIPE";
/// Current container version.
pub const VERSION: u8 = 1;

/// An error produced while loading a binary program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinError {
    /// The magic bytes did not match.
    BadMagic,
    /// Unsupported container version.
    BadVersion(u8),
    /// Unknown instruction-format code.
    BadFormat(u8),
    /// The file ended before a field completed.
    Truncated,
    /// A symbol name was not valid UTF-8.
    BadSymbolName,
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinError::BadMagic => f.write_str("not a PIPE program (bad magic)"),
            BinError::BadVersion(v) => write!(f, "unsupported container version {v}"),
            BinError::BadFormat(v) => write!(f, "unknown instruction format code {v}"),
            BinError::Truncated => f.write_str("truncated file"),
            BinError::BadSymbolName => f.write_str("symbol name is not valid UTF-8"),
        }
    }
}

impl Error for BinError {}

fn format_code(format: InstrFormat) -> u8 {
    match format {
        InstrFormat::Fixed32 => 0,
        InstrFormat::Mixed => 1,
    }
}

fn format_from_code(code: u8) -> Result<InstrFormat, BinError> {
    match code {
        0 => Ok(InstrFormat::Fixed32),
        1 => Ok(InstrFormat::Mixed),
        other => Err(BinError::BadFormat(other)),
    }
}

/// Serializes a program into the binary container.
pub fn write_program(program: &Program) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + program.parcels().len() * 2);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(format_code(program.format()));
    out.extend_from_slice(&[0, 0]);
    out.extend_from_slice(&program.base().to_le_bytes());
    out.extend_from_slice(&program.entry().to_le_bytes());
    out.extend_from_slice(&(program.parcels().len() as u32).to_le_bytes());
    for p in program.parcels() {
        out.extend_from_slice(&p.to_le_bytes());
    }
    // Symbols, sorted for deterministic output.
    let mut symbols: Vec<(&String, &u32)> = program.symbols().iter().collect();
    symbols.sort();
    out.extend_from_slice(&(symbols.len() as u32).to_le_bytes());
    for (name, addr) in symbols {
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&addr.to_le_bytes());
    }
    out.extend_from_slice(&(program.data().len() as u32).to_le_bytes());
    for (addr, value) in program.data() {
        out.extend_from_slice(&addr.to_le_bytes());
        out.extend_from_slice(&value.to_le_bytes());
    }
    out
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        let end = self.pos.checked_add(n).ok_or(BinError::Truncated)?;
        if end > self.bytes.len() {
            return Err(BinError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, BinError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, BinError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32, BinError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }
}

/// Deserializes a program from the binary container.
///
/// # Errors
///
/// Returns [`BinError`] for malformed input.
pub fn read_program(bytes: &[u8]) -> Result<Program, BinError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(BinError::BadMagic);
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(BinError::BadVersion(version));
    }
    let format = format_from_code(r.u8()?)?;
    r.take(2)?; // reserved
    let base = r.u32()?;
    let entry = r.u32()?;
    let n = r.u32()? as usize;
    let mut parcels = Vec::with_capacity(n);
    for _ in 0..n {
        parcels.push(r.u16()?);
    }
    let s = r.u32()? as usize;
    let mut symbols = HashMap::with_capacity(s);
    for _ in 0..s {
        let len = r.u16()? as usize;
        let name = std::str::from_utf8(r.take(len)?)
            .map_err(|_| BinError::BadSymbolName)?
            .to_string();
        let addr = r.u32()?;
        symbols.insert(name, addr);
    }
    let d = r.u32()? as usize;
    let mut data = Vec::with_capacity(d);
    for _ in 0..d {
        let addr = r.u32()?;
        let value = r.u32()?;
        data.push((addr, value));
    }
    Ok(Program::from_raw(
        parcels, base, entry, format, symbols, data,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;

    fn sample(format: InstrFormat) -> Program {
        Assembler::new(format)
            .assemble(
                "lim r1, 5\nlbr b0, top\ntop: subi r1, r1, 1\npbr.nez b0, r1, 0\nhalt\n.data 0x1000, 42\n",
            )
            .unwrap()
    }

    #[test]
    fn roundtrip_both_formats() {
        for format in InstrFormat::ALL {
            let p = sample(format);
            let bytes = write_program(&p);
            let q = read_program(&bytes).unwrap();
            assert_eq!(q.parcels(), p.parcels());
            assert_eq!(q.base(), p.base());
            assert_eq!(q.entry(), p.entry());
            assert_eq!(q.format(), p.format());
            assert_eq!(q.symbols(), p.symbols());
            assert_eq!(q.data(), p.data());
        }
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            read_program(b"ELF!whatever").unwrap_err(),
            BinError::BadMagic
        );
        assert_eq!(read_program(b"PI").unwrap_err(), BinError::Truncated);
        let mut bytes = write_program(&sample(InstrFormat::Fixed32));
        bytes[4] = 99;
        assert_eq!(read_program(&bytes).unwrap_err(), BinError::BadVersion(99));
        let mut bytes = write_program(&sample(InstrFormat::Fixed32));
        bytes[5] = 7;
        assert_eq!(read_program(&bytes).unwrap_err(), BinError::BadFormat(7));
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let bytes = write_program(&sample(InstrFormat::Fixed32));
        for cut in 0..bytes.len() {
            assert!(
                read_program(&bytes[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
        assert!(read_program(&bytes).is_ok());
    }
}
