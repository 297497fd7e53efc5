//! Seeded mutation test for the `.ptr` reader: any byte string gives a
//! trace or a typed [`TraceError`], never a panic.
//!
//! Most cases mutate one block's payload and then re-seal the block (new
//! length and CRC-32), so the garbage gets past the CRC check and reaches
//! the header, step, and summary decoders. The rest damage the framing
//! itself: markers, lengths, CRCs, block order, truncation.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pipe_icache::{ReplayBranch, ReplayOp, ReplayStep};
use pipe_trace::crc32::crc32;
use pipe_trace::{varint, TraceError, TraceMeta, TraceReader, TraceWriter};

/// A small deterministic PRNG (64-bit LCG, high bits).
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Lcg {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn index(&mut self, len: usize) -> usize {
        self.below(len as u64 + 1) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// Steps exercising every record field: address jumps, waits, every op
/// kind, and taken/not-taken resolutions.
fn steps(n: u32) -> Vec<ReplayStep> {
    (0..n)
        .map(|i| {
            let mut s = ReplayStep::at(if i % 13 == 0 {
                0x9000 - i
            } else {
                0x40 + i * 4
            });
            s.waits = if i % 5 == 1 { i % 9 } else { 0 };
            match i % 6 {
                1 => s.ops.push(ReplayOp::Load {
                    addr: 0x1000 + 8 * i,
                }),
                2 => s.ops.extend([
                    ReplayOp::StoreAddr {
                        addr: 0x2_0000 - 4 * i,
                    },
                    ReplayOp::StoreData { value: i * 31 },
                ]),
                _ => {}
            }
            if i % 11 == 4 {
                s.resolve = Some(ReplayBranch {
                    taken: i % 2 == 0,
                    remaining: i % 4,
                    target: 0x40 + (i % 7) * 16,
                });
            }
            s
        })
        .collect()
}

/// A valid trace of `n` steps (more than ~6,000 steps span two blocks).
fn trace(n: u32) -> Vec<u8> {
    let meta = TraceMeta {
        workload: "livermore:format=fixed-32,scale=1".into(),
        program_fnv: 0x0123_4567_89AB_CDEF,
        entry_pc: 0x40,
        fetch_key: "pipe:iq=16,iqb=16".into(),
        mem_key: "access=6".into(),
    };
    let mut w = TraceWriter::new(Vec::new(), &meta).unwrap();
    for s in steps(n) {
        w.write_step(&s).unwrap();
    }
    w.finish(9_999, 123).unwrap().0
}

/// The file prefix (magic + version) and its `(marker, crc, payload)`
/// blocks.
#[derive(Clone)]
struct Blocks {
    prefix: Vec<u8>,
    blocks: Vec<(u8, u32, Vec<u8>)>,
}

impl Blocks {
    fn parse(bytes: &[u8]) -> Blocks {
        let mut pos = 6;
        let mut blocks = Vec::new();
        while pos < bytes.len() {
            let marker = bytes[pos];
            pos += 1;
            let len = varint::read_u64(bytes, &mut pos).unwrap() as usize;
            let crc = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
            pos += 4;
            blocks.push((marker, crc, bytes[pos..pos + len].to_vec()));
            pos += len;
        }
        Blocks {
            prefix: bytes[..6].to_vec(),
            blocks,
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = self.prefix.clone();
        for (marker, crc, payload) in &self.blocks {
            out.push(*marker);
            varint::write_u64(&mut out, payload.len() as u64);
            out.extend_from_slice(&crc.to_le_bytes());
            out.extend_from_slice(payload);
        }
        out
    }
}

/// Varint-encoded values at the edges of the decoders' range checks.
const EDGE_VALUES: &[u64] = &[
    0,
    1,
    0x7F,
    0x80,
    4096,
    4097,
    u32::MAX as u64,
    u32::MAX as u64 + 1,
    1 << 24,
    (1 << 24) + 1,
    u64::MAX,
];

/// One random edit of `buf`.
fn edit(rng: &mut Lcg, buf: &mut Vec<u8>) {
    let at = rng.index(buf.len());
    match rng.below(7) {
        0 if at < buf.len() => buf[at] ^= 1 << rng.below(8),
        1 if at < buf.len() => buf[at] = [0x00, 0x1F, 0x7F, 0x80, 0xFF][rng.below(5) as usize],
        2 => {
            let n = 1 + rng.below(8) as usize;
            let bytes: Vec<u8> = (0..n).map(|_| rng.below(256) as u8).collect();
            buf.splice(at..at, bytes);
        }
        3 => {
            let end = (at + 1 + rng.below(16) as usize).min(buf.len());
            buf.drain(at..end);
        }
        4 => {
            let mut v = Vec::new();
            varint::write_u64(
                &mut v,
                EDGE_VALUES[rng.below(EDGE_VALUES.len() as u64) as usize],
            );
            buf.splice(at..at, v);
        }
        5 => {
            // An unterminated or over-long varint.
            let n = 1 + rng.below(12) as usize;
            buf.splice(at..at, std::iter::repeat_n(0xFF, n));
        }
        _ => buf.truncate(at),
    }
}

/// Damage to the framing the CRC does not cover, or to the CRC itself.
fn damage_framing(rng: &mut Lcg, file: &mut Blocks) -> Option<Vec<u8>> {
    let n = file.blocks.len();
    let b = rng.below(n as u64) as usize;
    match rng.below(7) {
        0 => file.blocks[b].0 = [b'H', b'B', b'E', b'X', 0][rng.below(5) as usize],
        1 => file.blocks[b].1 ^= 1 << rng.below(32),
        2 => {
            file.blocks.remove(b);
        }
        3 => {
            let copy = file.blocks[b].clone();
            file.blocks.insert(rng.index(n), copy);
        }
        4 => file.blocks.swap(b, rng.below(n as u64) as usize),
        5 => edit(rng, &mut file.prefix),
        _ => {
            let mut bytes = file.encode();
            edit(rng, &mut bytes);
            return Some(bytes);
        }
    }
    None
}

/// How far a mutated trace got before the reader stopped.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Complete,
    HeaderError,
    CorruptBlock,
    OtherError,
}

fn read_all(bytes: &[u8]) -> Outcome {
    let mut reader = match TraceReader::new(bytes) {
        Ok(r) => r,
        Err(_) => return Outcome::HeaderError,
    };
    let mut error = None;
    for step in &mut reader {
        if let Err(e) = step {
            error = Some(e);
        }
    }
    match error {
        None if reader.summary().is_some() => Outcome::Complete,
        None => panic!("reader stopped without a summary or an error"),
        Some(TraceError::CorruptBlock { .. }) => Outcome::CorruptBlock,
        Some(_) => Outcome::OtherError,
    }
}

#[test]
fn mutated_traces_never_panic() {
    let bases = [trace(40), trace(400), trace(9_000)];
    let parsed: Vec<Blocks> = bases.iter().map(|b| Blocks::parse(b)).collect();
    assert_eq!(parsed[2].blocks.len(), 4, "H, two B blocks, E");
    for (base, blocks) in bases.iter().zip(&parsed) {
        assert_eq!(blocks.encode(), *base, "block split round-trips");
        assert_eq!(read_all(base), Outcome::Complete);
    }

    let mut resealed_outcomes = [0usize; 3];
    for seed in 0..3_000u64 {
        let mut rng = Lcg::new(seed.wrapping_add(0x5EED));
        // The two-block trace is slow to decode; use it for one case in 8.
        let which = if rng.chance(12) {
            2
        } else {
            rng.below(2) as usize
        };
        let mut file = parsed[which].clone();
        let resealed = rng.chance(85);
        let bytes = if resealed {
            let b = rng.below(file.blocks.len() as u64) as usize;
            let (_, crc, payload) = &mut file.blocks[b];
            for _ in 0..1 + rng.below(4) {
                edit(&mut rng, payload);
            }
            *crc = crc32(payload);
            file.encode()
        } else {
            damage_framing(&mut rng, &mut file).unwrap_or_else(|| file.encode())
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| read_all(&bytes)))
            .unwrap_or_else(|_| panic!("seed {seed}: reader panicked on {} bytes", bytes.len()));
        if resealed {
            assert_ne!(
                outcome,
                Outcome::CorruptBlock,
                "seed {seed}: a resealed block must pass its CRC"
            );
            let slot = match outcome {
                Outcome::Complete => 0,
                Outcome::HeaderError => 1,
                _ => 2,
            };
            resealed_outcomes[slot] += 1;
        }
    }
    // The resealed garbage reached every decoder: some traces still read
    // to the end, some headers and some steps or summaries were rejected.
    assert!(
        resealed_outcomes.iter().all(|&n| n > 50),
        "{resealed_outcomes:?}"
    );
}
