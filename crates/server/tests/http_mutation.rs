//! Seeded mutation test for the HTTP request parser: any byte string gives
//! a request or a typed [`HttpError`], never a panic, and a parsed request
//! is consistent with its own `Content-Length`.

use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};

use pipe_server::http::{read_request, HttpError, MAX_BODY_BYTES};

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
}

/// Well-formed requests the service receives.
const BASES: &[&str] = &[
    "POST /v1/simulate HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
     Content-Length: 81\r\n\r\n{\"workload\":\"tight-loop\",\"body\":6,\"trips\":30,\
     \"fetch\":\"pipe\",\"cache\":64,\"line\":16}",
    "GET /metrics HTTP/1.0\nAccept: */*\n\n",
    "POST /v1/sweep HTTP/1.1\r\ncontent-length: 15\r\nConnection: close\r\n\r\n{\"figure\":\"4a\"}",
    "GET /healthz HTTP/1.1\r\n\r\n",
];

/// Fragments spliced in whole: framing bytes, header shapes, and
/// `Content-Length` values around the parser's limits.
const FRAGMENTS: &[&[u8]] = &[
    b"\r\n",
    b"\n\n",
    b":",
    b" ",
    b"\r\n\r\n",
    b"HTTP/1.1",
    b"\xC3\x28\xFF",
    b"\0",
    b"Content-Length: 0\r\n",
    b"Content-Length: 3\r\n",
    b"Content-Length: -1\r\n",
    b"Content-Length: 1048576\r\n",
    b"Content-Length: 1048577\r\n",
    b"Content-Length: 99999999999999999999999\r\n",
];

/// A fragment, an over-long header line, or more headers than allowed.
fn token(rng: &mut Lcg) -> Vec<u8> {
    match rng.below(FRAGMENTS.len() as u64 + 2) as usize {
        i if i < FRAGMENTS.len() => FRAGMENTS[i].to_vec(),
        i if i == FRAGMENTS.len() => [b"x-long: ".as_slice(), &[b'a'; 9_000]].concat(),
        _ => b"x-h: v\r\n".repeat(70),
    }
}

fn mutate(rng: &mut Lcg, base: &str) -> Vec<u8> {
    let mut buf = base.as_bytes().to_vec();
    for _ in 0..1 + rng.below(4) {
        let at = rng.index(buf.len());
        match rng.below(6) {
            0 if at < buf.len() => buf[at] ^= 1 << rng.below(8),
            1 => {
                let n = 1 + rng.below(6) as usize;
                let bytes: Vec<u8> = (0..n).map(|_| rng.below(256) as u8).collect();
                buf.splice(at..at, bytes);
            }
            2 => {
                let end = (at + 1 + rng.below(24) as usize).min(buf.len());
                buf.drain(at..end);
            }
            3 | 4 => {
                let t = token(rng);
                buf.splice(at..at, t);
            }
            _ => buf.truncate(at),
        }
    }
    buf
}

/// The value of the first `Content-Length` header, if it is a number.
fn declared_length(headers: &[(String, String)]) -> Option<usize> {
    headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse().ok())
}

#[test]
fn mutated_requests_never_panic() {
    assert_eq!(MAX_BODY_BYTES, 1_048_576, "two fragments straddle the cap");
    let (mut parsed, mut malformed, mut eof) = (0, 0, 0);
    for seed in 0..5_000u64 {
        let mut rng = Lcg::new(seed.wrapping_add(0x4177));
        let base = BASES[rng.below(BASES.len() as u64) as usize];
        let raw = mutate(&mut rng, base);
        let shown = String::from_utf8_lossy(&raw);
        let result = catch_unwind(AssertUnwindSafe(|| {
            read_request(&mut Cursor::new(&raw[..]))
        }))
        .unwrap_or_else(|_| panic!("seed {seed}: parser panicked on {shown:?}"));
        match result {
            Ok(req) => {
                parsed += 1;
                assert_eq!(req.method, req.method.to_ascii_uppercase(), "seed {seed}");
                assert!(req.headers.len() <= 64, "seed {seed}");
                assert!(
                    req.headers
                        .iter()
                        .all(|(k, _)| *k == k.to_ascii_lowercase()),
                    "seed {seed}"
                );
                let want = declared_length(&req.headers).unwrap_or(0);
                assert_eq!(req.body.len(), want, "seed {seed}: {shown:?}");
            }
            Err(HttpError::Malformed(_)) => malformed += 1,
            Err(HttpError::TooLarge) => {}
            Err(HttpError::Io(e)) => {
                // An in-memory reader only fails by running out of bytes.
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "seed {seed}");
                eof += 1;
            }
        }
    }
    // The mutations reach every outcome, not only the first line's checks.
    assert!(
        parsed > 200 && malformed > 200 && eof > 50,
        "parsed {parsed}, malformed {malformed}, eof {eof}"
    );
}
