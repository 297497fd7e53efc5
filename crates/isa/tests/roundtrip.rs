//! Property tests: randomly generated programs survive the
//! assemble → disassemble → reassemble round trip byte-identically,
//! malformed sources produce typed errors pointing at the right line, and
//! randomly mutated sources never panic the assembler.

use pipe_isa::{disassemble, write_program, AsmErrorKind, Assembler, InstrFormat};

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

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

const ALU_OPS: &[&str] = &["add", "sub", "and", "or", "xor", "sll", "srl", "sra"];
const CONDS: &[&str] = &["", ".eqz", ".nez", ".gtz", ".ltz", ".never"];

/// Emits one random instruction line; `labels` are all label names that
/// will exist in the finished program (forward references included).
fn random_instr(rng: &mut Lcg, labels: &[String]) -> String {
    let r = |rng: &mut Lcg| format!("r{}", rng.below(8));
    let b = |rng: &mut Lcg| format!("b{}", rng.below(8));
    match rng.below(12) {
        0 => format!(
            "    {} {}, {}, {}",
            ALU_OPS[rng.below(8) as usize],
            r(rng),
            r(rng),
            r(rng)
        ),
        1 => format!(
            "    {}i {}, {}, {}",
            ALU_OPS[rng.below(8) as usize],
            r(rng),
            r(rng),
            rng.below(0x10000) as i64 - 0x8000
        ),
        2 => format!("    lim {}, {}", r(rng), rng.below(0x10000) as i64 - 0x8000),
        3 => format!("    lui {}, {:#x}", r(rng), rng.below(0x10000)),
        4 => format!("    ldw {}, {}", r(rng), rng.below(0x1000) as i64 - 0x800),
        5 => format!("    sta {}, {}", r(rng), rng.below(0x1000) as i64 - 0x800),
        6 if !labels.is_empty() => {
            let target = &labels[rng.below(labels.len() as u64) as usize];
            format!("    lbr {}, {}", b(rng), target)
        }
        6 => format!("    lbr {}, {:#x}", b(rng), rng.below(0x8000) * 2),
        7 => format!("    lbrr {}, {}", b(rng), r(rng)),
        8 => format!(
            "    pbr{} {}, {}, {}",
            CONDS[rng.below(6) as usize],
            b(rng),
            r(rng),
            rng.below(8)
        ),
        9 => format!("    li32 {}, {:#x}", r(rng), rng.next() as u32),
        10 => ["    nop", "    halt", "    xchg"][rng.below(3) as usize].to_string(),
        _ => ["    mov r1, r2", "    push r3", "    pop r4"][rng.below(3) as usize].to_string(),
    }
}

/// Builds a random but valid program: labelled code, optional alignment,
/// and a `.word` data tail that may reference labels.
fn random_program(rng: &mut Lcg) -> String {
    let n_instr = 5 + rng.below(36) as usize;
    let n_labels = 1 + rng.below(4) as usize;
    let labels: Vec<String> = (0..n_labels).map(|i| format!("l{i}")).collect();
    let mut label_at: Vec<usize> = (0..n_labels)
        .map(|_| rng.below(n_instr as u64 + 1) as usize)
        .collect();
    label_at.sort_unstable();

    let mut src = String::new();
    if rng.chance(30) {
        src.push_str(&format!(".org {:#x}\n", rng.below(64) * 4));
    }
    let mut next_label = 0;
    for i in 0..n_instr {
        while next_label < n_labels && label_at[next_label] == i {
            src.push_str(&labels[next_label]);
            src.push_str(":\n");
            next_label += 1;
        }
        src.push_str(&random_instr(rng, &labels));
        src.push('\n');
        if rng.chance(5) {
            src.push_str(&format!(".align {}\n", 1 << (2 + rng.below(3))));
        }
    }
    while next_label < n_labels {
        src.push_str(&labels[next_label]);
        src.push_str(":\n");
        next_label += 1;
    }
    let n_words = rng.below(6);
    if n_words > 0 {
        // Mixed-format code can end on a half-word boundary.
        src.push_str(".align 4\n");
    }
    for _ in 0..n_words {
        if rng.chance(25) && !labels.is_empty() {
            let target = &labels[rng.below(labels.len() as u64) as usize];
            src.push_str(&format!(".word {target}\n"));
        } else {
            src.push_str(&format!(".word {:#x}\n", rng.next() as u32));
        }
    }
    src
}

#[test]
fn random_programs_round_trip_byte_identically() {
    for seed in 0..200u64 {
        let mut rng = Lcg::new(seed);
        let src = random_program(&mut rng);
        for format in [InstrFormat::Fixed32, InstrFormat::Mixed] {
            let first = Assembler::new(format)
                .assemble(&src)
                .unwrap_or_else(|e| panic!("seed {seed} ({format:?}): {e}\n{src}"));
            let text = disassemble(&first);
            let second = Assembler::new(format).assemble(&text).unwrap_or_else(|e| {
                panic!("seed {seed} ({format:?}) reassembly: {e}\n--- disasm ---\n{text}")
            });
            assert_eq!(
                write_program(&first),
                write_program(&second),
                "seed {seed} ({format:?}) drifted\n--- source ---\n{src}\n--- disasm ---\n{text}"
            );
        }
    }
}

#[test]
fn corrupted_line_is_reported_at_the_right_position() {
    let base = "start: lim r1, 3\nloop: subi r1, r1, 1\nlbr b0, loop\npbr.nez b0, r1, 0\nhalt\n";
    let bad_lines = [
        (
            "frobnicate r1, r2",
            AsmErrorKind::UnknownMnemonic("frobnicate".into()),
        ),
        (".sect text", AsmErrorKind::UnknownDirective(".sect".into())),
        (
            "add r1, r2",
            AsmErrorKind::BadOperands("`add` expects 3 operands, got 2".into()),
        ),
        ("lim r12, 4", AsmErrorKind::BadRegister("r12".into())),
        ("lim r1, 99999", AsmErrorKind::BadImmediate("99999".into())),
        (
            "lbr b0, nowhere",
            AsmErrorKind::UndefinedLabel("nowhere".into()),
        ),
        ("start: nop", AsmErrorKind::DuplicateLabel("start".into())),
    ];
    let lines: Vec<&str> = base.lines().collect();
    for (bad, want_kind) in &bad_lines {
        // Insertion starts at 1 so the duplicate-label case always comes
        // after the original definition (the second site is reported).
        for at in 1..=lines.len() {
            let mut patched: Vec<&str> = lines.clone();
            patched.insert(at, bad);
            let src = patched.join("\n");
            let err = Assembler::new(InstrFormat::Fixed32)
                .assemble(&src)
                .expect_err("patched source must fail");
            assert_eq!(err.line(), at + 1, "{bad} inserted at {at}");
            assert_eq!(err.kind(), want_kind, "{bad}");
        }
    }
}

#[test]
fn layout_errors_carry_positions() {
    let err = Assembler::new(InstrFormat::Fixed32)
        .assemble("nop\nnop\n.org 0x4\n")
        .expect_err("backward org");
    assert_eq!(err.line(), 3);
    assert!(matches!(
        err.kind(),
        AsmErrorKind::OrgBackwards { at: 8, to: 4 }
    ));

    let err = Assembler::new(InstrFormat::Fixed32)
        .assemble("halt\n.word 1\n  nop\n")
        .expect_err("code after data");
    assert_eq!((err.line(), err.col()), (3, 3));
    assert!(matches!(err.kind(), AsmErrorKind::CodeAfterData));
}

/// The bundled programs from `programs/` plus a small loop: realistic
/// sources for the mutation test to damage.
const MUTATION_BASES: &[&str] = &[
    include_str!("../../../programs/matmul.s"),
    include_str!("../../../programs/sort.s"),
    include_str!("../../../programs/memcpy.s"),
    "start: lim r1, 3\nloop: subi r1, r1, 1\nlbr b0, loop\npbr.nez b0, r1, 0\nhalt\n.word 7\n",
];

/// Fragments spliced into mutated sources, separated by `|`:
/// directives, mnemonics, operands, and separators, well-formed and not.
const SPLICE_TOKENS: &str = ".org |.org 0x3|.word |.word start|.align |.align 6|.data |.equ |\
    .equ X, |li32 |lbr b0, |pbr.nez |push |pop |halt|nop\n|r9|b8|r7|0x|0xFFFFFFFF|-99999999999|\
    label:|start:|:|,|;|#|\n";

const MUTATION_CHARS: &[char] = &[
    ' ', '\t', '\n', ',', ':', ';', '#', '.', '-', '0', '1', '7', '9', 'x', 'a', 'b', 'r', 'l',
    'p', 'z', '_',
];

/// Applies one to four random character edits or token splices.
fn mutate(rng: &mut Lcg, base: &str) -> String {
    let mut src: Vec<char> = base.chars().collect();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(src.len() as u64 + 1) as usize;
        let ch = MUTATION_CHARS[rng.below(MUTATION_CHARS.len() as u64) as usize];
        match rng.below(4) {
            0 => src.insert(at, ch),
            1 if at < src.len() => {
                src.remove(at);
            }
            2 if at < src.len() => src[at] = ch,
            _ => {
                let tokens: Vec<&str> = SPLICE_TOKENS.split('|').collect();
                let token = tokens[rng.below(tokens.len() as u64) as usize];
                src.splice(at..at, token.chars());
            }
        }
    }
    src.into_iter().collect()
}

#[test]
fn mutated_sources_never_panic_and_errors_point_inside_the_source() {
    for seed in 0..2_000u64 {
        let mut rng = Lcg::new(seed.wrapping_add(4242));
        let base = MUTATION_BASES[rng.below(MUTATION_BASES.len() as u64) as usize];
        let src = mutate(&mut rng, base);
        let lines: Vec<&str> = src.lines().collect();
        for format in [InstrFormat::Fixed32, InstrFormat::Mixed] {
            let result = std::panic::catch_unwind(|| Assembler::new(format).assemble(&src))
                .unwrap_or_else(|_| panic!("seed {seed} ({format:?}) panicked on\n{src}"));
            if let Err(err) = result {
                let line = err.line();
                assert!(
                    (1..=lines.len()).contains(&line),
                    "seed {seed} ({format:?}): {err} outside {} lines\n{src}",
                    lines.len()
                );
                assert!(
                    (1..=lines[line - 1].len() + 1).contains(&err.col()),
                    "seed {seed} ({format:?}): {err} outside line `{}`",
                    lines[line - 1]
                );
            }
        }
    }
}
