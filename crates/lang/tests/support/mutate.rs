//! Seeded mutations of `.sq` sources, shared by the lexer's
//! equivalence test and the frontend's no-panic test.

use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::Rng;

/// The repository root.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.sq` file of `examples/sq` and `lib`, then the catalog's
/// listings whose text is at most `max_catalog_bytes` long, each with
/// the path it is (or would be, for a listing) read from.
pub fn corpus(max_catalog_bytes: usize) -> Vec<(PathBuf, String)> {
    let root = repo_root();
    let mut sources = Vec::new();
    for dir in ["examples/sq", "lib"] {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(root.join(dir))
            .expect("corpus directory")
            .map(|e| e.expect("corpus entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "sq"))
            .collect();
        paths.sort();
        for p in paths {
            let text = std::fs::read_to_string(&p).expect("corpus file");
            sources.push((p, text));
        }
    }
    for bench in square_workloads::catalog::Benchmark::ALL {
        let text = square_workloads::catalog::sq_source(bench).expect("catalog listing");
        if text.len() <= max_catalog_bytes {
            let name = format!("{}.sq", bench.name().to_ascii_lowercase());
            sources.push((root.join("examples/sq").join(name), text));
        }
    }
    sources
}

/// One to four byte-level mutations of `source`: a deleted run, an
/// inserted byte the grammar uses or a non-ASCII character, or a
/// duplicated slice. Invalid UTF-8 is repaired lossily, as reading the
/// file as text would have to.
pub fn byte_mutation(source: &str, rng: &mut StdRng) -> String {
    const BYTES: &[u8] = b" \n;,(){}#/_apcx0123456789\t";
    let mut bytes = source.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=4usize) {
        let at = rng.gen_range(0..=bytes.len());
        match rng.gen_range(0..4u8) {
            0 if at < bytes.len() => {
                let len = rng.gen_range(1..=8usize).min(bytes.len() - at);
                bytes.drain(at..at + len);
            }
            1 => bytes.insert(at, BYTES[rng.gen_range(0..BYTES.len())]),
            2 => {
                let ch = ['€', 'λ', '\u{301}', '漢'][rng.gen_range(0..4usize)];
                let mut buf = [0; 4];
                bytes.splice(at..at, ch.encode_utf8(&mut buf).bytes());
            }
            _ => {
                let end = (at + rng.gen_range(1..=64usize)).min(bytes.len());
                let to = rng.gen_range(0..=bytes.len());
                let slice = bytes[at..end].to_vec();
                bytes.splice(to..to, slice);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The byte ranges of `source`'s words (runs of `[A-Za-z0-9_]`),
/// comments included.
fn words(source: &str) -> Vec<(usize, usize)> {
    let is_word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let bytes = source.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if is_word(bytes[i]) {
            let start = i;
            while i < bytes.len() && is_word(bytes[i]) {
                i += 1;
            }
            out.push((start, i));
        } else {
            i += 1;
        }
    }
    out
}

/// True for an operand word: `p` or `a` and digits.
fn is_operand(word: &str) -> bool {
    word.len() > 1
        && (word.starts_with('p') || word.starts_with('a'))
        && word[1..].bytes().all(|b| b.is_ascii_digit())
}

/// One mutation aimed at resolution and lowering rather than syntax:
/// an operand index bumped (by one, or past any machine), one operand
/// copied over the next, a callee misspelled, a `params`/`ancilla`/
/// `clbits` count nudged, or a `cond cK` guard or a `measure`
/// statement inserted. Sources without a matching site come back
/// unchanged.
pub fn lowering_mutation(source: &str, rng: &mut StdRng) -> String {
    let ws = words(source);
    if ws.is_empty() {
        return source.to_string();
    }
    let text = |(s, e): (usize, usize)| &source[s..e];
    let pick = |rng: &mut StdRng, f: &dyn Fn(usize) -> bool| {
        let sites: Vec<usize> = (0..ws.len()).filter(|&i| f(i)).collect();
        (!sites.is_empty()).then(|| sites[rng.gen_range(0..sites.len())])
    };
    let splice =
        |(s, e): (usize, usize), with: &str| format!("{}{with}{}", &source[..s], &source[e..]);
    match rng.gen_range(0..6u8) {
        0 => match pick(rng, &|i| is_operand(text(ws[i]))) {
            Some(i) => {
                let w = text(ws[i]);
                let n: usize = w[1..].parse().unwrap_or(0);
                let bumped = match rng.gen_range(0..3u8) {
                    0 => n.saturating_add(1),
                    1 => n.saturating_add(1 << 20),
                    _ => usize::MAX,
                };
                splice(ws[i], &format!("{}{bumped}", &w[..1]))
            }
            None => source.to_string(),
        },
        1 => match pick(rng, &|i| {
            i + 1 < ws.len() && is_operand(text(ws[i])) && is_operand(text(ws[i + 1]))
        }) {
            Some(i) => splice(ws[i + 1], text(ws[i])),
            None => source.to_string(),
        },
        2 => match pick(rng, &|i| i > 0 && text(ws[i - 1]) == "call") {
            Some(i) => {
                let w = text(ws[i]);
                let misspelled = match rng.gen_range(0..3u8) {
                    0 => format!("{w}x"),
                    1 => w[..w.len() - 1].to_string() + "_",
                    _ => w.chars().rev().collect(),
                };
                splice(ws[i], &misspelled)
            }
            None => source.to_string(),
        },
        3 => match pick(rng, &|i| {
            i + 1 < ws.len()
                && matches!(text(ws[i + 1]), "params" | "ancilla" | "clbits")
                && text(ws[i]).bytes().all(|b| b.is_ascii_digit())
        }) {
            Some(i) => {
                let n: usize = text(ws[i]).parse().unwrap_or(0);
                let nudged = if rng.gen_bool(0.5) {
                    n.saturating_sub(1)
                } else {
                    n.saturating_add(1)
                };
                splice(ws[i], &nudged.to_string())
            }
            None => source.to_string(),
        },
        4 => match pick(rng, &|i| {
            matches!(text(ws[i]), "x" | "cx" | "ccx" | "swap" | "mcx")
                && i + 1 < ws.len()
                && is_operand(text(ws[i + 1]))
        }) {
            Some(i) => {
                let (s, _) = ws[i];
                let k = rng.gen_range(0..3usize);
                format!("{}cond c{k} {}", &source[..s], &source[s..])
            }
            None => source.to_string(),
        },
        _ => match pick(rng, &|i| is_operand(text(ws[i]))) {
            Some(i) => {
                // A new statement after the end of the operand's own.
                let (_, e) = ws[i];
                match source[e..].find(';') {
                    Some(semi) => {
                        let at = e + semi + 1;
                        let k = rng.gen_range(0..3usize);
                        let q = text(ws[i]);
                        format!("{} measure {q} c{k};{}", &source[..at], &source[at..])
                    }
                    None => source.to_string(),
                }
            }
            None => source.to_string(),
        },
    }
}
