//! Spanned diagnostics with line/column carets and suggestions.
//!
//! Every frontend error carries a byte [`Span`] into the source text;
//! [`render`] turns a batch of diagnostics into the familiar
//! `error: … --> file:line:col` display with a caret line under the
//! offending token. [`suggest`] powers the "did you mean" hints for
//! misspelled gate mnemonics and module names.

use std::fmt;

/// A half-open byte range `[start, end)` into the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// First byte of the spanned region.
    pub start: usize,
    /// One past the last byte of the spanned region.
    pub end: usize,
}

impl Span {
    /// A span covering `[start, end)`.
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }
}

/// One frontend error: a message anchored to a [`Span`], with an
/// optional `help` hint rendered next to the caret.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Byte span of the offending region.
    pub span: Span,
    /// What went wrong.
    pub message: String,
    /// Optional hint (e.g. a "did you mean" suggestion).
    pub help: Option<String>,
}

impl Diagnostic {
    /// A diagnostic without a help hint.
    pub fn new(span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            span,
            message: message.into(),
            help: None,
        }
    }

    /// Attaches a help hint.
    pub fn with_help(mut self, help: impl Into<String>) -> Diagnostic {
        self.help = Some(help.into());
        self
    }

    /// The 1-based (line, column) of the diagnostic's span start.
    pub fn line_col(&self, source: &str) -> (usize, usize) {
        line_col(source, self.span.start)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)?;
        if let Some(h) = &self.help {
            write!(f, " ({h})")?;
        }
        Ok(())
    }
}

/// The 1-based (line, column) of byte `offset` in `source`. Columns
/// count characters, not bytes, so carets line up for non-ASCII text.
pub fn line_col(source: &str, offset: usize) -> (usize, usize) {
    let offset = offset.min(source.len());
    let before = &source[..offset];
    let line = before.bytes().filter(|&b| b == b'\n').count() + 1;
    let line_start = before.rfind('\n').map(|i| i + 1).unwrap_or(0);
    let col = source[line_start..offset].chars().count() + 1;
    (line, col)
}

/// Byte offsets at which each line of `source` starts: built once per
/// file, so each diagnostic finds its line by binary search.
pub(crate) fn line_starts(source: &str) -> Vec<usize> {
    std::iter::once(0)
        .chain(source.match_indices('\n').map(|(i, _)| i + 1))
        .collect()
}

/// Longest excerpt, in bytes: a longer source line is clipped to a
/// window this wide around the span, so a report stays bounded.
const EXCERPT_BYTES: usize = 160;

/// Bytes of the line a clipped window keeps before the span.
const EXCERPT_LEAD: usize = 40;

/// Renders diagnostics as compiler-style error reports:
///
/// ```text
/// error: unknown gate `ccz`
///   --> prog.sq:4:5
///    |
///  4 |     ccz p0 p1 a0;
///    |     ^^^ did you mean `ccx`?
/// ```
///
/// A source line longer than 160 bytes is clipped to a window around
/// the span, each cut marked `…`.
pub fn render(source: &str, file: &str, diags: &[Diagnostic]) -> String {
    let lines = line_starts(source);
    let mut out = String::new();
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        render_one(&mut out, source, &lines, file, d, d.span);
    }
    out
}

/// Appends the report of `d`, anchored at `span` of `source` (whose
/// [`line_starts`] are `lines`), to `out`.
pub(crate) fn render_one(
    out: &mut String,
    source: &str,
    lines: &[usize],
    file: &str,
    d: &Diagnostic,
    span: Span,
) {
    let start = span.start.min(source.len());
    let line = lines.partition_point(|&s| s <= start);
    let line_start = lines[line - 1];
    let col = source[line_start..start].chars().count() + 1;
    out.push_str(&format!("error: {}\n", d.message));
    out.push_str(&format!("  --> {file}:{line}:{col}\n"));
    let text = source[line_start..].lines().next().unwrap_or("");
    // The span's part on this line, and the excerpt's window of it.
    let lo = (start - line_start).min(text.len());
    let hi = span.end.saturating_sub(line_start).clamp(lo, text.len());
    let from = text.floor_char_boundary(
        lo.saturating_sub(EXCERPT_LEAD)
            .min(text.len().saturating_sub(EXCERPT_BYTES)),
    );
    let to = text.ceil_char_boundary(from + EXCERPT_BYTES);
    let open = if from > 0 { "…" } else { "" };
    let close = if to < text.len() { "…" } else { "" };
    let gutter = format!("{line}");
    let pad = " ".repeat(gutter.len());
    out.push_str(&format!(" {pad} |\n"));
    out.push_str(&format!(" {gutter} | {open}{}{close}\n", &text[from..to]));
    // Caret width: the spanned text's *display* columns within the
    // excerpt (at least 1) — East Asian wide characters occupy two.
    let width: usize = text[lo.min(to)..hi.min(to)]
        .chars()
        .map(display_width)
        .sum::<usize>()
        .max(1);
    // Pad with the line's own tabs so the caret stays aligned
    // under the span regardless of how the terminal expands them;
    // every other character (the opening `…` included) contributes
    // its display width in spaces.
    let caret_pad: String = open
        .chars()
        .chain(source[line_start + from..start].chars())
        .flat_map(|c| {
            let (fill, n) = if c == '\t' {
                ('\t', 1)
            } else {
                (' ', display_width(c))
            };
            std::iter::repeat_n(fill, n)
        })
        .collect();
    out.push_str(&format!(" {pad} | {caret_pad}{}", "^".repeat(width)));
    if let Some(h) = &d.help {
        out.push_str(&format!(" {h}"));
    }
    out.push('\n');
}

/// Terminal display width of one character: 2 for East Asian wide and
/// fullwidth ranges, 0 for combining marks and zero-width joiners, 1
/// otherwise. A compact approximation of `wcwidth` covering the
/// scripts that plausibly appear in `.sq` comments and module names;
/// used so caret lines stay aligned under non-ASCII source.
fn display_width(c: char) -> usize {
    let cp = c as u32;
    let wide = matches!(
        cp,
        0x1100..=0x115F          // Hangul Jamo
        | 0x2E80..=0x303E        // CJK radicals, Kangxi, CJK punctuation
        | 0x3041..=0x33FF        // Hiragana .. CJK compatibility
        | 0x3400..=0x4DBF        // CJK extension A
        | 0x4E00..=0x9FFF        // CJK unified ideographs
        | 0xA000..=0xA4CF        // Yi
        | 0xAC00..=0xD7A3        // Hangul syllables
        | 0xF900..=0xFAFF        // CJK compatibility ideographs
        | 0xFE30..=0xFE4F        // CJK compatibility forms
        | 0xFF00..=0xFF60        // Fullwidth forms
        | 0xFFE0..=0xFFE6        // Fullwidth signs
        | 0x1F300..=0x1F64F      // Emoji (pictographs, emoticons)
        | 0x1F900..=0x1F9FF      // Supplemental symbols
        | 0x20000..=0x3FFFD      // CJK extensions B+
    );
    let zero = matches!(
        cp,
        0x0300..=0x036F          // combining diacritics
        | 0x200B..=0x200D        // zero-width space/joiners
        | 0xFE00..=0xFE0F        // variation selectors
    );
    if wide {
        2
    } else if zero {
        0
    } else {
        1
    }
}

/// Returns the candidate closest to `name` (case-insensitively) when
/// it is close enough to be a plausible typo — the "did you mean"
/// heuristic; of equally close candidates, the first. The
/// edit-distance budget scales with the name's length so short
/// mnemonics don't suggest wildly, and it bounds the search (see
/// [`bounded_distance`]).
pub fn suggest<'a>(name: &str, candidates: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
    let lower: Vec<char> = name.chars().map(|c| c.to_ascii_lowercase()).collect();
    let budget = 1 + lower.len() / 4;
    // Scratch reused across candidates: the folded candidate and two
    // distance rows.
    let (mut folded, mut rows) = (Vec::new(), (Vec::new(), Vec::new()));
    let mut best: Option<(usize, &str)> = None;
    // An exact match is not a typo — but a case-only variant (distance
    // 0 after folding, different spelling) is worth suggesting when the
    // caller matched case-sensitively.
    for c in candidates.into_iter().filter(|&c| c != name) {
        folded.clear();
        folded.extend(c.chars().map(|c| c.to_ascii_lowercase()));
        match bounded_distance(&lower, &folded, budget, &mut rows) {
            Some(d) if best.is_none_or(|(bd, _)| d < bd) => best = Some((d, c)),
            _ => {}
        }
    }
    best.map(|(_, c)| c)
}

/// Levenshtein distance between `a` and `b`, or `None` when it exceeds
/// `budget`: decided without a row when the lengths differ by more,
/// and at the first row whose every cell does (a row's minimum never
/// decreases in later rows). `rows` are scratch buffers.
fn bounded_distance(
    a: &[char],
    b: &[char],
    budget: usize,
    (prev, cur): &mut (Vec<usize>, Vec<usize>),
) -> Option<usize> {
    if a.len().abs_diff(b.len()) > budget {
        return None;
    }
    prev.clear();
    prev.extend(0..=b.len());
    cur.resize(b.len() + 1, 0);
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        if cur.iter().all(|&d| d > budget) {
            return None;
        }
        std::mem::swap(prev, cur);
    }
    Some(prev[b.len()]).filter(|&d| d <= budget)
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    /// Levenshtein distance over characters, unbounded.
    fn edit_distance(a: &str, b: &str) -> usize {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        let mut prev: Vec<usize> = (0..=b.len()).collect();
        let mut cur = vec![0usize; b.len() + 1];
        for (i, &ca) in a.iter().enumerate() {
            cur[0] = i + 1;
            for (j, &cb) in b.iter().enumerate() {
                let sub = prev[j] + usize::from(ca != cb);
                cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[b.len()]
    }

    /// `suggest` as it was before its search was bounded: every
    /// candidate scored in full.
    fn suggest_unbounded<'a>(name: &str, candidates: &[&'a str]) -> Option<&'a str> {
        let lower = name.to_ascii_lowercase();
        let budget = 1 + lower.chars().count() / 4;
        candidates
            .iter()
            .map(|&c| (edit_distance(&lower, &c.to_ascii_lowercase()), c))
            .filter(|&(d, c)| c != name && d <= budget)
            .min_by_key(|&(d, _)| d)
            .map(|(_, c)| c)
    }

    #[test]
    fn bounded_suggestions_equal_the_unbounded_ones() {
        // Short names over a small alphabet (case variants and
        // multi-byte chars included) so near misses and ties abound.
        let alphabet = ['a', 'b', 'A', 'B', '_', '1', 'é', '加'];
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let names: Vec<String> = (0..400)
            .map(|_| {
                (0..next(9))
                    .map(|_| alphabet[next(alphabet.len())])
                    .collect()
            })
            .collect();
        let mut ties = 0;
        for round in 0..300 {
            let pool: Vec<&str> = (0..1 + next(40))
                .map(|_| names[next(names.len())].as_str())
                .collect();
            let name = names[(round * 7) % names.len()].as_str();
            let want = suggest_unbounded(name, &pool);
            assert_eq!(
                suggest(name, pool.iter().copied()),
                want,
                "{name:?} in {pool:?}"
            );
            if let Some(w) = want {
                let best = edit_distance(&name.to_ascii_lowercase(), &w.to_ascii_lowercase());
                let equal = pool
                    .iter()
                    .filter(|c| {
                        **c != name
                            && edit_distance(&name.to_ascii_lowercase(), &c.to_ascii_lowercase())
                                == best
                    })
                    .collect::<HashSet<_>>();
                ties += usize::from(equal.len() > 1);
            }
        }
        assert!(ties > 20, "only {ties} rounds had tied candidates");
    }

    #[test]
    fn line_col_is_one_based() {
        let src = "ab\ncd\nef";
        assert_eq!(line_col(src, 0), (1, 1));
        assert_eq!(line_col(src, 3), (2, 1));
        assert_eq!(line_col(src, 4), (2, 2));
        assert_eq!(line_col(src, 8), (3, 3));
    }

    #[test]
    fn render_carets_under_the_span() {
        let src = "module f(1 params, 0 ancilla) {\n  compute {\n    ccz p0;\n  }\n}\n";
        let at = src.find("ccz").unwrap();
        let d = Diagnostic::new(Span::new(at, at + 3), "unknown gate `ccz`")
            .with_help("did you mean `ccx`?");
        let rendered = render(src, "prog.sq", &[d]);
        assert!(rendered.contains("error: unknown gate `ccz`"));
        assert!(rendered.contains("--> prog.sq:3:5"));
        assert!(rendered.contains("^^^ did you mean `ccx`?"));
    }

    #[test]
    fn suggestions_respect_the_distance_budget() {
        assert_eq!(suggest("ccz", ["x", "cx", "ccx", "swap"]), Some("ccx"));
        assert_eq!(suggest("fun2", ["fun1", "main"]), Some("fun1"));
        assert_eq!(suggest("zzzzz", ["x", "cx", "ccx"]), None);
        // An exact match is not a typo; no suggestion.
        assert_eq!(suggest("ccx", ["ccx"]), None);
        // A case-only variant *is* suggested (the caller matched
        // case-sensitively, so the user needs the canonical spelling).
        assert_eq!(suggest("COMPUTE", ["compute", "store"]), Some("compute"));
    }

    #[test]
    fn render_keeps_carets_aligned_under_tabs() {
        let src = "module m(1 params, 0 ancilla) {\n\tcompute {\n\t\tzz p0;\n\t}\n}\n";
        let at = src.find("zz").unwrap();
        let d = Diagnostic::new(Span::new(at, at + 2), "unknown gate `zz`");
        let rendered = render(src, "prog.sq", &[d]);
        // The caret line reuses the source line's tabs, so the carets
        // land under the span however wide the terminal draws a tab.
        assert!(
            rendered.contains(" 3 | \t\tzz p0;\n   | \t\t^^"),
            "{rendered}"
        );
    }

    #[test]
    fn render_accounts_for_wide_characters() {
        // `加法` is two East Asian wide characters (two columns each),
        // so the caret pad must emit four spaces for them — counting
        // chars would leave the carets two columns short.
        let src = "\t加法 zz p0;\n";
        let at = src.find("zz").unwrap();
        let d = Diagnostic::new(Span::new(at, at + 2), "unknown gate `zz`");
        let rendered = render(src, "prog.sq", &[d]);
        assert!(
            rendered.contains(" 1 | \t加法 zz p0;\n   | \t     ^^"),
            "{rendered}"
        );
    }

    #[test]
    fn long_lines_clip_to_a_window_around_the_span() {
        let src = format!("x{}zz{};\n", " a".repeat(300), " b".repeat(300));
        let at = src.find("zz").unwrap();
        let d = Diagnostic::new(Span::new(at, at + 2), "unknown gate `zz`");
        let rendered = render(&src, "prog.sq", &[d]);
        let lines: Vec<&str> = rendered.lines().collect();
        // Line and column still count from the start of the line.
        assert_eq!(lines[1], format!("  --> prog.sq:1:{}", at + 1));
        let excerpt = lines[3].strip_prefix(" 1 | ").unwrap();
        assert!(
            excerpt.starts_with('…') && excerpt.ends_with('…'),
            "{excerpt}"
        );
        assert_eq!(excerpt.len(), EXCERPT_BYTES + 2 * '…'.len_utf8());
        // The carets sit under `zz` in the excerpt.
        let caret = lines[4].strip_prefix("   | ").unwrap();
        let column = excerpt[..excerpt.find("zz").unwrap()].chars().count();
        assert_eq!(caret, format!("{}^^", " ".repeat(column)));
    }

    #[test]
    fn clipped_carets_stay_aligned_under_tabs_and_wide_characters() {
        let src = format!("{}\t加法 zz;\n", "a ".repeat(200));
        let at = src.find("zz").unwrap();
        let d = Diagnostic::new(Span::new(at, at + 2), "unknown gate `zz`");
        let rendered = render(&src, "prog.sq", &[d]);
        let lines: Vec<&str> = rendered.lines().collect();
        let excerpt = lines[3].strip_prefix(" 1 | ").unwrap();
        assert!(
            excerpt.starts_with('…') && !excerpt.ends_with('…'),
            "{excerpt}"
        );
        // `…` and each ASCII char pad one space, the tab itself, each
        // wide char two.
        let lead = &excerpt[..excerpt.find("\t").unwrap()];
        let want = format!("{}\t     ^^", " ".repeat(lead.chars().count()));
        assert_eq!(lines[4].strip_prefix("   | ").unwrap(), want);
    }

    #[test]
    fn a_span_longer_than_the_window_carets_only_the_window() {
        let src = format!("mcx {};\n", "a9 ".repeat(1000));
        let d = Diagnostic::new(
            Span::new(0, src.len() - 1),
            "gate uses the same qubit twice",
        );
        let rendered = render(&src, "prog.sq", &[d]);
        let lines: Vec<&str> = rendered.lines().collect();
        let excerpt = lines[3].strip_prefix(" 1 | ").unwrap();
        assert_eq!(excerpt, format!("{}…", &src[..EXCERPT_BYTES]));
        assert_eq!(lines[4], format!("   | {}", "^".repeat(EXCERPT_BYTES)));
    }

    #[test]
    fn display_width_classifies_wide_and_zero_width() {
        assert_eq!(display_width('a'), 1);
        assert_eq!(display_width('加'), 2);
        assert_eq!(display_width('ﬀ'), 1); // narrow ligature
        assert_eq!(display_width('\u{200B}'), 0); // zero-width space
        assert_eq!(display_width('\u{0301}'), 0); // combining acute
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("same", "same"), 0);
    }
}
