//! Hand-rolled lexer for `.sq` source: a cursor the parser advances.
//!
//! The token set is deliberately tiny: *words* (identifiers, numbers,
//! keywords, gate mnemonics and operands are all one lexical class —
//! module names like `2of5` may start with a digit, so there is no
//! separate number token) plus six punctuation marks. `//` and `#`
//! start line comments. Unknown characters produce a diagnostic and
//! are skipped, so lexing never aborts the parse.
//!
//! There is no token vector. The parser reads only the current token,
//! so [`Lexer`] yields one token at a time and keeps its lexical
//! diagnostics beside the cursor; the parser drains it to end of input
//! and puts those diagnostics before its own. Lowering runs the same
//! cursor over one statement's span (`words`) when that statement's
//! first violation needs an operand's span.

use crate::diag::{Diagnostic, Span};

/// Lexical class of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// A run of `[A-Za-z0-9_]` characters: identifier, number,
    /// keyword, mnemonic, or operand — the parser decides from context.
    Word,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// End of input (the cursor yields it forever once reached).
    Eof,
}

impl TokenKind {
    /// Human-readable name for "expected X, found Y" messages.
    pub fn describe(self) -> &'static str {
        match self {
            TokenKind::Word => "a word",
            TokenKind::LBrace => "`{`",
            TokenKind::RBrace => "`}`",
            TokenKind::LParen => "`(`",
            TokenKind::RParen => "`)`",
            TokenKind::Comma => "`,`",
            TokenKind::Semi => "`;`",
            TokenKind::Eof => "end of input",
        }
    }
}

/// One token: a kind plus its byte span (text is sliced from the
/// source on demand).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Lexical class.
    pub kind: TokenKind,
    /// Byte range in the source.
    pub span: Span,
}

impl Token {
    /// The token's text within `source`.
    pub fn text<'s>(&self, source: &'s str) -> &'s str {
        &source[self.span.start..self.span.end]
    }
}

/// A cursor over `.sq` source: each [`Lexer::next_token`] call lexes
/// one more token, and unknown characters on the way are recorded as
/// diagnostics (read them with [`Lexer::into_diags`]).
#[derive(Debug)]
pub struct Lexer<'s> {
    source: &'s str,
    /// Global offset of `source`'s byte 0; token spans include it.
    base: usize,
    pos: usize,
    diags: Vec<Diagnostic>,
}

impl<'s> Lexer<'s> {
    /// A cursor at the start of `source`, whose byte 0 sits at global
    /// offset `base` (see [`crate::modules::SourceMap`]).
    pub fn new(source: &'s str, base: usize) -> Lexer<'s> {
        Lexer {
            source,
            base,
            pos: 0,
            diags: Vec::new(),
        }
    }

    /// The next token; [`TokenKind::Eof`] at, and forever after, the
    /// end of input.
    pub fn next_token(&mut self) -> Token {
        let bytes = self.source.as_bytes();
        let token = |kind, start: usize, end: usize| Token {
            kind,
            span: Span::new(self.base + start, self.base + end),
        };
        while let Some(&b) = bytes.get(self.pos) {
            let i = self.pos;
            let kind = match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.pos += 1;
                    continue;
                }
                b'#' => {
                    self.pos = line_end(bytes, i);
                    continue;
                }
                b'/' if bytes.get(i + 1) == Some(&b'/') => {
                    self.pos = line_end(bytes, i);
                    continue;
                }
                b'{' => TokenKind::LBrace,
                b'}' => TokenKind::RBrace,
                b'(' => TokenKind::LParen,
                b')' => TokenKind::RParen,
                b',' => TokenKind::Comma,
                b';' => TokenKind::Semi,
                b if is_word_byte(b) => {
                    let len = bytes[i..].iter().take_while(|&&b| is_word_byte(b)).count();
                    self.pos = i + len;
                    return token(TokenKind::Word, i, self.pos);
                }
                _ => {
                    // Skip one whole character (not byte) so multi-byte
                    // UTF-8 garbage produces one diagnostic, not several.
                    let ch = self.source[i..].chars().next().unwrap_or('\u{fffd}');
                    self.pos = i + ch.len_utf8();
                    self.diags.push(Diagnostic::new(
                        Span::new(self.base + i, self.base + self.pos),
                        format!("unexpected character `{ch}`"),
                    ));
                    continue;
                }
            };
            self.pos = i + 1;
            return token(kind, i, i + 1);
        }
        token(TokenKind::Eof, bytes.len(), bytes.len())
    }

    /// The lexical diagnostics of everything lexed so far, in source
    /// order.
    pub fn into_diags(self) -> Vec<Diagnostic> {
        self.diags
    }
}

/// The spans of the words of `text`, whose byte 0 sits at global offset
/// `base`: how lowering recovers an operand's span from its statement's
/// span, since the parsed statement keeps only the whole span.
pub(crate) fn words(text: &str, base: usize) -> Vec<Span> {
    let mut lexer = Lexer::new(text, base);
    std::iter::from_fn(|| Some(lexer.next_token()))
        .take_while(|t| t.kind != TokenKind::Eof)
        .filter(|t| t.kind == TokenKind::Word)
        .map(|t| t.span)
        .collect()
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn line_end(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && bytes[i] != b'\n' {
        i += 1;
    }
    i
}

#[cfg(test)]
#[allow(dead_code)]
#[path = "../tests/support/mutate.rs"]
mod mutate;

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole-vector lexer the cursor replaced, kept as the
    /// reference the cursor must agree with token for token.
    fn reference_lex(source: &str, base: usize) -> (Vec<Token>, Vec<Diagnostic>) {
        let bytes = source.as_bytes();
        let mut tokens = Vec::new();
        let mut diags = Vec::new();
        let mut i = 0;
        while i < bytes.len() {
            let b = bytes[i];
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => i += 1,
                b'#' => i = line_end(bytes, i),
                b'/' if bytes.get(i + 1) == Some(&b'/') => i = line_end(bytes, i),
                b'{' | b'}' | b'(' | b')' | b',' | b';' => {
                    let kind = match b {
                        b'{' => TokenKind::LBrace,
                        b'}' => TokenKind::RBrace,
                        b'(' => TokenKind::LParen,
                        b')' => TokenKind::RParen,
                        b',' => TokenKind::Comma,
                        _ => TokenKind::Semi,
                    };
                    tokens.push(Token {
                        kind,
                        span: Span::new(base + i, base + i + 1),
                    });
                    i += 1;
                }
                b if b.is_ascii_alphanumeric() || b == b'_' => {
                    let start = i;
                    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
                    {
                        i += 1;
                    }
                    tokens.push(Token {
                        kind: TokenKind::Word,
                        span: Span::new(base + start, base + i),
                    });
                }
                _ => {
                    let ch = source[i..].chars().next().unwrap_or('\u{fffd}');
                    let end = i + ch.len_utf8();
                    diags.push(Diagnostic::new(
                        Span::new(base + i, base + end),
                        format!("unexpected character `{ch}`"),
                    ));
                    i = end;
                }
            }
        }
        tokens.push(Token {
            kind: TokenKind::Eof,
            span: Span::new(base + source.len(), base + source.len()),
        });
        (tokens, diags)
    }

    /// Drains a cursor over `source`: its tokens through the first
    /// `Eof`, and its diagnostics.
    fn drain(source: &str, base: usize) -> (Vec<Token>, Vec<Diagnostic>) {
        let mut lexer = Lexer::new(source, base);
        let mut tokens = Vec::new();
        loop {
            let t = lexer.next_token();
            tokens.push(t);
            if t.kind == TokenKind::Eof {
                // Eof repeats instead of running off the end.
                assert_eq!(lexer.next_token(), t);
                return (tokens, lexer.into_diags());
            }
        }
    }

    fn kinds(src: &str) -> Vec<TokenKind> {
        drain(src, 0).0.iter().map(|t| t.kind).collect()
    }

    #[test]
    fn words_and_punctuation() {
        let src = "module 2of5(5 params, 3 ancilla) { compute { x a0; } }";
        let (tokens, diags) = drain(src, 0);
        assert!(diags.is_empty());
        assert_eq!(tokens[0].text(src), "module");
        assert_eq!(tokens[1].text(src), "2of5");
        assert_eq!(tokens[2].kind, TokenKind::LParen);
        assert_eq!(*kinds(src).last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn comments_are_skipped() {
        let src = "// header\nx a0; # trailing\ncx a0 a1;";
        let (tokens, diags) = drain(src, 0);
        assert!(diags.is_empty());
        let words: Vec<&str> = tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Word)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(words, ["x", "a0", "cx", "a0", "a1"]);
    }

    #[test]
    fn unknown_characters_diagnose_and_continue() {
        let (tokens, diags) = drain("x a0; € cx a0 a1;", 0);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("unexpected character"));
        // The stream still contains everything after the bad char.
        assert!(tokens.iter().filter(|t| t.kind == TokenKind::Word).count() >= 4);
    }

    #[test]
    fn words_of_a_statement_carry_global_spans() {
        let src = "call f(a0, // one\n a1);";
        let spans = words(src, 100);
        let text: Vec<&str> = spans
            .iter()
            .map(|s| &src[s.start - 100..s.end - 100])
            .collect();
        assert_eq!(text, ["call", "f", "a0", "a1"]);
    }

    #[test]
    fn the_cursor_matches_the_whole_vector_lexer() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed_1e8e);
        let mut checked = 0;
        for (i, (_, source)) in mutate::corpus(usize::MAX).iter().enumerate() {
            // A nonzero base checks that spans shift with it.
            assert_eq!(drain(source, 7 * i), reference_lex(source, 7 * i));
            // The large listings get fewer mutants: each one re-lexes
            // the whole file.
            let mutants = if source.len() > 100_000 { 2 } else { 40 };
            for _ in 0..mutants {
                let mutated = mutate::byte_mutation(source, &mut rng);
                assert_eq!(drain(&mutated, 3), reference_lex(&mutated, 3), "{mutated}");
                checked += 1;
            }
        }
        assert!(checked > 400, "{checked} mutants");
    }
}
