//! Hand-rolled lexer for `.sq` source.
//!
//! The token set is deliberately tiny: *words* (identifiers, numbers,
//! keywords, gate mnemonics and operands are all one lexical class —
//! module names like `2of5` may start with a digit, so there is no
//! separate number token) plus six punctuation marks. `//` and `#`
//! start line comments. Unknown characters produce a diagnostic and
//! are skipped, so lexing never aborts the parse.

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
    /// End of input (always the last token).
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

/// Tokenizes `source`. Returns the token stream (always terminated by
/// an [`TokenKind::Eof`] token) and any lexical diagnostics (unknown
/// characters, which are skipped).
pub fn lex(source: &str) -> (Vec<Token>, Vec<Diagnostic>) {
    lex_at(source, 0)
}

/// [`lex`] with every span offset by `base`: the source's byte 0 sits
/// at global offset `base` (see [`crate::modules::SourceMap`]).
pub(crate) fn lex_at(source: &str, base: usize) -> (Vec<Token>, Vec<Diagnostic>) {
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
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Word,
                    span: Span::new(base + start, base + i),
                });
            }
            _ => {
                // Skip one whole character (not byte) so multi-byte
                // UTF-8 garbage produces one diagnostic, not several.
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

fn line_end(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && bytes[i] != b'\n' {
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).0.iter().map(|t| t.kind).collect()
    }

    #[test]
    fn words_and_punctuation() {
        let src = "module 2of5(5 params, 3 ancilla) { compute { x a0; } }";
        let (tokens, diags) = lex(src);
        assert!(diags.is_empty());
        assert_eq!(tokens[0].text(src), "module");
        assert_eq!(tokens[1].text(src), "2of5");
        assert_eq!(tokens[2].kind, TokenKind::LParen);
        assert_eq!(*kinds(src).last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn comments_are_skipped() {
        let src = "// header\nx a0; # trailing\ncx a0 a1;";
        let (tokens, diags) = lex(src);
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
        let (tokens, diags) = lex("x a0; € cx a0 a1;");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("unexpected character"));
        // The stream still contains everything after the bad char.
        assert!(tokens.iter().filter(|t| t.kind == TokenKind::Word).count() >= 4);
    }
}
