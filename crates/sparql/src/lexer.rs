//! Tokenizer for the SPARQL subset.

use std::fmt;

use sapphire_rdf::term::unescape_literal;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// A keyword (uppercased), e.g. `SELECT`.
    Keyword(String),
    /// A variable name without the leading `?`/`$`.
    Var(String),
    /// `<...>` IRI reference (without brackets).
    Iri(String),
    /// `prefix:local` name — kept split for late expansion.
    PName(String, String),
    /// String literal body (unescaped) with optional `@lang` or `^^`-datatype
    /// marker to follow (the parser consumes those separately).
    Str(String),
    /// Language tag without `@`.
    LangTag(String),
    /// `^^` datatype marker.
    DtMarker,
    /// Integer or decimal numeric literal, kept lexical.
    Number(String),
    /// The keyword-like `a` predicate shorthand.
    A,
    /// `*`
    Star,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `.`
    Dot,
    /// `;`
    Semicolon,
    /// `,`
    Comma,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<` (comparison — IRIs are lexed separately)
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Keyword(k) => write!(f, "{k}"),
            Token::Var(v) => write!(f, "?{v}"),
            Token::Iri(i) => write!(f, "<{i}>"),
            Token::PName(p, l) => write!(f, "{p}:{l}"),
            Token::Str(s) => write!(f, "\"{s}\""),
            Token::LangTag(l) => write!(f, "@{l}"),
            Token::DtMarker => write!(f, "^^"),
            Token::Number(n) => write!(f, "{n}"),
            Token::A => write!(f, "a"),
            Token::Star => write!(f, "*"),
            Token::LBrace => write!(f, "{{"),
            Token::RBrace => write!(f, "}}"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Dot => write!(f, "."),
            Token::Semicolon => write!(f, ";"),
            Token::Comma => write!(f, ","),
            Token::Eq => write!(f, "="),
            Token::Ne => write!(f, "!="),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
            Token::AndAnd => write!(f, "&&"),
            Token::OrOr => write!(f, "||"),
            Token::Bang => write!(f, "!"),
        }
    }
}

/// A lexer error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Byte offset.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "offset {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for LexError {}

const KEYWORDS: &[&str] = &[
    "SELECT",
    "DISTINCT",
    "WHERE",
    "FILTER",
    "PREFIX",
    "LIMIT",
    "OFFSET",
    "ORDER",
    "GROUP",
    "BY",
    "ASC",
    "DESC",
    "ASK",
    "COUNT",
    "SUM",
    "MIN",
    "MAX",
    "AVG",
    "AS",
    "ISLITERAL",
    "ISIRI",
    "ISURI",
    "LANG",
    "STR",
    "STRLEN",
    "CONTAINS",
    "STRSTARTS",
    "REGEX",
    "LCASE",
    "UCASE",
    "YEAR",
    "BOUND",
    "TRUE",
    "FALSE",
    "VALUES",
];

/// Tokenize a query string.
pub fn tokenize(input: &str) -> Result<Vec<Token>, LexError> {
    let mut tokens = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
            }
            '#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '{' => {
                tokens.push(Token::LBrace);
                i += 1;
            }
            '}' => {
                tokens.push(Token::RBrace);
                i += 1;
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semicolon);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Ne);
                    i += 2;
                } else {
                    tokens.push(Token::Bang);
                    i += 1;
                }
            }
            '&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    tokens.push(Token::AndAnd);
                    i += 2;
                } else {
                    return Err(LexError {
                        offset: i,
                        message: "lone '&'".into(),
                    });
                }
            }
            '|' => {
                if bytes.get(i + 1) == Some(&b'|') {
                    tokens.push(Token::OrOr);
                    i += 2;
                } else {
                    return Err(LexError {
                        offset: i,
                        message: "lone '|'".into(),
                    });
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Ge);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '<' => {
                // Either an IRI `<...>` (no whitespace before `>`) or `<`/`<=`.
                if let Some(end) = scan_iri(bytes, i) {
                    let iri = &input[i + 1..end];
                    tokens.push(Token::Iri(iri.to_string()));
                    i = end + 1;
                } else if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Le);
                    i += 2;
                } else {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            '^' => {
                if bytes.get(i + 1) == Some(&b'^') {
                    tokens.push(Token::DtMarker);
                    i += 2;
                } else {
                    return Err(LexError {
                        offset: i,
                        message: "lone '^'".into(),
                    });
                }
            }
            '@' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'-')
                {
                    j += 1;
                }
                if j == start {
                    return Err(LexError {
                        offset: i,
                        message: "empty language tag".into(),
                    });
                }
                tokens.push(Token::LangTag(input[start..j].to_ascii_lowercase()));
                i = j;
            }
            '?' | '$' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
                {
                    j += 1;
                }
                if j == start {
                    return Err(LexError {
                        offset: i,
                        message: "empty variable name".into(),
                    });
                }
                tokens.push(Token::Var(input[start..j].to_string()));
                i = j;
            }
            '"' | '\'' => {
                let quote = bytes[i];
                let start = i + 1;
                let mut j = start;
                let mut escaped = false;
                loop {
                    if j >= bytes.len() {
                        return Err(LexError {
                            offset: i,
                            message: "unterminated string".into(),
                        });
                    }
                    if escaped {
                        escaped = false;
                    } else if bytes[j] == b'\\' {
                        escaped = true;
                    } else if bytes[j] == quote {
                        break;
                    }
                    j += 1;
                }
                let body = unescape_literal(&input[start..j])
                    .map_err(|message| LexError { offset: i, message })?;
                tokens.push(Token::Str(body));
                i = j + 1;
            }
            '.' => {
                // Distinguish statement-terminating '.' from a leading decimal
                // point (we require digits before the point, so always Dot).
                tokens.push(Token::Dot);
                i += 1;
            }
            c if c.is_ascii_digit() || c == '-' || c == '+' => {
                let start = i;
                let mut j = i;
                if bytes[j] == b'-' || bytes[j] == b'+' {
                    j += 1;
                }
                let digits_start = j;
                while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                    j += 1;
                }
                if j == digits_start {
                    return Err(LexError {
                        offset: i,
                        message: format!("stray '{c}'"),
                    });
                }
                if j < bytes.len()
                    && bytes[j] == b'.'
                    && j + 1 < bytes.len()
                    && (bytes[j + 1] as char).is_ascii_digit()
                {
                    j += 1;
                    while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                        j += 1;
                    }
                }
                // Exponent part for doubles like 8.0E7.
                if j < bytes.len() && (bytes[j] == b'e' || bytes[j] == b'E') {
                    let mut k = j + 1;
                    if k < bytes.len() && (bytes[k] == b'-' || bytes[k] == b'+') {
                        k += 1;
                    }
                    let exp_start = k;
                    while k < bytes.len() && (bytes[k] as char).is_ascii_digit() {
                        k += 1;
                    }
                    if k > exp_start {
                        j = k;
                    }
                }
                tokens.push(Token::Number(input[start..j].to_string()));
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                let mut j = i;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric()
                        || bytes[j] == b'_'
                        || bytes[j] == b'-')
                {
                    j += 1;
                }
                let word = &input[start..j];
                // Prefixed name?
                if j < bytes.len() && bytes[j] == b':' {
                    let local_start = j + 1;
                    let mut k = local_start;
                    while k < bytes.len()
                        && ((bytes[k] as char).is_ascii_alphanumeric()
                            || bytes[k] == b'_'
                            || bytes[k] == b'-'
                            || (bytes[k] == b'.'
                                && k + 1 < bytes.len()
                                && ((bytes[k + 1] as char).is_ascii_alphanumeric()
                                    || bytes[k + 1] == b'_')))
                    {
                        k += 1;
                    }
                    tokens.push(Token::PName(
                        word.to_string(),
                        input[local_start..k].to_string(),
                    ));
                    i = k;
                    continue;
                }
                let upper = word.to_ascii_uppercase();
                if word == "a" {
                    tokens.push(Token::A);
                } else if KEYWORDS.contains(&upper.as_str()) {
                    tokens.push(Token::Keyword(upper));
                } else {
                    return Err(LexError {
                        offset: start,
                        message: format!(
                            "unexpected bare word: {word:?} (did you mean a prefixed name?)"
                        ),
                    });
                }
                i = j;
            }
            ':' => {
                // Default-prefix name `:local`.
                let local_start = i + 1;
                let mut k = local_start;
                while k < bytes.len()
                    && ((bytes[k] as char).is_ascii_alphanumeric()
                        || bytes[k] == b'_'
                        || bytes[k] == b'-')
                {
                    k += 1;
                }
                tokens.push(Token::PName(
                    String::new(),
                    input[local_start..k].to_string(),
                ));
                i = k;
            }
            other => {
                return Err(LexError {
                    offset: i,
                    message: format!("unexpected character {other:?}"),
                });
            }
        }
    }
    Ok(tokens)
}

/// If `bytes[start] == '<'` begins a plausible IRI (a `>` appears before any
/// whitespace, quote, or second `<`), return the index of the closing `>`.
fn scan_iri(bytes: &[u8], start: usize) -> Option<usize> {
    debug_assert_eq!(bytes[start], b'<');
    let mut j = start + 1;
    while j < bytes.len() {
        match bytes[j] {
            b'>' => return Some(j),
            b' ' | b'\t' | b'\r' | b'\n' | b'"' | b'<' | b'{' | b'}' => return None,
            _ => j += 1,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_query_tokens() {
        let toks = tokenize("SELECT DISTINCT ?uri WHERE { ?uri a dbo:Scientist . }").unwrap();
        assert_eq!(toks[0], Token::Keyword("SELECT".into()));
        assert_eq!(toks[1], Token::Keyword("DISTINCT".into()));
        assert_eq!(toks[2], Token::Var("uri".into()));
        assert!(toks.contains(&Token::A));
        assert!(toks.contains(&Token::PName("dbo".into(), "Scientist".into())));
    }

    #[test]
    fn iri_vs_less_than() {
        let toks = tokenize("<http://x/p> < 5 <= ?v").unwrap();
        assert_eq!(toks[0], Token::Iri("http://x/p".into()));
        assert_eq!(toks[1], Token::Lt);
        assert_eq!(toks[2], Token::Number("5".into()));
        assert_eq!(toks[3], Token::Le);
    }

    #[test]
    fn string_with_lang_and_datatype() {
        let toks = tokenize(r#""Kennedy"@en "1945"^^xsd:integer"#).unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Str("Kennedy".into()),
                Token::LangTag("en".into()),
                Token::Str("1945".into()),
                Token::DtMarker,
                Token::PName("xsd".into(), "integer".into()),
            ]
        );
    }

    #[test]
    fn numbers_including_scientific() {
        let toks = tokenize("80000000 8.0E7 -3.5 +2").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Number("80000000".into()),
                Token::Number("8.0E7".into()),
                Token::Number("-3.5".into()),
                Token::Number("+2".into()),
            ]
        );
    }

    #[test]
    fn operators() {
        let toks = tokenize("&& || ! != = >= >").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::AndAnd,
                Token::OrOr,
                Token::Bang,
                Token::Ne,
                Token::Eq,
                Token::Ge,
                Token::Gt
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        let toks = tokenize("SELECT # comment here\n ?x").unwrap();
        assert_eq!(toks.len(), 2);
    }

    #[test]
    fn keywords_case_insensitive() {
        let toks = tokenize("select Where filter").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Keyword("SELECT".into()),
                Token::Keyword("WHERE".into()),
                Token::Keyword("FILTER".into()),
            ]
        );
    }

    #[test]
    fn bad_inputs() {
        assert!(tokenize("\"unterminated").is_err());
        assert!(tokenize("? ").is_err());
        assert!(tokenize("lone & here").is_err());
        assert!(tokenize("@").is_err());
    }

    #[test]
    fn pname_with_dots() {
        let toks = tokenize("res:New_York.City").unwrap();
        assert_eq!(
            toks,
            vec![Token::PName("res".into(), "New_York.City".into())]
        );
    }

    #[test]
    fn filter_functions_are_keywords() {
        let toks = tokenize("isLITERAL(?o) && lang(?o)").unwrap();
        assert_eq!(toks[0], Token::Keyword("ISLITERAL".into()));
        assert!(toks.contains(&Token::Keyword("LANG".into())));
    }
}
