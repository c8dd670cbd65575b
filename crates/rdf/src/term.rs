//! RDF terms: IRIs, literals, and blank nodes.

use std::fmt;

/// An RDF literal: a lexical form plus an optional language tag or datatype IRI.
///
/// Per RDF 1.1 a literal has exactly one of three shapes: a plain string, a
/// language-tagged string, or a datatyped value. We keep the lexical form as
/// the source of truth and interpret datatypes lazily (see [`Literal::as_f64`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    /// The lexical form, e.g. `"New York"` or `"42"`.
    pub value: String,
    /// Language tag (lowercased), e.g. `en`. Mutually exclusive with `datatype`.
    pub lang: Option<String>,
    /// Datatype IRI, e.g. `http://www.w3.org/2001/XMLSchema#integer`.
    pub datatype: Option<String>,
}

impl Literal {
    /// A plain (untyped, untagged) string literal.
    pub fn simple(value: impl Into<String>) -> Self {
        Literal {
            value: value.into(),
            lang: None,
            datatype: None,
        }
    }

    /// A language-tagged string literal. The tag is lowercased.
    pub fn lang_tagged(value: impl Into<String>, lang: impl Into<String>) -> Self {
        let mut lang = lang.into();
        lang.make_ascii_lowercase();
        Literal {
            value: value.into(),
            lang: Some(lang),
            datatype: None,
        }
    }

    /// A datatyped literal.
    pub fn typed(value: impl Into<String>, datatype: impl Into<String>) -> Self {
        Literal {
            value: value.into(),
            lang: None,
            datatype: Some(datatype.into()),
        }
    }

    /// An `xsd:integer` literal.
    pub fn integer(v: i64) -> Self {
        Literal::typed(v.to_string(), crate::vocab::xsd::INTEGER)
    }

    /// An `xsd:double` literal.
    pub fn double(v: f64) -> Self {
        Literal::typed(v.to_string(), crate::vocab::xsd::DOUBLE)
    }

    /// An `xsd:date` literal from an ISO `YYYY-MM-DD` string.
    pub fn date(v: impl Into<String>) -> Self {
        Literal::typed(v.into(), crate::vocab::xsd::DATE)
    }

    /// Attempt a numeric interpretation of the lexical form.
    ///
    /// Any literal whose lexical form parses as a number is treated as numeric,
    /// mirroring the forgiving behaviour of public SPARQL endpoints.
    pub fn as_f64(&self) -> Option<f64> {
        self.value.trim().parse::<f64>().ok()
    }

    /// The year component of an `xsd:date`/`xsd:dateTime`-shaped lexical form.
    pub fn year(&self) -> Option<i32> {
        let s = self.value.trim();
        let (head, rest) = if let Some(stripped) = s.strip_prefix('-') {
            (true, stripped)
        } else {
            (false, s)
        };
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        if digits.is_empty() || !matches!(rest.as_bytes().get(digits.len()), None | Some(b'-')) {
            return None;
        }
        let y: i32 = digits.parse().ok()?;
        Some(if head { -y } else { y })
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{}\"", escape_literal(&self.value))?;
        if let Some(lang) = &self.lang {
            write!(f, "@{lang}")?;
        } else if let Some(dt) = &self.datatype {
            write!(f, "^^<{dt}>")?;
        }
        Ok(())
    }
}

/// An RDF term: the value space of subjects, predicates, and objects.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI reference, stored without the surrounding angle brackets.
    Iri(String),
    /// A literal (only valid in object position).
    Literal(Literal),
    /// A blank node with a local label.
    Blank(String),
}

impl Term {
    /// Construct an IRI term.
    pub fn iri(value: impl Into<String>) -> Self {
        Term::Iri(value.into())
    }

    /// Construct a plain literal term.
    pub fn literal(value: impl Into<String>) -> Self {
        Term::Literal(Literal::simple(value))
    }

    /// Construct an English-tagged literal term (the language Sapphire caches).
    pub fn en(value: impl Into<String>) -> Self {
        Term::Literal(Literal::lang_tagged(value, "en"))
    }

    /// Construct a blank node term.
    pub fn blank(label: impl Into<String>) -> Self {
        Term::Blank(label.into())
    }

    /// True if this term is a literal.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal(_))
    }

    /// True if this term is an IRI.
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// The IRI string, if this term is an IRI.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(s) => Some(s),
            _ => None,
        }
    }

    /// The literal, if this term is one.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(l) => Some(l),
            _ => None,
        }
    }

    /// The "effective string" of a term: IRI text, literal lexical form, or
    /// blank label. This is what SPARQL's `STR()` returns.
    pub fn lexical(&self) -> &str {
        match self {
            Term::Iri(s) => s,
            Term::Literal(l) => &l.value,
            Term::Blank(b) => b,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(iri) => write!(f, "<{iri}>"),
            Term::Literal(lit) => write!(f, "{lit}"),
            Term::Blank(label) => write!(f, "_:{label}"),
        }
    }
}

/// Escape a literal's lexical form for N-Triples/Turtle output.
pub fn escape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out
}

/// Unescape an N-Triples/Turtle quoted string body.
pub fn unescape_literal(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                let cp =
                    u32::from_str_radix(&hex, 16).map_err(|_| format!("bad \\u escape: {hex}"))?;
                out.push(char::from_u32(cp).ok_or_else(|| format!("bad codepoint: {cp}"))?);
            }
            Some(other) => return Err(format!("unknown escape: \\{other}")),
            None => return Err("dangling backslash".to_string()),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_constructors() {
        let l = Literal::simple("New York");
        assert_eq!(l.value, "New York");
        assert!(l.lang.is_none() && l.datatype.is_none());

        let l = Literal::lang_tagged("New York", "EN");
        assert_eq!(l.lang.as_deref(), Some("en"));

        let l = Literal::integer(42);
        assert_eq!(l.as_f64(), Some(42.0));
        assert_eq!(l.datatype.as_deref(), Some(crate::vocab::xsd::INTEGER));
    }

    #[test]
    fn literal_year_extraction() {
        assert_eq!(Literal::date("1945-05-08").year(), Some(1945));
        assert_eq!(Literal::date("1945").year(), Some(1945));
        assert_eq!(Literal::simple("not a date").year(), None);
        assert_eq!(Literal::date("-0044-03-15").year(), Some(-44));
        assert_eq!(Literal::simple("1945x").year(), None);
    }

    #[test]
    fn term_display_roundtrips_shapes() {
        assert_eq!(Term::iri("http://x/a").to_string(), "<http://x/a>");
        assert_eq!(Term::literal("hi").to_string(), "\"hi\"");
        assert_eq!(Term::en("hi").to_string(), "\"hi\"@en");
        assert_eq!(
            Term::Literal(Literal::integer(7)).to_string(),
            "\"7\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
        assert_eq!(Term::blank("b0").to_string(), "_:b0");
    }

    #[test]
    fn escape_roundtrip() {
        let cases = [
            "plain",
            "with \"quotes\"",
            "back\\slash",
            "new\nline",
            "tab\there",
        ];
        for c in cases {
            assert_eq!(unescape_literal(&escape_literal(c)).unwrap(), c);
        }
    }

    #[test]
    fn unescape_rejects_bad_input() {
        assert!(unescape_literal("dangling\\").is_err());
        assert!(unescape_literal("bad \\q escape").is_err());
        assert!(unescape_literal("\\uZZZZ").is_err());
    }

    #[test]
    fn term_lexical() {
        assert_eq!(Term::iri("http://x/a").lexical(), "http://x/a");
        assert_eq!(Term::en("hello").lexical(), "hello");
        assert_eq!(Term::blank("n1").lexical(), "n1");
    }
}
