//! N-Triples parsing and serialization.
//!
//! Line-oriented, one triple per line, terminated by `.`. This is the
//! interchange format used by the reproduction's dataset snapshots.

use std::fmt::Write as _;

use crate::graph::{Graph, GraphBuilder};
use crate::term::{unescape_literal, Literal, Term};

/// A parse error with 1-based line number context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse an N-Triples document into a new [`Graph`].
pub fn parse(input: &str) -> Result<Graph, ParseError> {
    let mut builder = GraphBuilder::new();
    parse_into(input, &mut builder)?;
    Ok(builder.build())
}

/// Parse an N-Triples document, adding its triples to a builder.
pub fn parse_into(input: &str, graph: &mut GraphBuilder) -> Result<(), ParseError> {
    for (idx, line) in input.lines().enumerate() {
        let line_no = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let (s, p, o) = parse_line(trimmed).map_err(|message| ParseError {
            line: line_no,
            message,
        })?;
        graph.insert(s, p, o);
    }
    Ok(())
}

fn parse_line(line: &str) -> Result<(Term, Term, Term), String> {
    let mut cur = Cursor {
        input: line,
        pos: 0,
    };
    let s = cur.term()?;
    cur.skip_ws();
    let p = cur.term()?;
    cur.skip_ws();
    let o = cur.term()?;
    cur.skip_ws();
    if !cur.eat('.') {
        return Err("expected terminating '.'".into());
    }
    cur.skip_ws();
    if !cur.at_end() {
        return Err(format!("trailing content after '.': {:?}", cur.rest()));
    }
    if s.is_literal() {
        return Err("literal in subject position".into());
    }
    if !p.is_iri() {
        return Err("predicate must be an IRI".into());
    }
    Ok((s, p, o))
}

struct Cursor<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.pos += c.len_utf8();
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn term(&mut self) -> Result<Term, String> {
        match self.peek() {
            Some('<') => self.iri().map(Term::Iri),
            Some('"') => self.literal().map(Term::Literal),
            Some('_') => self.blank(),
            other => Err(format!("unexpected start of term: {other:?}")),
        }
    }

    fn iri(&mut self) -> Result<String, String> {
        assert!(self.eat('<'));
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == '>' {
                let iri = self.input[start..self.pos].to_string();
                self.pos += 1;
                return Ok(iri);
            }
            self.pos += c.len_utf8();
        }
        Err("unterminated IRI".into())
    }

    fn quoted(&mut self) -> Result<String, String> {
        assert!(self.eat('"'));
        let start = self.pos;
        let mut escaped = false;
        while let Some(c) = self.peek() {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                let body = &self.input[start..self.pos];
                self.pos += 1;
                return unescape_literal(body);
            }
            self.pos += c.len_utf8();
        }
        Err("unterminated string literal".into())
    }

    fn literal(&mut self) -> Result<Literal, String> {
        let value = self.quoted()?;
        if self.eat('@') {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == '-') {
                self.pos += 1;
            }
            if self.pos == start {
                return Err("empty language tag".into());
            }
            let lang = self.input[start..self.pos].to_string();
            return Ok(Literal::lang_tagged(value, lang));
        }
        if self.rest().starts_with("^^") {
            self.pos += 2;
            if self.peek() != Some('<') {
                return Err("datatype must be an IRI".into());
            }
            let dt = self.iri()?;
            return Ok(Literal::typed(value, dt));
        }
        Ok(Literal::simple(value))
    }

    fn blank(&mut self) -> Result<Term, String> {
        if !self.rest().starts_with("_:") {
            return Err("expected blank node '_:'".into());
        }
        self.pos += 2;
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == '_' || c == '-') {
            self.pos += 1;
        }
        if self.pos == start {
            return Err("empty blank node label".into());
        }
        Ok(Term::blank(self.input[start..self.pos].to_string()))
    }
}

/// Serialize a graph to N-Triples. Output lines are sorted by the graph's
/// internal index order, which is deterministic for a given insertion set.
pub fn serialize(graph: &Graph) -> String {
    let mut out = String::new();
    for (s, p, o) in graph.iter_terms() {
        let _ = writeln!(out, "{s} {p} {o} .");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_triples() {
        let doc = r#"
# a comment
<http://x/s> <http://x/p> <http://x/o> .
<http://x/s> <http://x/name> "Alice"@en .
<http://x/s> <http://x/age> "30"^^<http://www.w3.org/2001/XMLSchema#integer> .
_:b0 <http://x/p> "plain" .
"#;
        let g = parse(doc).unwrap();
        assert_eq!(g.len(), 4);
        assert!(g.contains(
            &Term::iri("http://x/s"),
            &Term::iri("http://x/name"),
            &Term::en("Alice")
        ));
        assert!(g.contains(
            &Term::blank("b0"),
            &Term::iri("http://x/p"),
            &Term::literal("plain")
        ));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse("<a> <b> .").is_err());
        assert!(parse("<a> <b> <c>").is_err());
        assert!(parse("\"lit\" <b> <c> .").is_err());
        assert!(parse("<a> \"lit\" <c> .").is_err());
        assert!(parse("<a> <b> \"unterminated .").is_err());
        assert!(parse("<a> <b> <c> . garbage").is_err());
    }

    #[test]
    fn error_reports_line_number() {
        let doc = "<a> <b> <c> .\nbroken line\n";
        let err = parse(doc).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn roundtrip_preserves_graph() {
        let doc = concat!(
            "<http://x/s> <http://x/p> \"with \\\"quotes\\\" and \\n newline\"@en .\n",
            "<http://x/s> <http://x/p> \"1945-05-08\"^^<http://www.w3.org/2001/XMLSchema#date> .\n",
            "_:n1 <http://x/q> <http://x/o> .\n"
        );
        let g = parse(doc).unwrap();
        let ser = serialize(&g);
        let g2 = parse(&ser).unwrap();
        assert_eq!(g.len(), g2.len());
        for (s, p, o) in g.iter_terms() {
            assert!(g2.contains(s, p, o), "missing {s} {p} {o}");
        }
    }

    #[test]
    fn escaped_quote_inside_literal() {
        let g = parse(r#"<s> <p> "say \"hi\"" ."#).unwrap();
        assert!(g.contains(
            &Term::iri("s"),
            &Term::iri("p"),
            &Term::literal("say \"hi\"")
        ));
    }
}
