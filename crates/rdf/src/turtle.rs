//! A Turtle-subset parser.
//!
//! Supports the constructs the reproduction's fixtures and examples use:
//! `@prefix` directives, prefixed names, `a` for `rdf:type`, `;` predicate
//! lists, `,` object lists, quoted literals with `@lang`/`^^` datatypes, and
//! bare integers/decimals. Collections and blank-node property lists are out
//! of scope (the synthetic DBpedia data never produces them).

use std::collections::HashMap;

use crate::graph::{Graph, GraphBuilder};
use crate::term::{unescape_literal, Literal, Term};
use crate::vocab;

/// Error with byte-offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TurtleError {
    /// Byte offset in the input where the problem was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for TurtleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "offset {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for TurtleError {}

/// Parse a Turtle document into a fresh graph.
pub fn parse(input: &str) -> Result<Graph, TurtleError> {
    let mut builder = GraphBuilder::new();
    parse_into(input, &mut builder)?;
    Ok(builder.build())
}

/// Parse a Turtle document, adding its triples to a builder.
pub fn parse_into(input: &str, graph: &mut GraphBuilder) -> Result<(), TurtleError> {
    let mut p = Parser {
        input,
        pos: 0,
        prefixes: vocab::standard_prefixes()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    };
    p.document(graph)
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    prefixes: HashMap<String, String>,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> TurtleError {
        TurtleError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('#') => {
                    while !matches!(self.peek(), None | Some('\n')) {
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn eat(&mut self, c: char) -> bool {
        self.skip_trivia();
        if self.peek() == Some(c) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<(), TurtleError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{c}', found {:?}", self.peek())))
        }
    }

    fn document(&mut self, graph: &mut GraphBuilder) -> Result<(), TurtleError> {
        loop {
            self.skip_trivia();
            if self.rest().is_empty() {
                return Ok(());
            }
            if self.rest().starts_with("@prefix") {
                self.directive()?;
            } else {
                self.triples_block(graph)?;
            }
        }
    }

    fn directive(&mut self) -> Result<(), TurtleError> {
        self.pos += "@prefix".len();
        self.skip_trivia();
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == '_' || c == '-') {
            self.bump();
        }
        let name = self.input[start..self.pos].to_string();
        self.expect(':')?;
        self.skip_trivia();
        if self.peek() != Some('<') {
            return Err(self.err("expected IRI after prefix name"));
        }
        let iri = self.iri_ref()?;
        self.expect('.')?;
        self.prefixes.insert(name, iri);
        Ok(())
    }

    fn triples_block(&mut self, graph: &mut GraphBuilder) -> Result<(), TurtleError> {
        let subject = self.term()?;
        if subject.is_literal() {
            return Err(self.err("literal in subject position"));
        }
        loop {
            let predicate = self.predicate()?;
            loop {
                let object = self.term()?;
                graph.insert(subject.clone(), predicate.clone(), object);
                if !self.eat(',') {
                    break;
                }
            }
            if !self.eat(';') {
                break;
            }
            // Allow a trailing ';' before '.'
            self.skip_trivia();
            if self.peek() == Some('.') {
                break;
            }
        }
        self.expect('.')
    }

    fn predicate(&mut self) -> Result<Term, TurtleError> {
        self.skip_trivia();
        // `a` shorthand for rdf:type.
        if self.rest().starts_with('a')
            && self
                .rest()
                .chars()
                .nth(1)
                .is_some_and(|c| c.is_whitespace())
        {
            self.bump();
            return Ok(Term::iri(vocab::rdf::TYPE));
        }
        let t = self.term()?;
        if !t.is_iri() {
            return Err(self.err("predicate must be an IRI"));
        }
        Ok(t)
    }

    fn term(&mut self) -> Result<Term, TurtleError> {
        self.skip_trivia();
        match self.peek() {
            Some('<') => Ok(Term::Iri(self.iri_ref()?)),
            Some('"') => Ok(Term::Literal(self.literal()?)),
            Some('_') => self.blank(),
            Some(c) if c.is_ascii_digit() || c == '-' || c == '+' => self.number(),
            Some(_) => self.prefixed_name(),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn iri_ref(&mut self) -> Result<String, TurtleError> {
        self.expect('<')?;
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == '>' {
                let iri = self.input[start..self.pos].to_string();
                self.bump();
                return Ok(iri);
            }
            self.bump();
        }
        Err(self.err("unterminated IRI"))
    }

    fn literal(&mut self) -> Result<Literal, TurtleError> {
        self.expect('"')?;
        let start = self.pos;
        let mut escaped = false;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(c) => {
                    if escaped {
                        escaped = false;
                        self.bump();
                    } else if c == '\\' {
                        escaped = true;
                        self.bump();
                    } else if c == '"' {
                        break;
                    } else {
                        self.bump();
                    }
                }
            }
        }
        let body = &self.input[start..self.pos];
        self.bump(); // closing quote
        let value = unescape_literal(body).map_err(|e| self.err(e))?;
        if self.peek() == Some('@') {
            self.bump();
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == '-') {
                self.bump();
            }
            if self.pos == start {
                return Err(self.err("empty language tag"));
            }
            return Ok(Literal::lang_tagged(value, &self.input[start..self.pos]));
        }
        if self.rest().starts_with("^^") {
            self.pos += 2;
            self.skip_trivia();
            let dt = if self.peek() == Some('<') {
                self.iri_ref()?
            } else {
                match self.prefixed_name()? {
                    Term::Iri(iri) => iri,
                    _ => unreachable!("prefixed_name returns IRIs"),
                }
            };
            return Ok(Literal::typed(value, dt));
        }
        Ok(Literal::simple(value))
    }

    fn blank(&mut self) -> Result<Term, TurtleError> {
        if !self.rest().starts_with("_:") {
            return Err(self.err("expected '_:'"));
        }
        self.pos += 2;
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == '_' || c == '-') {
            self.bump();
        }
        if self.pos == start {
            return Err(self.err("empty blank node label"));
        }
        Ok(Term::blank(self.input[start..self.pos].to_string()))
    }

    fn number(&mut self) -> Result<Term, TurtleError> {
        let start = self.pos;
        if matches!(self.peek(), Some('-') | Some('+')) {
            self.bump();
        }
        let mut is_decimal = false;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                self.bump();
            } else if c == '.' && !is_decimal {
                // Only treat '.' as a decimal point if a digit follows;
                // otherwise it terminates the statement.
                let mut it = self.rest().chars();
                it.next();
                if it.next().is_some_and(|d| d.is_ascii_digit()) {
                    is_decimal = true;
                    self.bump();
                } else {
                    break;
                }
            } else {
                break;
            }
        }
        // Exponent part: 1.5E8, 8E7, 3e-2 — xsd:double.
        let mut is_double = false;
        if matches!(self.peek(), Some('e') | Some('E')) {
            let save = self.pos;
            self.bump();
            if matches!(self.peek(), Some('-') | Some('+')) {
                self.bump();
            }
            let digits_start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
            if self.pos == digits_start {
                self.pos = save; // not an exponent after all
            } else {
                is_double = true;
            }
        }
        let text = &self.input[start..self.pos];
        if text.is_empty() || text == "-" || text == "+" {
            return Err(self.err("malformed number"));
        }
        let dt = if is_double {
            vocab::xsd::DOUBLE
        } else if is_decimal {
            vocab::xsd::DECIMAL
        } else {
            vocab::xsd::INTEGER
        };
        Ok(Term::Literal(Literal::typed(text.to_string(), dt)))
    }

    fn prefixed_name(&mut self) -> Result<Term, TurtleError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == '_' || c == '-') {
            self.bump();
        }
        let prefix = self.input[start..self.pos].to_string();
        if self.peek() != Some(':') {
            return Err(self.err(format!("expected ':' in prefixed name after {prefix:?}")));
        }
        self.bump();
        let local_start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.')
        {
            // A '.' at the end of a local name terminates the statement.
            if c_is_terminal_dot(self.rest()) {
                break;
            }
            self.bump();
        }
        let local = &self.input[local_start..self.pos];
        let ns = self
            .prefixes
            .get(&prefix)
            .ok_or_else(|| self.err(format!("unknown prefix: {prefix:?}")))?;
        Ok(Term::iri(format!("{ns}{local}")))
    }
}

/// True if the cursor is at a '.' that ends the statement (followed by
/// whitespace/EOF) rather than an inner dot of a local name.
fn c_is_terminal_dot(rest: &str) -> bool {
    let mut chars = rest.chars();
    if chars.next() != Some('.') {
        return false;
    }
    match chars.next() {
        None => true,
        Some(c) => c.is_whitespace(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_with_prefixes_and_a() {
        let doc = r#"
@prefix ex: <http://example.org/> .
ex:alice a ex:Person ;
    ex:name "Alice"@en ;
    ex:knows ex:bob, ex:carol .
"#;
        let g = parse(doc).unwrap();
        assert_eq!(g.len(), 4);
        assert!(g.contains(
            &Term::iri("http://example.org/alice"),
            &Term::iri(vocab::rdf::TYPE),
            &Term::iri("http://example.org/Person")
        ));
        assert!(g.contains(
            &Term::iri("http://example.org/alice"),
            &Term::iri("http://example.org/knows"),
            &Term::iri("http://example.org/carol")
        ));
    }

    #[test]
    fn standard_prefixes_preloaded() {
        let doc = "dbo:Scientist rdfs:subClassOf owl:Thing .";
        let g = parse(doc).unwrap();
        assert!(g.contains(
            &Term::iri("http://dbpedia.org/ontology/Scientist"),
            &Term::iri(vocab::rdfs::SUB_CLASS_OF),
            &Term::iri(vocab::owl::THING)
        ));
    }

    #[test]
    fn numbers_become_typed_literals() {
        let doc = "@prefix ex: <http://x/> . ex:nyc ex:population 8400000 . ex:nyc ex:area 302.6 .";
        let g = parse(doc).unwrap();
        assert!(g.contains(
            &Term::iri("http://x/nyc"),
            &Term::iri("http://x/population"),
            &Term::Literal(Literal::typed("8400000", vocab::xsd::INTEGER))
        ));
        assert!(g.contains(
            &Term::iri("http://x/nyc"),
            &Term::iri("http://x/area"),
            &Term::Literal(Literal::typed("302.6", vocab::xsd::DECIMAL))
        ));
    }

    #[test]
    fn typed_literal_with_prefixed_datatype() {
        let doc = r#"@prefix ex: <http://x/> . ex:e ex:born "1945-05-08"^^xsd:date ."#;
        let g = parse(doc).unwrap();
        assert!(g.contains(
            &Term::iri("http://x/e"),
            &Term::iri("http://x/born"),
            &Term::Literal(Literal::date("1945-05-08"))
        ));
    }

    #[test]
    fn errors_on_unknown_prefix() {
        let err = parse("nope:a nope:b nope:c .").unwrap_err();
        assert!(err.message.contains("unknown prefix"));
    }

    #[test]
    fn comments_are_skipped() {
        let doc =
            "# leading comment\n@prefix ex: <http://x/> . # trailing\nex:a ex:b ex:c . # done\n";
        let g = parse(doc).unwrap();
        assert_eq!(g.len(), 1);
    }
}
