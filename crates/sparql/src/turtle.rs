//! Turtle documents, read with the query grammar.
//!
//! SPARQL's triple syntax is Turtle's, so a document is read by the same
//! lexer and the same triple-block rule as a query's graph pattern:
//! `@prefix … .` or `PREFIX …` directives, then ground triple blocks (`a`,
//! `;` predicate lists, `,` object lists, quoted literals with `@lang` or
//! `^^` datatypes, bare numbers), each ended by `.`. The one rule a query
//! does not share is `_:label`, a blank node here and an unknown prefix
//! there. A variable, a literal subject or a predicate that is not an IRI
//! is a [`ParseError`]. N-Triples, which [`Term`](sapphire_rdf::Term)'s
//! `Display` writes, is a subset. Collections and blank-node property lists
//! are out of scope (the synthetic DBpedia data never produces them).

use sapphire_rdf::{Graph, GraphBuilder};

use crate::parser::{ParseError, Parser};

/// Parse a Turtle document into a fresh graph.
pub fn parse(input: &str) -> Result<Graph, ParseError> {
    let mut builder = GraphBuilder::new();
    parse_into(input, &mut builder)?;
    Ok(builder.build())
}

/// Parse a Turtle document, adding its triples to a builder in document
/// order.
pub fn parse_into(input: &str, graph: &mut GraphBuilder) -> Result<(), ParseError> {
    Parser::new(input)?.document(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_query, Query};
    use sapphire_rdf::{vocab, Literal, Term};

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
        // SPARQL's directive form reads the same.
        let sparql_style = doc.replace("@prefix", "PREFIX").replacen("/> .", "/>", 1);
        assert_eq!(parse(&sparql_style).unwrap().len(), 4);
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
            &Term::iri("http://x/s"),
            &Term::iri("http://x/age"),
            &Term::Literal(Literal::typed("30", vocab::xsd::INTEGER))
        ));
        assert!(g.contains(
            &Term::blank("b0"),
            &Term::iri("http://x/p"),
            &Term::literal("plain")
        ));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in [
            "<a> <b> .",
            "<a> <b> <c>",
            "\"lit\" <b> <c> .",
            "<a> \"lit\" <c> .",
            "<a> <b> \"unterminated .",
            "<a> <b> <c> . garbage",
            "?s <b> <c> .",
            "<a> ?p <c> .",
            "<a> <b> ?o .",
            "<a> _:p <c> .",
            "_: <b> <c> .",
            "@prefix ex: <http://x/>",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    /// `_:label` is the one Turtle-only rule: a query refuses it.
    #[test]
    fn blank_nodes_read_in_a_document_only() {
        let g = parse("_:b <http://x/p> _:c .").unwrap();
        assert!(g.contains(
            &Term::blank("b"),
            &Term::iri("http://x/p"),
            &Term::blank("c")
        ));
        let err = parse_query("ASK { _:b <http://x/p> ?o }").unwrap_err();
        assert!(err.message.contains("unknown prefix"), "{err}");
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

    /// A document rendered one `{s} {p} {o} .` line per triple with
    /// `Term`'s `Display` reads back to the same graph.
    #[test]
    fn roundtrip_preserves_graph() {
        let doc = concat!(
            "<http://x/s> <http://x/p> \"with \\\"quotes\\\" and \\n newline\"@en .\n",
            "<http://x/s> <http://x/p> \"1945-05-08\"^^<http://www.w3.org/2001/XMLSchema#date> .\n",
            "_:n1 <http://x/q> <http://x/o> .\n"
        );
        let g = parse(doc).unwrap();
        assert!(g.contains(
            &Term::iri("http://x/s"),
            &Term::iri("http://x/p"),
            &Term::en("with \"quotes\" and \n newline")
        ));
        let rendered: String = g
            .iter_terms()
            .map(|(s, p, o)| format!("{s} {p} {o} .\n"))
            .collect();
        let g2 = parse(&rendered).unwrap();
        assert_eq!(g.len(), g2.len());
        for (s, p, o) in g.iter_terms() {
            assert!(g2.contains(s, p, o), "missing {s} {p} {o}");
        }
    }

    #[test]
    fn comments_are_skipped() {
        let doc =
            "# leading comment\n@prefix ex: <http://x/> . # trailing\nex:a ex:b ex:c . # done\n";
        let g = parse(doc).unwrap();
        assert_eq!(g.len(), 1);
    }

    /// One triple, as a document and as an `ASK` query's pattern.
    fn both_entry_points(triple: &str) -> (Result<Graph, ParseError>, Result<Query, ParseError>) {
        (
            parse(&format!("{triple} .")),
            parse_query(&format!("ASK {{ {triple} }}")),
        )
    }

    /// Whitespace inside an IRI ends it, in a document as in a query.
    #[test]
    fn an_iri_with_whitespace_is_refused_by_both() {
        let (doc, query) = both_entry_points(r#"<http://x/a b> <http://x/p> "o""#);
        assert!(doc.is_err() && query.is_err(), "{doc:?} {query:?}");
    }

    /// Any Unicode whitespace separates tokens, in a query as in a document.
    #[test]
    fn multibyte_whitespace_separates_terms() {
        let (doc, query) =
            both_entry_points("<http://x/s>\u{00A0}<http://x/p>\u{2003}\"o\"\u{3000}");
        let g = doc.unwrap();
        assert_eq!(g.len(), 1);
        assert!(g.contains(
            &Term::iri("http://x/s"),
            &Term::iri("http://x/p"),
            &Term::literal("o")
        ));
        let Query::Ask(pattern) = query.unwrap() else {
            panic!("ASK parses to ASK")
        };
        assert_eq!(pattern.triples.len(), 1);
    }

    #[test]
    fn single_quoted_literals_read_in_both() {
        let (doc, query) = both_entry_points(r#"<http://x/s> <http://x/p> 'single "quoted"'@en"#);
        let o = Term::en("single \"quoted\"");
        assert!(doc
            .unwrap()
            .contains(&Term::iri("http://x/s"), &Term::iri("http://x/p"), &o));
        let Query::Ask(pattern) = query.unwrap() else {
            panic!("ASK parses to ASK")
        };
        assert_eq!(pattern.triples[0].object, crate::TermPattern::Term(o));
    }
}
