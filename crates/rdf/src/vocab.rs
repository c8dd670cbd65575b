//! Well-known vocabulary IRIs used across the reproduction.
//!
//! These mirror the namespaces the paper's queries rely on: RDF/RDFS for the
//! class hierarchy (§5.1), OWL for class declarations (query Q2), XSD for
//! typed literals, and a DBpedia-like namespace for the synthetic dataset.

/// RDF core vocabulary.
pub mod rdf {
    /// `rdf:type` — the predicate written `a` in Turtle/SPARQL.
    pub const TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
}

/// RDF Schema vocabulary (class hierarchy, §5.1).
pub mod rdfs {
    /// `rdfs:subClassOf` — organizes classes into the hierarchy Sapphire walks.
    pub const SUB_CLASS_OF: &str = "http://www.w3.org/2000/01/rdf-schema#subClassOf";
    /// `rdfs:label` — the canonical human-readable name predicate.
    pub const LABEL: &str = "http://www.w3.org/2000/01/rdf-schema#label";
    /// `rdfs:Class`.
    pub const CLASS: &str = "http://www.w3.org/2000/01/rdf-schema#Class";
}

/// OWL vocabulary (used by initialization query Q2).
pub mod owl {
    /// `owl:Class`.
    pub const CLASS: &str = "http://www.w3.org/2002/07/owl#Class";
    /// `owl:Thing` — conventional root of DBpedia-like hierarchies.
    pub const THING: &str = "http://www.w3.org/2002/07/owl#Thing";
}

/// XML Schema datatypes.
pub mod xsd {
    /// `xsd:integer`.
    pub const INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
    /// `xsd:decimal`.
    pub const DECIMAL: &str = "http://www.w3.org/2001/XMLSchema#decimal";
    /// `xsd:double`.
    pub const DOUBLE: &str = "http://www.w3.org/2001/XMLSchema#double";
    /// `xsd:date`.
    pub const DATE: &str = "http://www.w3.org/2001/XMLSchema#date";
    /// `xsd:boolean`.
    pub const BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";
}

/// The synthetic DBpedia-like namespaces used by `sapphire-datagen`.
pub mod dbp {
    /// Ontology namespace (classes and predicates), mirrors `dbo:`.
    pub const ONTOLOGY: &str = "http://dbpedia.org/ontology/";
    /// Resource namespace (entities), mirrors `res:`/`dbr:`.
    pub const RESOURCE: &str = "http://dbpedia.org/resource/";
}

/// Standard prefix table used by parsers and pretty-printers.
pub fn standard_prefixes() -> Vec<(&'static str, &'static str)> {
    vec![
        ("rdf", "http://www.w3.org/1999/02/22-rdf-syntax-ns#"),
        ("rdfs", "http://www.w3.org/2000/01/rdf-schema#"),
        ("owl", "http://www.w3.org/2002/07/owl#"),
        ("xsd", "http://www.w3.org/2001/XMLSchema#"),
        ("dbo", dbp::ONTOLOGY),
        ("res", dbp::RESOURCE),
        ("dbr", dbp::RESOURCE),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefixes_cover_core_namespaces() {
        let p = standard_prefixes();
        assert!(p
            .iter()
            .any(|(k, v)| *k == "rdf" && v.contains("rdf-syntax")));
        assert!(p.iter().any(|(k, _)| *k == "dbo"));
        // `res` and `dbr` must alias the same namespace.
        let res = p.iter().find(|(k, _)| *k == "res").unwrap().1;
        let dbr = p.iter().find(|(k, _)| *k == "dbr").unwrap().1;
        assert_eq!(res, dbr);
    }
}
