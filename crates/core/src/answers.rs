//! The answer table (§4, Figure 4).
//!
//! After a query executes, the user manipulates its answers directly:
//! keyword search over all columns, ordering by any column, showing/hiding
//! columns, and dragging a cell value back into the query boxes.

use sapphire_rdf::Term;
use sapphire_sparql::{term_order, Solutions};

/// An interactive view over query answers.
#[derive(Debug, Clone, Default)]
pub struct AnswerTable {
    solutions: Solutions,
    hidden: Vec<String>,
    filter: Option<String>,
    sort: Option<(String, bool)>,
}

impl AnswerTable {
    /// Wrap a solution set.
    pub fn new(solutions: Solutions) -> Self {
        AnswerTable {
            solutions,
            hidden: Vec::new(),
            filter: None,
            sort: None,
        }
    }

    /// The raw underlying solutions (unfiltered).
    pub fn solutions(&self) -> &Solutions {
        &self.solutions
    }

    /// Total rows before filtering.
    pub fn total_rows(&self) -> usize {
        self.solutions.len()
    }

    /// Apply a keyword filter: only rows where some visible cell contains the
    /// keyword (case-insensitive) remain visible.
    pub fn set_filter(&mut self, keyword: impl Into<String>) {
        let k = keyword.into();
        self.filter = if k.trim().is_empty() {
            None
        } else {
            Some(k.to_lowercase())
        };
    }

    /// Sort by a column; `descending` flips the order. Unknown columns are
    /// ignored (the UI cannot produce them).
    pub fn sort_by(&mut self, column: impl Into<String>, descending: bool) {
        let c = column.into();
        if self.solutions.column(&c).is_some() {
            self.sort = Some((c, descending));
        }
    }

    /// Hide a column.
    pub fn hide_column(&mut self, column: impl Into<String>) {
        let c = column.into();
        if !self.hidden.contains(&c) {
            self.hidden.push(c);
        }
    }

    /// Show a previously hidden column.
    pub fn show_column(&mut self, column: &str) {
        self.hidden.retain(|c| c != column);
    }

    /// The visible view: filtered, sorted, hidden columns removed.
    pub fn view(&self) -> Solutions {
        let cols: Vec<usize> = self
            .solutions
            .vars
            .iter()
            .enumerate()
            .filter(|(_, v)| !self.hidden.iter().any(|h| &h == v))
            .map(|(i, _)| i)
            .collect();
        let mut rows: Vec<Vec<Option<Term>>> = self
            .solutions
            .rows
            .iter()
            .filter(|row| match &self.filter {
                None => true,
                Some(k) => cols.iter().any(|&c| {
                    row[c]
                        .as_ref()
                        .is_some_and(|t| t.lexical().to_lowercase().contains(k))
                }),
            })
            .map(|row| cols.iter().map(|&c| row[c].clone()).collect())
            .collect();
        let vars: Vec<String> = cols
            .iter()
            .map(|&c| self.solutions.vars[c].clone())
            .collect();
        if let Some((col, desc)) = &self.sort {
            if let Some(idx) = vars.iter().position(|v| v == col) {
                rows.sort_by(|a, b| {
                    let ord = term_order(a[idx].as_ref(), b[idx].as_ref());
                    if *desc {
                        ord.reverse()
                    } else {
                        ord
                    }
                });
            }
        }
        Solutions { vars, rows }
    }

    /// "Drag" a cell value out of the table (§4): the text of the cell at
    /// (visible row, column name), for dropping into a query box.
    pub fn drag_value(&self, row: usize, column: &str) -> Option<String> {
        let view = self.view();
        view.get(row, column).map(|t| t.lexical().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> AnswerTable {
        AnswerTable::new(Solutions {
            vars: vec!["person".into(), "name".into()],
            rows: vec![
                vec![
                    Some(Term::iri("http://x/John_Kennedy")),
                    Some(Term::en("John F. Kennedy")),
                ],
                vec![
                    Some(Term::iri("http://x/Robert_Kennedy")),
                    Some(Term::en("Robert Kennedy")),
                ],
                vec![
                    Some(Term::iri("http://x/John_Kerry")),
                    Some(Term::en("John Kerry")),
                ],
            ],
        })
    }

    #[test]
    fn keyword_filter_matches_any_column() {
        // The Figure 4 interaction: filter 1,051 Kennedys down to the johns.
        let mut t = table();
        t.set_filter("john");
        let v = t.view();
        assert_eq!(v.len(), 2);
        t.set_filter("");
        assert_eq!(t.view().len(), 3);
    }

    #[test]
    fn sort_by_column() {
        let mut t = table();
        t.sort_by("name", false);
        let v = t.view();
        assert_eq!(v.rows[0][1].as_ref().unwrap().lexical(), "John F. Kennedy");
        t.sort_by("name", true);
        let v = t.view();
        assert_eq!(v.rows[0][1].as_ref().unwrap().lexical(), "Robert Kennedy");
    }

    #[test]
    fn hide_and_show_columns() {
        let mut t = table();
        t.hide_column("person");
        assert_eq!(t.view().vars, vec!["name"]);
        t.show_column("person");
        assert_eq!(t.view().vars, vec!["person", "name"]);
    }

    #[test]
    fn filter_ignores_hidden_columns() {
        let mut t = table();
        t.hide_column("person");
        t.set_filter("kerry"); // matches the name column, fine
        assert_eq!(t.view().len(), 1);
        t.set_filter("http"); // only present in the hidden column
        assert_eq!(t.view().len(), 0);
    }

    #[test]
    fn drag_value_reads_the_visible_view() {
        let mut t = table();
        t.set_filter("john");
        t.sort_by("name", true);
        assert_eq!(t.drag_value(0, "name").as_deref(), Some("John Kerry"));
        assert_eq!(t.drag_value(9, "name"), None);
    }

    #[test]
    fn numeric_sort_is_numeric() {
        let mut t = AnswerTable::new(Solutions {
            vars: vec!["n".into()],
            rows: vec![
                vec![Some(Term::literal("10"))],
                vec![Some(Term::literal("9"))],
                vec![Some(Term::literal("100"))],
            ],
        });
        t.sort_by("n", false);
        let v = t.view();
        let vals: Vec<&str> = v
            .rows
            .iter()
            .map(|r| r[0].as_ref().unwrap().lexical())
            .collect();
        assert_eq!(vals, vec!["9", "10", "100"]);
    }
}
