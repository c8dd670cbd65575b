//! `MetricsHub`: one snapshot surface over every tier's metric struct.
//!
//! The serving stack grew five shapes of counters (`ServerMetrics`,
//! `ClusterMetrics`, `FrontendMetrics`, `NeighborhoodStats`, the AltCache
//! stats) with five ad-hoc readouts. The hub is the neutral meeting point:
//! each tier converts its own struct into named sections of typed fields,
//! and the hub renders the lot as JSON (hand-rolled — the build has no
//! serde). Consumers in the same process read values back typed, with
//! [`MetricsHub::get`], never by parsing the rendered text. The hub holds no
//! references — it is a snapshot, safe to build under load and ship across
//! threads.

use std::fmt::Write as _;

/// One metric value. Floats render with three decimals so JSON consumers
/// always see a number, never `NaN`/`inf` (both clamp).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    U64(u64),
    F64(f64),
    Text(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Text(v)
    }
}

/// A named group of fields (one tier, one cache, one stage, …).
#[derive(Debug, Clone, Default)]
pub struct Section {
    name: String,
    fields: Vec<(String, Value)>,
}

impl Section {
    /// Set a field. A new name appends (insertion order is render order); a
    /// repeated name replaces the earlier value in place, so a section never
    /// holds — and `to_json` never emits — the same key twice.
    pub fn field(&mut self, name: &str, value: impl Into<Value>) -> &mut Section {
        let value = value.into();
        match self.fields.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.fields.push((name.to_string(), value)),
        }
        self
    }
}

/// An ordered collection of [`Section`]s with typed and JSON readouts.
#[derive(Debug, Clone, Default)]
pub struct MetricsHub {
    sections: Vec<Section>,
}

impl MetricsHub {
    pub fn new() -> MetricsHub {
        MetricsHub::default()
    }

    /// Start (or extend) the section called `name` and return it for
    /// field-chaining.
    pub fn section(&mut self, name: &str) -> &mut Section {
        if let Some(i) = self.sections.iter().position(|s| s.name == name) {
            return &mut self.sections[i];
        }
        self.sections.push(Section {
            name: name.to_string(),
            fields: Vec::new(),
        });
        self.sections.last_mut().unwrap()
    }

    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// The value of `field` in `section`, if both exist.
    pub fn get(&self, section: &str, field: &str) -> Option<&Value> {
        let section = self.sections.iter().find(|s| s.name == section)?;
        let (_, value) = section.fields.iter().find(|(n, _)| n == field)?;
        Some(value)
    }

    /// [`get`](Self::get) as a number; `None` for text fields too.
    pub fn get_f64(&self, section: &str, field: &str) -> Option<f64> {
        match self.get(section, field)? {
            Value::U64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            Value::Text(_) => None,
        }
    }

    /// Keep only the sections whose name `keep` accepts.
    pub fn retain(&mut self, keep: impl Fn(&str) -> bool) {
        self.sections.retain(|s| keep(&s.name));
    }

    /// Fold `other` in: a section new to this hub appends, a section both
    /// hold is extended field by field (`other`'s value wins a shared name).
    pub fn merge(&mut self, other: MetricsHub) {
        for theirs in other.sections {
            let ours = self.section(&theirs.name);
            for (name, value) in theirs.fields {
                ours.field(&name, value);
            }
        }
    }

    /// Render as one JSON object: `{"section": {"field": value, …}, …}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (si, section) in self.sections.iter().enumerate() {
            if si > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {{", escape(&section.name));
            for (fi, (name, value)) in section.fields.iter().enumerate() {
                if fi > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\": ", escape(name));
                match value {
                    Value::U64(v) => {
                        let _ = write!(out, "{v}");
                    }
                    Value::F64(v) => {
                        let clamped = if v.is_finite() { *v } else { 0.0 };
                        let _ = write!(out, "{clamped:.3}");
                    }
                    Value::Text(v) => {
                        let _ = write!(out, "\"{}\"", escape(v));
                    }
                }
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_sections_in_order() {
        let mut hub = MetricsHub::new();
        hub.section("server")
            .field("completed", 42u64)
            .field("hit_ratio", 0.9934_f64);
        hub.section("cluster").field("scale", "tiny");
        assert_eq!(
            hub.to_json(),
            "{\"server\": {\"completed\": 42, \"hit_ratio\": 0.993}, \
             \"cluster\": {\"scale\": \"tiny\"}}"
        );
    }

    #[test]
    fn section_extends_in_place() {
        let mut hub = MetricsHub::new();
        hub.section("a").field("x", 1u64);
        hub.section("b").field("y", 2u64);
        hub.section("a").field("z", 3u64);
        assert_eq!(
            hub.to_json(),
            "{\"a\": {\"x\": 1, \"z\": 3}, \"b\": {\"y\": 2}}"
        );
    }

    #[test]
    fn a_repeated_field_name_replaces_the_earlier_value() {
        let mut hub = MetricsHub::new();
        hub.section("frontend")
            .field("completed", 1u64)
            .field("workers", 8u64);
        hub.section("frontend").field("completed", 2u64);
        assert_eq!(
            hub.to_json(),
            "{\"frontend\": {\"completed\": 2, \"workers\": 8}}"
        );
        assert_eq!(hub.get("frontend", "completed"), Some(&Value::U64(2)));
    }

    #[test]
    fn section_and_field_names_escape_like_text_values() {
        let mut hub = MetricsHub::new();
        hub.section("a\"b").field("c\\d\ne", 1u64);
        assert_eq!(hub.to_json(), "{\"a\\\"b\": {\"c\\\\d\\ne\": 1}}");
    }

    #[test]
    fn get_is_typed_and_none_when_absent() {
        let mut hub = MetricsHub::new();
        hub.section("s")
            .field("n", 3u64)
            .field("r", 0.5_f64)
            .field("t", "tiny");
        assert_eq!(hub.get_f64("s", "n"), Some(3.0));
        assert_eq!(hub.get_f64("s", "r"), Some(0.5));
        assert_eq!(hub.get("s", "t"), Some(&Value::Text("tiny".to_string())));
        assert_eq!(hub.get_f64("s", "t"), None);
        assert_eq!(hub.get("s", "missing"), None);
        assert_eq!(hub.get("missing", "n"), None);
    }

    #[test]
    fn merge_extends_shared_sections_and_retain_drops_the_rest() {
        let mut hub = MetricsHub::new();
        hub.section("a").field("x", 1u64);
        let mut other = MetricsHub::new();
        other.section("a").field("x", 9u64).field("y", 2u64);
        other.section("b").field("z", 3u64);
        other.section("c").field("w", 4u64);
        other.retain(|name| name != "c");
        hub.merge(other);
        assert_eq!(
            hub.to_json(),
            "{\"a\": {\"x\": 9, \"y\": 2}, \"b\": {\"z\": 3}}"
        );
    }

    #[test]
    fn non_finite_floats_clamp_to_zero() {
        let mut hub = MetricsHub::new();
        hub.section("s")
            .field("bad", f64::NAN)
            .field("inf", f64::INFINITY);
        assert_eq!(hub.to_json(), "{\"s\": {\"bad\": 0.000, \"inf\": 0.000}}");
    }

    #[test]
    fn text_values_escape_quotes() {
        let mut hub = MetricsHub::new();
        hub.section("s").field("q", "a\"b\\c");
        assert_eq!(hub.to_json(), "{\"s\": {\"q\": \"a\\\"b\\\\c\"}}");
    }
}
