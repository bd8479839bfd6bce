//! Minimal CSV table assembly for experiment output.

use std::fmt::Write as _;

use serde::{Serialize, Value};

/// A simple in-memory CSV table with a fixed header.
///
/// Every table comes from [`CsvTable::from_rows`]: one flat row struct per
/// line, whose field list is the header. A table that projects nested data
/// first flattens it into such rows. Fields containing commas, quotes or
/// newlines are quoted per RFC 4180.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvTable {
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// Canonical fixed-precision rendering for floating-point CSV fields.
    ///
    /// Every experiment table renders its float columns through this one
    /// helper, so artifacts use a uniform six-decimal precision instead of
    /// the previous mix of shortest-representation (`{}`) and assorted
    /// per-column precisions — which made diffing CSVs across presets (and
    /// asserting byte-identical parallel runs) needlessly fragile.
    pub fn fmt_float(value: f64) -> String {
        format!("{value:.6}")
    }

    /// Creates a table with the given column names.
    fn new<I, S>(columns: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Renders one row per element of `rows`, with the row struct's
    /// derived [`Serialize`] as the schema.
    ///
    /// The header is the struct's field names in declaration order, and
    /// is written even when `rows` is empty. Each cell renders by the kind
    /// of its value: integers in decimal, floats through
    /// [`CsvTable::fmt_float`], strings as they are.
    ///
    /// # Panics
    ///
    /// Panics if `T` is not a struct with named fields, or if a field is
    /// not one of those scalar kinds (the message names the column).
    pub fn from_rows<T: Serialize>(rows: &[T]) -> Self {
        let columns = T::field_names();
        assert!(
            !columns.is_empty(),
            "CsvTable::from_rows needs a struct with named fields"
        );
        let mut table = Self::new(columns.iter().copied());
        for row in rows {
            table.push_row(Self::cells(row));
        }
        table
    }

    /// One row struct's cells, by the rules of [`CsvTable::from_rows`]
    /// and unescaped; [`CsvTable::line`] joins them.
    ///
    /// # Panics
    ///
    /// As [`CsvTable::from_rows`].
    pub fn cells<T: Serialize>(row: &T) -> Vec<String> {
        let value = row.to_value();
        let fields = value
            .as_object()
            .expect("a struct with named fields serializes to an object");
        fields
            .iter()
            .map(|(column, value)| match value {
                Value::Int(v) => v.to_string(),
                Value::UInt(v) => v.to_string(),
                Value::Float(v) => Self::fmt_float(*v),
                Value::Str(s) => s.clone(),
                other => panic!("column `{column}` is not a CSV scalar: {}", other.kind()),
            })
            .collect()
    }

    /// One CSV line, without its newline: each field escaped, then
    /// joined with commas.
    pub fn line<S: AsRef<str>>(fields: &[S]) -> String {
        let fields: Vec<String> = fields.iter().map(|f| Self::escape(f.as_ref())).collect();
        fields.join(",")
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    fn push_row<I, S>(&mut self, row: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width {} != header width {}",
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    fn escape(field: &str) -> String {
        if field.contains([',', '"', '\n', '\r']) {
            format!("\"{}\"", field.replace('"', "\"\""))
        } else {
            field.to_string()
        }
    }

    /// Renders the table as a CSV string (header + rows, `\n` separated).
    pub fn to_csv_string(&self) -> String {
        let mut out = String::new();
        for line in std::iter::once(&self.columns).chain(&self.rows) {
            let _ = writeln!(out, "{}", Self::line(line));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_formatting_is_uniform() {
        assert_eq!(CsvTable::fmt_float(0.2), "0.200000");
        assert_eq!(CsvTable::fmt_float(17.0), "17.000000");
        assert_eq!(CsvTable::fmt_float(0.123456789), "0.123457");
    }

    #[test]
    fn renders_header_and_rows() {
        let mut t = CsvTable::new(["a", "b"]);
        t.push_row(["1", "2"]);
        t.push_row(["x", "y"]);
        assert_eq!(t.to_csv_string(), "a,b\n1,2\nx,y\n");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.columns(), &["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn escapes_special_fields() {
        let mut t = CsvTable::new(["v"]);
        t.push_row(["has,comma"]);
        t.push_row(["has\"quote"]);
        assert_eq!(t.to_csv_string(), "v\n\"has,comma\"\n\"has\"\"quote\"\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = CsvTable::new(["a", "b"]);
        t.push_row(["only-one"]);
    }

    #[derive(Serialize)]
    struct Row {
        name: String,
        count: u64,
        share: f64,
        delta: i64,
    }

    #[test]
    fn from_rows_takes_the_header_from_the_type() {
        let empty: &[Row] = &[];
        assert_eq!(
            CsvTable::from_rows(empty).to_csv_string(),
            "name,count,share,delta\n"
        );
        let rows = [
            Row {
                name: "a".into(),
                count: 3,
                share: 0.5,
                delta: -2,
            },
            Row {
                name: "b".into(),
                count: 0,
                share: 1.0,
                delta: 7,
            },
        ];
        assert_eq!(
            CsvTable::from_rows(&rows).to_csv_string(),
            "name,count,share,delta\na,3,0.500000,-2\nb,0,1.000000,7\n"
        );
    }

    #[test]
    fn from_rows_renders_each_value_kind() {
        let row = Row {
            name: "has,comma".into(),
            count: u64::MAX,
            share: 0.123456789,
            delta: i64::MIN,
        };
        assert_eq!(
            CsvTable::from_rows(&[row]).to_csv_string(),
            "name,count,share,delta\n\"has,comma\",18446744073709551615,0.123457,-9223372036854775808\n"
        );
    }

    #[test]
    #[should_panic(expected = "column `samples` is not a CSV scalar: array")]
    fn from_rows_rejects_a_nested_field() {
        #[derive(Serialize)]
        struct Nested {
            k: usize,
            samples: Vec<f64>,
        }
        CsvTable::from_rows(&[Nested {
            k: 4,
            samples: vec![0.1],
        }]);
    }
}
