//! Output comparison shared by the workloads' oracles: relations as
//! sorted rows of display-formatted fields, the form both the synthesized
//! baseline and stird's query replies produce.

use std::collections::HashMap;
use std::path::Path;
use stir::{InputData, Value};

/// Relation name → sorted rows of display-formatted fields.
pub type Rows = HashMap<String, Vec<Vec<String>>>;

/// Engine outputs in comparable form.
pub fn rows_of(outputs: HashMap<String, Vec<Vec<Value>>>) -> Rows {
    outputs
        .into_iter()
        .map(|(rel, rows)| {
            let mut rows: Vec<Vec<String>> = rows
                .iter()
                .map(|r| r.iter().map(Value::to_string).collect())
                .collect();
            rows.sort();
            (rel, rows)
        })
        .collect()
}

/// One line per relation whose rows differ between `got` and `want`, or
/// that only one side has.
pub fn compare(what: &str, got: &Rows, want: &Rows) -> Vec<String> {
    let mut names: Vec<&String> = got.keys().chain(want.keys()).collect();
    names.sort();
    names.dedup();
    names
        .into_iter()
        .filter_map(|rel| {
            let (g, w) = (got.get(rel), want.get(rel));
            (g != w).then(|| {
                let len = |r: Option<&Vec<Vec<String>>>| r.map_or(0, Vec::len);
                format!(
                    "{what}: relation {rel} has {} rows, oracle {}",
                    len(g),
                    len(w)
                )
            })
        })
        .collect()
}

/// Writes inputs as `<rel>.facts` files (the format stird's `-F` and the
/// synthesized programs read).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_facts(dir: &Path, inputs: &InputData) -> Result<(), String> {
    let text: HashMap<String, Vec<Vec<String>>> = inputs
        .iter()
        .map(|(rel, rows)| {
            let rows = rows
                .iter()
                .map(|r| r.iter().map(Value::to_string).collect())
                .collect();
            (rel.clone(), rows)
        })
        .collect();
    stir::synth::compile::write_facts_dir(dir, &text).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_names_missing_and_differing_relations() {
        let rows = |v: &[&[&str]]| -> Vec<Vec<String>> {
            v.iter()
                .map(|r| r.iter().map(|s| s.to_string()).collect())
                .collect()
        };
        let want: Rows = [("p".to_owned(), rows(&[&["1"], &["2"]]))].into();
        assert!(compare("x", &want, &want).is_empty());
        let fewer: Rows = [("p".to_owned(), rows(&[&["1"]]))].into();
        assert_eq!(
            compare("x", &fewer, &want),
            ["x: relation p has 1 rows, oracle 2"]
        );
        let extra: Rows = [
            ("p".to_owned(), rows(&[&["1"], &["2"]])),
            ("q".to_owned(), vec![]),
        ]
        .into();
        assert_eq!(compare("x", &extra, &want).len(), 1);
        let engine = rows_of(
            [(
                "p".to_owned(),
                vec![vec![Value::Number(2)], vec![Value::Number(1)]],
            )]
            .into(),
        );
        assert!(compare("x", &engine, &want).is_empty(), "rows are sorted");
    }
}
