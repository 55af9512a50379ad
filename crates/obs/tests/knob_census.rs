//! Census of the `AUSDB_*` environment knobs: the names the sources
//! mention, the table in `src/knobs.rs`, README.md and DESIGN.md must
//! agree, so a knob cannot be read without being documented or
//! documented after it is gone.

use std::collections::BTreeSet;
use std::path::Path;

/// Every `AUSDB_[A-Z_]+` token in `text`, minus the `AUSDB_TEST_*` names
/// the knob unit tests invent and `AUSDB_FOO_*`-style globs in prose.
fn knob_names(text: &str, into: &mut BTreeSet<String>) {
    for (at, _) in text.match_indices("AUSDB_") {
        let name: String =
            text[at..].chars().take_while(|c| c.is_ascii_uppercase() || *c == '_').collect();
        if !name.starts_with("AUSDB_TEST_") && !name.ends_with('_') {
            into.insert(name);
        }
    }
}

fn scan_sources(dir: &Path, into: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            scan_sources(&path, into);
        } else if path.extension().is_some_and(|e| e == "rs") {
            knob_names(&std::fs::read_to_string(&path).expect("source file"), into);
        }
    }
}

#[test]
fn sources_table_readme_and_design_name_the_same_knobs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut used = BTreeSet::new();
    scan_sources(&root.join("src"), &mut used);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates directory") {
        scan_sources(&krate.expect("directory entry").path().join("src"), &mut used);
    }

    let mut table = BTreeSet::new();
    let knobs = std::fs::read_to_string(root.join("crates/obs/src/knobs.rs")).expect("knobs.rs");
    for row in knobs.lines().filter(|l| l.starts_with("//! | `AUSDB_")) {
        knob_names(row, &mut table);
    }
    assert_eq!(used, table, "knobs named in the sources vs. rows of the knobs.rs table");
    assert_eq!(table.len(), 5, "adding or removing a knob is a README and DESIGN change too");

    for doc in ["README.md", "DESIGN.md"] {
        let mut named = BTreeSet::new();
        knob_names(&std::fs::read_to_string(root.join(doc)).expect(doc), &mut named);
        assert_eq!(named, table, "knobs {doc} names vs. the knobs.rs table");
    }
}
