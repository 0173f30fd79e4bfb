//! The docs cannot drift from the experiment registry: every
//! `repro <name>` in README.md, DESIGN.md and EXPERIMENTS.md is a
//! registry entry, and DESIGN §3's experiment table names every entry
//! but `all` and `soak`.

use cffs_bench::experiments::REGISTRY;

fn doc(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// The experiment named after each `repro ` (or `--bin repro -- `).
fn mentions(text: &str) -> Vec<String> {
    let word = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-';
    text.match_indices("repro ")
        .filter(|&(i, _)| !text[..i].ends_with(word))
        .filter_map(|(i, m)| {
            let rest = &text[i + m.len()..];
            let rest = rest.strip_prefix("-- ").unwrap_or(rest);
            let name: String = rest.chars().take_while(|&c| word(c) && c != '-').collect();
            (!name.is_empty()).then_some(name)
        })
        .collect()
}

#[test]
fn every_experiment_the_docs_name_is_a_registry_entry() {
    for file in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let named = mentions(&doc(file));
        assert!(!named.is_empty(), "{file} names no experiment");
        for name in named {
            assert!(
                REGISTRY.iter().any(|e| e.name == name),
                "{file} names `repro {name}`, which is not in the registry"
            );
        }
    }
}

#[test]
fn design_experiment_table_names_every_entry() {
    let design = doc("DESIGN.md");
    let start = design.find("\n## 3.").expect("DESIGN §3");
    let end = start + design[start..].find("\n## 4.").expect("DESIGN §4");
    let table: String =
        design[start..end].lines().filter(|l| l.starts_with("| E")).collect::<Vec<_>>().join("\n");
    let named = mentions(&table);
    for e in REGISTRY.iter().filter(|e| e.name != "all" && e.name != "soak") {
        assert!(
            named.iter().any(|n| n == e.name),
            "DESIGN §3's table does not name `repro {}`",
            e.name
        );
    }
}
