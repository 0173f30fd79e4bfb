//! Documentation drift guard for the observability glossary.
//!
//! The README's counter/histogram glossary is the contract users grep
//! when reading `BENCH_*.json` or `cffs-inspect` output, so it must stay
//! in lockstep with the code: every counter and histogram the stack can
//! emit appears in the README, and every glossary entry names something
//! that still exists.

use cffs_obs::feed::FRAME_FIELDS;
use cffs_obs::flight::FLIGHT_RECORDS;
use cffs_obs::{Ctr, Histos};
use std::collections::BTreeSet;

fn readme() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md at the repo root")
}

/// Every backtick-quoted snake_case identifier in the README. Combined
/// glossary rows (`` `disk_reads` / `disk_writes` ``) fall out naturally
/// because each name carries its own backticks.
fn backticked_names(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for piece in text.split('`').skip(1).step_by(2) {
        let is_ident = !piece.is_empty()
            && piece.contains('_')
            && piece.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
        if is_ident {
            out.insert(piece.to_string());
        }
    }
    out
}

fn emittable_names() -> BTreeSet<String> {
    let mut names: BTreeSet<String> = Ctr::ALL.iter().map(|c| c.name().to_string()).collect();
    names.extend(Histos::names());
    names
}

/// Code → docs: every counter and histogram name is documented.
#[test]
fn every_counter_and_histogram_is_in_the_readme() {
    let text = readme();
    let documented = backticked_names(&text);
    let missing: Vec<_> =
        emittable_names().into_iter().filter(|n| !documented.contains(n)).collect();
    assert!(
        missing.is_empty(),
        "README.md glossary is missing these counter/histogram names: {missing:?}"
    );
}

/// Code → docs: every telemetry frame field is documented in the
/// README's feed table. (Frame fields need not contain `_`, so this
/// checks for the backticked name directly rather than reusing
/// `backticked_names`.)
#[test]
fn every_feed_frame_field_is_in_the_readme() {
    let text = readme();
    let missing: Vec<_> = FRAME_FIELDS
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| !text.contains(&format!("`{name}`")))
        .collect();
    assert!(
        missing.is_empty(),
        "README.md feed glossary is missing these frame fields: {missing:?}"
    );
}

/// Code → docs: every flight-recorder record type is documented, so a
/// `FLIGHT_*.jsonl` reader can always look a record up. (A `frame`
/// record's fields are the feed's, checked above.)
#[test]
fn every_flight_record_and_field_is_in_the_readme() {
    let text = readme();
    let missing: Vec<_> = FLIGHT_RECORDS
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| !text.contains(&format!("`{name}`")))
        .collect();
    assert!(
        missing.is_empty(),
        "README.md flight glossary is missing these record types: {missing:?}"
    );
}

/// Docs → code: glossary tables only name counters/histograms that exist.
/// Scoped to the glossary sections so ordinary prose identifiers (env
/// vars, field names) don't trip it.
#[test]
fn readme_glossary_names_all_exist() {
    let text = readme();
    let mut known = emittable_names();
    // The feed frame-field table uses the same `| `name` | meaning |`
    // row shape; its names come from FRAME_FIELDS, not Ctr/Histos.
    known.extend(FRAME_FIELDS.iter().map(|(name, _)| name.to_string()));
    // Likewise the flight-recorder record table.
    known.extend(FLIGHT_RECORDS.iter().map(|(name, _)| name.to_string()));
    // Glossary rows are markdown table lines whose first cell is a
    // backticked name.
    let mut stale = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.trim_start().strip_prefix("| `") else { continue };
        // Only vet the leading cell (the name column); prose cells may
        // mention JSON fields like `p50_ns`.
        let Some(name) = rest.split('`').next() else { continue };
        if !known.contains(name) {
            stale.push((name.to_string(), line.trim().to_string()));
        }
    }
    assert!(
        stale.is_empty(),
        "README.md glossary names nothing in Ctr/Histos — stale rows: {stale:#?}"
    );
}
