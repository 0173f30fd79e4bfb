//! Smoke tests: every reproduction runs end to end at reduced scale and
//! its report contains the structural markers the full run relies on.
//! This keeps `repro all` from rotting between full benchmark runs.

use cffs_bench::experiments::*;
use cffs_fslib::MetadataMode;
use cffs_workloads::appdev::DevTreeParams;
use cffs_workloads::smallfile::SmallFileParams;

fn small() -> SmallFileParams {
    SmallFileParams { nfiles: 120, ndirs: 8, ..SmallFileParams::default() }
}

#[test]
fn e1_table1() {
    let out = table1::report().0;
    for needle in ["HP C3653", "Quantum Atlas II", "8.7 ms", "Average seek"] {
        assert!(out.contains(needle), "missing {needle:?} in:\n{out}");
    }
}

#[test]
fn e2_fig2() {
    let out = fig2::report(40).0;
    assert!(out.contains("64 KB"));
    assert!(out.contains("adjacency converts positioning time"));
}

#[test]
fn e3_table2() {
    let out = table2::report().0;
    assert!(out.contains("Seagate ST31200N"));
    assert!(out.contains("C-LOOK"));
}

#[test]
fn e4_e5_smallfile_both_modes() {
    for mode in [MetadataMode::Synchronous, MetadataMode::Delayed] {
        let out = smallfile::report(mode, small()).0;
        for fsname in ["FFS", "conventional", "embedded inodes", "explicit grouping", "C-FFS"] {
            assert!(out.contains(fsname), "{mode:?}: missing {fsname}");
        }
        assert!(out.contains("speedup of C-FFS over conventional"));
    }
}

#[test]
fn e4_rows_cover_all_phases() {
    let (rows, _) = smallfile::run_all(MetadataMode::Delayed, small());
    assert_eq!(rows.len(), 5 * 4, "5 file systems x 4 phases");
    for r in &rows {
        assert!(r.elapsed.as_nanos() > 0, "{}/{} took zero time", r.fs, r.phase);
        assert!(r.items > 0);
    }
}

/// The create and read rows of one sweep point both moved data.
fn creates_and_reads(rows: &[cffs_workloads::PhaseResult]) {
    for phase in ["create", "read"] {
        let r = rows.iter().find(|r| r.phase == phase).expect("phase row");
        assert!(r.items_per_sec() > 0.0 && r.mb_per_sec() > 0.0, "{phase}");
    }
}

#[test]
fn e6_filesize_point() {
    creates_and_reads(&filesize::point_rows(cffs_core::CffsConfig::cffs(), 4096));
}

#[test]
fn e7_aging_point() {
    let (rows, util) = aging::point_rows(cffs_core::CffsConfig::cffs(), 0.3, 1500);
    creates_and_reads(&rows);
    assert!((0.05..0.9).contains(&util), "utilization {util}");
}

#[test]
fn e8_diskreqs() {
    let out = diskreqs::report(small()).0;
    assert!(out.contains("claims vs counters"));
    assert!(out.contains("sync writes per create"));
}

#[test]
fn e9_apps() {
    let out = apps::report(MetadataMode::Synchronous, DevTreeParams::small()).0;
    for phase in ["untar", "copy", "compile", "search", "clean"] {
        assert!(out.contains(phase), "missing {phase}");
    }
    assert!(out.contains("10-300%"));
}

#[test]
fn e10_dirsize() {
    let out = dirsize::report().0;
    assert!(out.contains("static preallocation"));
    assert!(out.contains("entries"));
}

#[test]
fn e12_postmark() {
    let out =
        postmark::report(MetadataMode::Delayed, cffs_workloads::postmark::PostmarkParams::small())
            .0;
    for needle in ["pm-create", "pm-transactions", "pm-delete", "C-FFS speedup"] {
        assert!(out.contains(needle), "missing {needle:?}");
    }
}
