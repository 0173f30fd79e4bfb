//! What the two off-line checkers share: the report, the
//! check-repair-verify sequence, and bitmap reconciliation.
//!
//! Each checker supplies one pass over an image (`check`); [`run`] decides
//! when a repaired image is checked again and what counts as failure, and
//! [`FsckReport::reconcile`] compares an on-disk bitmap with what the pass
//! found in use.

use crate::{Bitmap, FsError, FsResult};
use cffs_disksim::Disk;

/// Outcome of a check (and optional repair).
#[derive(Debug, Default)]
pub struct FsckReport {
    /// Problems detected in the image as presented.
    pub errors: Vec<String>,
    /// Actions taken (repair mode only).
    pub repairs: Vec<String>,
    /// Live files the namespace walk found, each once however many names
    /// it has.
    pub files: usize,
    /// Live directories the namespace walk found, the root included.
    pub dirs: usize,
}

impl FsckReport {
    /// True if the image had no inconsistencies.
    pub fn clean(&self) -> bool {
        self.errors.is_empty()
    }

    /// Compare each bit of `bitmap` with `live(i)`, reporting every
    /// disagreement as `"{what} {id(i)} bitmap says …"` and, in `repair`
    /// mode, fixing the bit. True if any bit disagreed.
    pub fn reconcile(
        &mut self,
        repair: bool,
        bitmap: &mut Bitmap,
        what: &str,
        id: impl Fn(usize) -> u64,
        live: impl Fn(usize) -> bool,
    ) -> bool {
        let mut bad = false;
        for i in 0..bitmap.len() {
            let (says, should) = (bitmap.get(i), live(i));
            if says == should {
                continue;
            }
            bad = true;
            self.errors
                .push(format!("{what} {} bitmap says {says} but should be {should}", id(i)));
            if repair {
                if should {
                    bitmap.set(i);
                } else {
                    bitmap.clear(i);
                }
            }
        }
        bad
    }
}

/// Check (and with `repair`, fix) the image on `disk` with the one-pass
/// checker `check`. A repaired image is checked again and must come back
/// clean. An inconsistent verdict — a report with errors, or a failure —
/// flushes every armed flight recorder: the black box exists for the runs
/// whose images did not come back clean.
pub fn run(
    disk: &mut Disk,
    repair: bool,
    check: impl Fn(&mut Disk, bool) -> FsResult<FsckReport>,
) -> FsResult<FsckReport> {
    let verdict = check(disk, repair).and_then(|report| {
        if repair && !report.clean() {
            let verify = check(disk, false)?;
            if !verify.clean() {
                return Err(FsError::Corrupt(format!(
                    "repair failed to converge: {:?}",
                    verify.errors
                )));
            }
        }
        Ok(report)
    });
    if !verdict.as_ref().is_ok_and(FsckReport::clean) {
        cffs_obs::flight::dump_all("fsck_failure");
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconcile_reports_and_fixes_each_disagreeing_bit() {
        let mut bm = Bitmap::new(8);
        bm.set(1);
        bm.set(2);
        let live = |i: usize| i == 2 || i == 5;
        let mut report = FsckReport::default();
        assert!(report.reconcile(false, &mut bm, "block", |i| 100 + i as u64, live));
        assert_eq!(
            report.errors,
            [
                "block 101 bitmap says true but should be false",
                "block 105 bitmap says false but should be true"
            ]
        );
        assert!(bm.get(1), "check mode leaves the bitmap alone");
        assert!(report.reconcile(true, &mut bm, "block", |i| i as u64, live));
        assert!((0..8).all(|i| bm.get(i) == live(i)));
        assert!(!FsckReport::default().reconcile(true, &mut bm, "block", |i| i as u64, live));
    }

    #[test]
    fn repair_is_verified_once() {
        let disk = || Disk::new(cffs_disksim::models::tiny_test_disk());
        let passes = std::cell::Cell::new(0);
        // A pass that finds one error until a repair pass has run.
        let check = |_: &mut Disk, repair: bool| {
            passes.set(passes.get() + 1);
            let mut r = FsckReport::default();
            if passes.get() == 1 {
                r.errors.push("broken".into());
                if repair {
                    r.repairs.push("fixed".into());
                }
            }
            Ok(r)
        };
        let report = run(&mut disk(), true, check).unwrap();
        assert_eq!((report.errors.len(), report.repairs.len(), passes.get()), (1, 1, 2));
        // A repair that does not stick fails to converge.
        let stuck = |_: &mut Disk, _: bool| {
            Ok(FsckReport { errors: vec!["stuck".into()], ..FsckReport::default() })
        };
        assert!(matches!(run(&mut disk(), true, stuck), Err(FsError::Corrupt(m)) if m.contains("converge")));
        // Check mode never re-runs.
        passes.set(0);
        assert!(!run(&mut disk(), false, check).unwrap().clean());
        assert_eq!(passes.get(), 1);
    }
}
