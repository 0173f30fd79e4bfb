//! Soak mode — an open-ended mixed workload for *watching* the stack.
//!
//! Every other workload in this crate exists to produce a number; the
//! soak exists to produce *activity*: round after round of seeded
//! create/read/overwrite/delete churn with periodic syncs and cache
//! drops, so the telemetry feed (and `cffs-top` following it) has
//! something worth looking at for as long as the operator cares to
//! watch. The op mix deliberately sweeps the observable surface each
//! round: allocation (CG gauges move), cold group fetches (utilization
//! samples), dirty buildup then sync (backlog signal), deletes
//! (fragmentation the regrouper can later chase).
//!
//! The workload is seeded and runs in simulated time, so a soak with a
//! fixed round count is as deterministic as any other workload here —
//! "soak" describes the shape, not a dependence on wall time.

use cffs_fslib::path::mkdir_p;
use cffs_fslib::{FileKind, FileSystem, FsResult, Ino};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of one soak run.
#[derive(Debug, Clone, Copy)]
pub struct SoakParams {
    /// Churn rounds to run (each round touches every directory).
    pub rounds: usize,
    /// Directories the soak churns.
    pub ndirs: usize,
    /// Files per directory the soak tops back up to each round.
    pub files_per_dir: usize,
    /// Bytes per file.
    pub file_size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SoakParams {
    fn default() -> Self {
        SoakParams { rounds: 8, ndirs: 6, files_per_dir: 24, file_size: 2048, seed: 1997 }
    }
}

/// Tally of one soak run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SoakResult {
    /// Rounds completed.
    pub rounds: usize,
    /// Operations performed (create/write/read/unlink each count one).
    pub ops: u64,
    /// Payload bytes written plus read.
    pub bytes: u64,
}

/// Run the soak. `on_round(i)` fires after round `i` completes (with the
/// image synced) — the hook the repro binary uses for progress output.
pub fn run(
    fs: &(impl FileSystem + ?Sized),
    p: &SoakParams,
    mut on_round: impl FnMut(usize),
) -> FsResult<SoakResult> {
    let mut rng = StdRng::seed_from_u64(p.seed.wrapping_mul(0xA076_1D64_78BD_642F));
    let mut dirs: Vec<Ino> = Vec::with_capacity(p.ndirs);
    for d in 0..p.ndirs {
        dirs.push(mkdir_p(fs, &format!("/soak{d:02}"))?);
    }
    let mut res = SoakResult::default();
    let mut buf = vec![0u8; p.file_size];
    let mut serial = 0u64;
    for round in 0..p.rounds {
        for &dir in &dirs {
            // Top the directory back up to the target population (the
            // first round creates everything, later rounds replace what
            // the previous round deleted).
            let have = fs.readdir(dir)?.iter().filter(|e| e.kind == FileKind::File).count();
            for _ in have..p.files_per_dir {
                let ino = fs.create(dir, &format!("s{serial:06}"))?;
                serial += 1;
                let payload: Vec<u8> =
                    (0..p.file_size).map(|j| ((serial as usize + j) % 251) as u8).collect();
                fs.write(ino, 0, &payload)?;
                res.ops += 2;
                res.bytes += p.file_size as u64;
            }
        }
        // Cold per-directory read sweep: group fetches resolve inside the
        // round, feeding the utilization EWMA and the per-CG heat.
        fs.drop_caches()?;
        for &dir in &dirs {
            let entries = fs.readdir(dir)?;
            for e in entries.iter().filter(|e| e.kind == FileKind::File) {
                let n = fs.read(e.ino, 0, &mut buf)?;
                res.ops += 1;
                res.bytes += n as u64;
            }
            fs.drop_caches()?;
        }
        // Seeded churn: overwrite a third, delete a quarter.
        for &dir in &dirs {
            let entries = fs.readdir(dir)?;
            for e in entries.iter().filter(|e| e.kind == FileKind::File) {
                match rng.gen_range(0..12u64) {
                    0..=3 => {
                        let payload = vec![(serial & 0xff) as u8; p.file_size];
                        fs.write(e.ino, 0, &payload)?;
                        res.ops += 1;
                        res.bytes += p.file_size as u64;
                    }
                    4..=6 => {
                        fs.unlink(dir, &e.name)?;
                        res.ops += 1;
                    }
                    _ => {}
                }
            }
        }
        fs.sync()?;
        res.rounds = round + 1;
        on_round(round);
    }
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cffs_fslib::model::ModelFs;

    #[test]
    fn soak_runs_and_reports_work() {
        let fs = ModelFs::new();
        let p = SoakParams { rounds: 3, ndirs: 2, files_per_dir: 5, ..SoakParams::default() };
        let mut seen = Vec::new();
        let r = run(&fs, &p, |i| seen.push(i)).expect("soak");
        assert_eq!(r.rounds, 3);
        assert_eq!(seen, vec![0, 1, 2]);
        assert!(r.ops > 0 && r.bytes > 0);
    }
}
