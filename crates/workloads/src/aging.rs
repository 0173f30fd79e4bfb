//! File-system aging, after [Herrin93].
//!
//! "The program simply creates and deletes a large number of files. The
//! probability that the next operation performed is a file creation
//! (rather than a deletion) is taken from a distribution centered around a
//! desired file system utilization."
//!
//! Concretely: when the file system sits below the target utilization the
//! next operation is biased toward creation, above it toward deletion, so
//! utilization oscillates around the target while allocation and freeing
//! churn fragments the free space. The E7 reproduction ages the disk, then
//! reruns the small-file read phase to see how much of the grouping
//! benefit fragmentation erodes.

use crate::sizes::SizeDist;
use cffs_fslib::{FileSystem, FsResult, Ino, BLOCK_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Aging parameters.
#[derive(Debug, Clone, Copy)]
pub struct AgingParams {
    /// Target fraction of data blocks in use, in `(0, 1)`.
    pub utilization: f64,
    /// Create/delete operations to perform.
    pub ops: usize,
    /// Directories to spread the churn over.
    pub ndirs: usize,
    /// RNG seed (determinism).
    pub seed: u64,
}

impl Default for AgingParams {
    fn default() -> Self {
        AgingParams { utilization: 0.5, ops: 50_000, ndirs: 50, seed: 1997 }
    }
}

/// Summary of an aging run.
#[derive(Debug, Clone, Copy)]
pub struct AgingOutcome {
    /// Files created.
    pub creates: u64,
    /// Files deleted.
    pub deletes: u64,
    /// Creates that failed with `NoSpace` (pressure events).
    pub enospc: u64,
    /// Final utilization (used / total data blocks).
    pub final_utilization: f64,
    /// Live files at the end.
    pub live_files: usize,
}

/// Age the file system. Files are created with sizes drawn from `dist` and
/// deleted at random; the create probability tracks the utilization target.
pub fn age(
    fs: &(impl FileSystem + ?Sized),
    params: AgingParams,
    dist: &impl SizeDist,
) -> FsResult<AgingOutcome> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let root = fs.root();
    let mut dirs: Vec<Ino> = Vec::new();
    for d in 0..params.ndirs {
        let name = format!("age{d:03}");
        let ino = match fs.lookup(root, &name) {
            Ok(i) => i,
            Err(_) => fs.mkdir(root, &name)?,
        };
        dirs.push(ino);
    }
    // (dir index, name) of live files.
    let mut live: Vec<(usize, String)> = Vec::new();
    let mut out = AgingOutcome {
        creates: 0,
        deletes: 0,
        enospc: 0,
        final_utilization: 0.0,
        live_files: 0,
    };
    let mut serial = 0u64;
    let mut buf = Vec::new();
    for _ in 0..params.ops {
        let st = fs.statfs()?;
        let used =
            (st.total_blocks - st.free_blocks - st.group_slack_blocks) as f64 / st.total_blocks as f64;
        // Bias: at target the coin is fair; the further below (above), the
        // more likely a create (delete).
        let p_create = (0.5 + (params.utilization - used) * 2.0).clamp(0.05, 0.95);
        let create = live.is_empty() || rng.gen::<f64>() < p_create;
        if create {
            let d = rng.gen_range(0..dirs.len());
            // Seed-qualified names so successive aging passes (different
            // seeds) over one image never collide.
            let name = format!("g{:04x}{serial:08}", params.seed as u16);
            serial += 1;
            let size = dist.sample(&mut rng);
            buf.resize(size, 0);
            buf.fill((serial % 251) as u8);
            match fs.create(dirs[d], &name) {
                Ok(ino) => match fs.write(ino, 0, &buf) {
                    Ok(_) => {
                        live.push((d, name));
                        out.creates += 1;
                    }
                    Err(cffs_fslib::FsError::NoSpace) => {
                        // Undo the half-made file and count the pressure event.
                        fs.unlink(dirs[d], &name)?;
                        out.enospc += 1;
                    }
                    Err(e) => return Err(e),
                },
                Err(cffs_fslib::FsError::NoSpace | cffs_fslib::FsError::NoInodes) => {
                    out.enospc += 1
                }
                Err(e) => return Err(e),
            }
        } else {
            let idx = rng.gen_range(0..live.len());
            let (d, name) = live.swap_remove(idx);
            fs.unlink(dirs[d], &name)?;
            out.deletes += 1;
        }
    }
    fs.sync()?;
    let st = fs.statfs()?;
    out.final_utilization =
        (st.total_blocks - st.free_blocks - st.group_slack_blocks) as f64 / st.total_blocks as f64;
    out.live_files = live.len();
    Ok(out)
}

/// Adversarial aging parameters: storms engineered to shred explicit
/// grouping rather than merely oscillate utilization.
#[derive(Debug, Clone, Copy)]
pub struct AdversarialParams {
    /// Storm rounds (each round: create storm, interleaved delete storm,
    /// hostile-size refill, directory churn).
    pub rounds: usize,
    /// Files per create storm.
    pub storm_files: usize,
    /// Directories the storms rotate over.
    pub ndirs: usize,
    /// RNG seed (determinism).
    pub seed: u64,
}

impl Default for AdversarialParams {
    fn default() -> Self {
        AdversarialParams { rounds: 3, storm_files: 120, ndirs: 8, seed: 1997 }
    }
}

/// Summary of an adversarial aging run.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdversarialOutcome {
    /// Files created across all storms.
    pub creates: u64,
    /// Files deleted.
    pub deletes: u64,
    /// Cross-directory renames performed.
    pub renames: u64,
    /// Creates/writes that hit `NoSpace` (dropped, counted).
    pub enospc: u64,
}

/// Age the file system *adversarially*: each round runs
///
/// 1. a **create storm** — a burst of one-block files round-robined
///    across directories, filling every directory's group extents;
/// 2. an **interleaved delete storm** — every other file of the storm is
///    removed, punching single-block holes through every extent;
/// 3. a **hostile-size refill** — files of 3 and 5 blocks (awkward
///    against one-block holes and the 16-block extent size) are created
///    in the churned directories, forcing spill into strangers' extents
///    or stray ungrouped blocks;
/// 4. **directory churn** — surviving files are renamed into the *next*
///    directory, so block ownership no longer matches the namespace.
///
/// After each round the `between` hook runs — this is where a caller
/// mounts the regrouping engine (or measures decay); pass `|_, _| Ok(())`
/// to just age. The hook receives the file system and the 0-based round
/// that just finished. `fs.sync()` runs before each hook so the hook sees
/// a quiescent image, and `group_fetch_util_pct` sampled across the run
/// is the quality signal that should decay (and recover, if the hook
/// regroups). Regrouping invalidates every outstanding handle, so the
/// hook — and therefore this function — takes the file system by `&mut`.
pub fn age_adversarial<F: FileSystem + ?Sized>(
    fs: &mut F,
    params: AdversarialParams,
    mut between: impl FnMut(&mut F, usize) -> FsResult<()>,
) -> FsResult<AdversarialOutcome> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let root = fs.root();
    let mut dirs: Vec<Ino> = Vec::new();
    for d in 0..params.ndirs {
        let name = format!("adv{d:03}");
        let ino = match fs.lookup(root, &name) {
            Ok(i) => i,
            Err(_) => fs.mkdir(root, &name)?,
        };
        dirs.push(ino);
    }
    let mut out = AdversarialOutcome::default();
    let mut serial = 0u64;
    // (dir index, name) of files alive across rounds.
    let mut live: Vec<(usize, String)> = Vec::new();
    let create = |fs: &F,
                      dirs: &[Ino],
                      d: usize,
                      size: usize,
                      serial: &mut u64,
                      out: &mut AdversarialOutcome|
     -> FsResult<Option<String>> {
        let name = format!("s{:04x}{:08}", params.seed as u16, *serial);
        *serial += 1;
        let body: Vec<u8> = (0..size)
            .map(|j| ((params.seed as usize ^ (*serial as usize * 131 + j * 17)) % 251) as u8)
            .collect();
        match fs.create(dirs[d], &name) {
            Ok(ino) => match fs.write(ino, 0, &body) {
                Ok(_) => {
                    out.creates += 1;
                    Ok(Some(name))
                }
                Err(cffs_fslib::FsError::NoSpace) => {
                    fs.unlink(dirs[d], &name)?;
                    out.enospc += 1;
                    Ok(None)
                }
                Err(e) => Err(e),
            },
            Err(cffs_fslib::FsError::NoSpace | cffs_fslib::FsError::NoInodes) => {
                out.enospc += 1;
                Ok(None)
            }
            Err(e) => Err(e),
        }
    };
    for round in 0..params.rounds {
        // 1. Create storm: one-block files, round-robin, so consecutive
        // allocations in one directory interleave with every other's.
        let mut storm: Vec<(usize, String)> = Vec::new();
        for i in 0..params.storm_files {
            let d = i % dirs.len();
            if let Some(name) = create(fs, &dirs, d, BLOCK_SIZE, &mut serial, &mut out)? {
                storm.push((d, name));
            }
        }
        // 2. Interleaved delete storm: every other storm file goes,
        // punching one-block holes through every group extent.
        let mut kept: Vec<(usize, String)> = Vec::new();
        for (i, (d, name)) in storm.into_iter().enumerate() {
            if i % 2 == 0 {
                fs.unlink(dirs[d], &name)?;
                out.deletes += 1;
            } else {
                kept.push((d, name));
            }
        }
        // 3. Hostile refill: 3- and 5-block files don't fit the one-block
        // holes, forcing allocation to spill across extents.
        for i in 0..params.storm_files / 4 {
            let d = rng.gen_range(0..dirs.len());
            let blocks = if i % 2 == 0 { 3 } else { 5 };
            if let Some(name) = create(fs, &dirs, d, blocks * BLOCK_SIZE, &mut serial, &mut out)? {
                kept.push((d, name));
            }
        }
        // 4. Directory churn: survivors move to the next directory, so
        // their blocks now live in extents owned by a stranger.
        for (d, name) in &mut kept {
            let nd = (*d + 1) % dirs.len();
            fs.rename(dirs[*d], name, dirs[nd], name)?;
            out.renames += 1;
            *d = nd;
        }
        live.append(&mut kept);
        fs.sync()?;
        between(fs, round)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizes::Fixed;
    use cffs_fslib::model::ModelFs;

    #[test]
    fn aging_on_oracle_creates_and_deletes() {
        let fs = ModelFs::new();
        let out = age(
            &fs,
            AgingParams { utilization: 0.5, ops: 500, ndirs: 4, seed: 7 },
            &Fixed(2048),
        )
        .unwrap();
        assert_eq!(out.creates + out.deletes, 500);
        assert!(out.creates > 0 && out.deletes > 0);
        assert_eq!(out.live_files as u64, out.creates - out.deletes);
    }

    #[test]
    fn adversarial_rounds_and_hook_order() {
        let mut fs = ModelFs::new();
        let mut hooks = Vec::new();
        let out = age_adversarial(
            &mut fs,
            AdversarialParams { rounds: 2, storm_files: 40, ndirs: 4, seed: 5 },
            |_, round| {
                hooks.push(round);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(hooks, vec![0, 1]);
        // Each round: 40 created, 20 deleted, 10 refills, survivors renamed.
        assert_eq!(out.creates, 2 * (40 + 10));
        assert_eq!(out.deletes, 2 * 20);
        assert_eq!(out.renames, 2 * 30);
        assert_eq!(out.enospc, 0);
    }

    #[test]
    fn adversarial_is_deterministic() {
        let run = || {
            let mut fs = ModelFs::new();
            let out = age_adversarial(
                &mut fs,
                AdversarialParams { rounds: 2, storm_files: 30, ndirs: 3, seed: 11 },
                |_, _| Ok(()),
            )
            .unwrap();
            (out.creates, out.deletes, out.renames)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn aging_is_deterministic() {
        let run = || {
            let fs = ModelFs::new();
            age(
                &fs,
                AgingParams { utilization: 0.4, ops: 300, ndirs: 3, seed: 99 },
                &Fixed(1024),
            )
            .unwrap()
            .creates
        };
        assert_eq!(run(), run());
    }
}
