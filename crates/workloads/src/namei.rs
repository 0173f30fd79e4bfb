//! Million-file namei benchmark — deep-tree name resolution.
//!
//! Builds a three-level tree `/b{i}/d{j}/f{k}` and then resolves seeded
//! full paths through it, so the cost under test is `namei` itself: one
//! `lookup` per component, against directories big enough that a linear
//! dirent scan genuinely hurts (256 files per leaf directory ≈ 10
//! directory blocks at 144 bytes per embedded entry). The namespace
//! cache (dcache) turns each warm component lookup into a single hashed
//! probe; the ablation with the cache disabled pays the full scan — the
//! p99 gap between the two is E15's acceptance metric.
//!
//! Files default to zero bytes: a million 1 KB files would blow past the
//! 1 GB testbed drive, and data blocks are not what this benchmark
//! measures. `read` is still issued per resolved path (it costs a
//! syscall even at size 0), so the op mix stays create/stat/read as the
//! experiment requires.

use cffs_fslib::path::resolve;
use cffs_fslib::{FileSystem, FsResult, Ino};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of one namei run.
#[derive(Debug, Clone, Copy)]
pub struct NameiParams {
    /// Top-level branch directories (`/b0` .. `/b{branches-1}`).
    pub branches: usize,
    /// Mid-level directories per branch (`/b0/d0` ..).
    pub dirs_per_branch: usize,
    /// Files per leaf directory. Keep this large (the default 256) —
    /// the benchmark's whole point is leaf directories that span many
    /// blocks, so a scan-free lookup has something to beat.
    pub files_per_dir: usize,
    /// Bytes per file (0 = namespace-only tree, the default).
    pub file_size: usize,
    /// Full paths resolved per round (seeded sample of the tree).
    pub sample: usize,
    /// Rounds of the warm resolution phase.
    pub rounds: usize,
    /// RNG seed for the path sample.
    pub seed: u64,
}

impl Default for NameiParams {
    fn default() -> Self {
        // 64 × 64 × 256 = 1 048 576 files: the million-file tree.
        NameiParams {
            branches: 64,
            dirs_per_branch: 64,
            files_per_dir: 256,
            file_size: 0,
            sample: 4096,
            rounds: 3,
            seed: 1997,
        }
    }
}

impl NameiParams {
    /// Files in the full tree.
    pub fn total_files(&self) -> u64 {
        (self.branches * self.dirs_per_branch * self.files_per_dir) as u64
    }

    /// Directories in the full tree (branches + leaves, excluding root).
    pub fn total_dirs(&self) -> u64 {
        (self.branches + self.branches * self.dirs_per_branch) as u64
    }
}

/// Build the tree: every directory, then every file (leaf directories
/// filled one after another, like an untar). Returns (ops, payload
/// bytes). Creation drives `(dir ino, name)` directly — path walking is
/// what the *resolution* phases measure.
pub fn build_tree(fs: &(impl FileSystem + ?Sized), p: &NameiParams) -> FsResult<(u64, u64)> {
    let root = fs.root();
    let payload: Vec<u8> = (0..p.file_size).map(|i| (i % 251) as u8).collect();
    let mut ops = 0u64;
    let mut bytes = 0u64;
    for b in 0..p.branches {
        let branch = fs.mkdir(root, &format!("b{b}"))?;
        ops += 1;
        for d in 0..p.dirs_per_branch {
            let leaf = fs.mkdir(branch, &format!("d{d}"))?;
            ops += 1;
            for f in 0..p.files_per_dir {
                let ino = fs.create(leaf, &format!("f{f}"))?;
                ops += 1;
                if !payload.is_empty() {
                    fs.write(ino, 0, &payload)?;
                    ops += 1;
                    bytes += payload.len() as u64;
                }
            }
        }
    }
    Ok((ops, bytes))
}

/// The seeded sample of full paths the resolution phases walk. The same
/// seed produces the same sample, so the cold phase faults exactly the
/// set the warm phase then re-resolves.
pub fn sample_paths(p: &NameiParams) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(p.seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
    (0..p.sample)
        .map(|_| {
            let b = rng.gen_range(0..p.branches as u64);
            let d = rng.gen_range(0..p.dirs_per_branch as u64);
            let f = rng.gen_range(0..p.files_per_dir as u64);
            format!("/b{b}/d{d}/f{f}")
        })
        .collect()
}

/// One resolution round: resolve every sampled path component by
/// component, `getattr` it, and `read` it. Returns (ops, bytes).
pub fn resolve_round(
    fs: &(impl FileSystem + ?Sized),
    paths: &[String],
    buf: &mut [u8],
) -> FsResult<(u64, u64)> {
    let mut ops = 0u64;
    let mut bytes = 0u64;
    for path in paths {
        let ino: Ino = resolve(fs, path)?;
        ops += 3; // one lookup per component
        fs.getattr(ino)?;
        ops += 1;
        let n = fs.read(ino, 0, buf)?;
        ops += 1;
        bytes += n as u64;
    }
    Ok((ops, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cffs_fslib::model::ModelFs;

    fn tiny() -> NameiParams {
        NameiParams {
            branches: 2,
            dirs_per_branch: 2,
            files_per_dir: 3,
            file_size: 8,
            sample: 10,
            rounds: 2,
            seed: 7,
        }
    }

    #[test]
    fn builds_the_advertised_tree() {
        let p = tiny();
        let fs = ModelFs::new();
        let (ops, bytes) = build_tree(&fs, &p).expect("build");
        assert_eq!(p.total_files(), 12);
        assert_eq!(p.total_dirs(), 6);
        // mkdirs + creates + writes
        assert_eq!(ops, 6 + 12 + 12);
        assert_eq!(bytes, 12 * 8);
    }

    #[test]
    fn sample_is_seeded_and_resolvable() {
        let p = tiny();
        let fs = ModelFs::new();
        build_tree(&fs, &p).expect("build");
        let paths = sample_paths(&p);
        assert_eq!(paths, sample_paths(&p));
        let mut buf = vec![0u8; p.file_size.max(1)];
        let (ops, bytes) = resolve_round(&fs, &paths, &mut buf).expect("resolve");
        assert_eq!(ops, 10 * 5);
        assert_eq!(bytes, 10 * 8);
    }

    #[test]
    fn zero_byte_files_still_resolve_and_read() {
        let p = NameiParams { file_size: 0, ..tiny() };
        let fs = ModelFs::new();
        build_tree(&fs, &p).expect("build");
        let mut buf = vec![0u8; 1];
        let (ops, bytes) = resolve_round(&fs, &sample_paths(&p), &mut buf).expect("resolve");
        assert_eq!(ops, 10 * 5);
        assert_eq!(bytes, 0);
    }
}
