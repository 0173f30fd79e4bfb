//! The software-development application suite.
//!
//! The paper reports "preliminary experience with software-development
//! applications shows performance improvements ranging from 10-300
//! percent". This module reproduces that class of workload synthetically:
//!
//! 1. **`untar`** — populate a source tree (many small files landing in
//!    directory order), like extracting a source archive.
//! 2. **`copy`** — recursively copy the tree (read every file, create and
//!    write every copy).
//! 3. **`compile`** — for every `.c` file: read it, read the shared
//!    headers, write a `.o` about 1.5× its size; then "link" each
//!    directory's objects into one larger output.
//! 4. **`search`** — `grep -r`: read every file in tree order.
//! 5. **`clean`** — delete all derived objects.
//!
//! Every phase starts cold and ends with a full write-back, measured in
//! simulated time like the micro-benchmark.

use crate::namegen::source_name;
use crate::runner::{cold_boundary, measure, PhaseResult};
use cffs_fslib::{path, FileKind, FileSystem, FsResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of the synthetic source tree.
#[derive(Debug, Clone, Copy)]
pub struct DevTreeParams {
    /// Source directories (modules).
    pub dirs: usize,
    /// `.c` files per directory.
    pub files_per_dir: usize,
    /// Shared headers in `/src/include`.
    pub headers: usize,
    /// Mean source-file size in bytes (sizes vary ±50%).
    pub mean_size: usize,
    /// RNG seed. Sizes *and* file bodies derive from it — every body is a
    /// pure function of `(seed, file tag)` (like `SmallFileParams::seed`),
    /// so equal parameters give byte-identical trees and timelines.
    pub seed: u64,
}

impl Default for DevTreeParams {
    /// ~600 source files of a few KB — a mid-90s utility suite.
    fn default() -> Self {
        DevTreeParams { dirs: 30, files_per_dir: 20, headers: 40, mean_size: 4096, seed: 3 }
    }
}

impl DevTreeParams {
    /// Scaled-down tree for tests.
    pub fn small() -> Self {
        DevTreeParams { dirs: 4, files_per_dir: 6, headers: 6, mean_size: 2048, seed: 3 }
    }

    /// Total source files.
    pub fn total_files(&self) -> usize {
        self.dirs * self.files_per_dir + self.headers
    }
}

fn gen_size(rng: &mut StdRng, mean: usize) -> usize {
    let lo = mean / 2;
    let hi = mean * 3 / 2;
    rng.gen_range(lo..=hi)
}

/// Deterministic file body keyed by `(seed, tag)` — `tag` identifies the
/// file within the tree, the run's seed varies the whole stream.
fn file_body(seed: u64, tag: u64, len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect()
}

/// Run the whole suite. Returns one [`PhaseResult`] per phase:
/// `untar`, `copy`, `compile`, `search`, `clean`.
pub fn run(
    fs: &(impl FileSystem + ?Sized),
    params: DevTreeParams,
) -> FsResult<Vec<PhaseResult>> {
    let mut results = Vec::new();
    let mut rng = StdRng::seed_from_u64(params.seed);

    // Precompute the tree shape so phases agree on sizes.
    let mut sizes: Vec<Vec<usize>> = Vec::new();
    for _ in 0..params.dirs {
        sizes.push((0..params.files_per_dir).map(|_| gen_size(&mut rng, params.mean_size)).collect());
    }
    let header_sizes: Vec<usize> =
        (0..params.headers).map(|_| gen_size(&mut rng, params.mean_size / 2)).collect();
    let total_bytes: u64 = sizes.iter().flatten().chain(header_sizes.iter()).map(|&s| s as u64).sum();
    let nfiles = params.total_files() as u64;

    // Phase 1: untar.
    results.push(measure(fs, "untar", nfiles, total_bytes, |fs| {
        path::mkdir_p(fs, "/src/include")?;
        for (h, &sz) in header_sizes.iter().enumerate() {
            path::write_file(
                fs,
                &format!("/src/include/h{h:03}.h"),
                &file_body(params.seed, 9000 + h as u64, sz),
            )?;
        }
        for (d, dir_sizes) in sizes.iter().enumerate() {
            path::mkdir_p(fs, &format!("/src/mod{d:03}"))?;
            for (f, &sz) in dir_sizes.iter().enumerate() {
                path::write_file(
                    fs,
                    &format!("/src/mod{d:03}/{}", source_name(f)),
                    &file_body(params.seed, (d * 1000 + f) as u64, sz),
                )?;
            }
        }
        Ok(())
    })?);
    cold_boundary(fs)?;

    // Phase 2: copy the tree.
    results.push(measure(fs, "copy", nfiles, 2 * total_bytes, |fs| {
        let mut entries: Vec<(String, String)> = Vec::new();
        path::walk(fs, "/src", &mut |p, _, kind| {
            if kind == FileKind::File {
                entries.push((p.to_string(), p.replacen("/src", "/copy", 1)));
            }
        })?;
        path::mkdir_p(fs, "/copy")?;
        for (from, to) in entries {
            let data = path::read_file(fs, &from)?;
            let (parent, _) = to.rsplit_once('/').expect("absolute path");
            path::mkdir_p(fs, parent)?;
            path::write_file(fs, &to, &data)?;
        }
        Ok(())
    })?);
    cold_boundary(fs)?;

    // Phase 3: compile.
    let obj_bytes: u64 = sizes.iter().flatten().map(|&s| (s * 3 / 2) as u64).sum();
    results.push(measure(fs, "compile", (params.dirs * params.files_per_dir) as u64, obj_bytes, |fs| {
        // Read all headers once per directory (cache-warm within a module,
        // as make+cc would behave).
        for (d, dir_sizes) in sizes.iter().enumerate() {
            for h in 0..header_sizes.len() {
                let _ = path::read_file(fs, &format!("/src/include/h{h:03}.h"))?;
            }
            let mut linked: u64 = 0;
            for (f, &sz) in dir_sizes.iter().enumerate() {
                let src = path::read_file(fs, &format!("/src/mod{d:03}/{}", source_name(f)))?;
                debug_assert_eq!(src.len(), sz);
                let obj = file_body(params.seed, (50_000 + d * 1000 + f) as u64, sz * 3 / 2);
                linked += obj.len() as u64;
                path::write_file(
                    fs,
                    &format!("/src/mod{d:03}/{}.o", source_name(f).trim_end_matches(".c")),
                    &obj,
                )?;
            }
            // "Link" the module.
            path::write_file(
                fs,
                &format!("/src/mod{d:03}/module.a"),
                &file_body(params.seed, 70_000 + d as u64, linked as usize / 2),
            )?;
        }
        Ok(())
    })?);
    cold_boundary(fs)?;

    // Phase 4: recursive search.
    results.push(measure(fs, "search", nfiles, total_bytes, |fs| {
        let mut files: Vec<String> = Vec::new();
        path::walk(fs, "/src", &mut |p, _, kind| {
            if kind == FileKind::File {
                files.push(p.to_string());
            }
        })?;
        let needle = b"@@@never-present@@@";
        for f in files {
            let data = path::read_file(fs, &f)?;
            debug_assert!(!data.windows(needle.len()).any(|w| w == needle));
        }
        Ok(())
    })?);
    cold_boundary(fs)?;

    // Phase 5: clean (delete derived files).
    results.push(measure(fs, "clean", (params.dirs * (params.files_per_dir + 1)) as u64, 0, |fs| {
        let mut derived: Vec<String> = Vec::new();
        path::walk(fs, "/src", &mut |p, _, kind| {
            if kind == FileKind::File && (p.ends_with(".o") || p.ends_with(".a")) {
                derived.push(p.to_string());
            }
        })?;
        for f in derived {
            path::remove_file(fs, &f)?;
        }
        Ok(())
    })?);

    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cffs_fslib::model::ModelFs;

    #[test]
    fn suite_runs_on_oracle() {
        let fs = ModelFs::new();
        let rs = run(&fs, DevTreeParams::small()).unwrap();
        let phases: Vec<&str> = rs.iter().map(|r| r.phase.as_str()).collect();
        assert_eq!(phases, vec!["untar", "copy", "compile", "search", "clean"]);
        // After clean, no .o files remain but sources do.
        let mut objs = 0;
        let mut srcs = 0;
        path::walk(&fs, "/src", &mut |p, _, k| {
            if k == FileKind::File {
                if p.ends_with(".o") || p.ends_with(".a") {
                    objs += 1;
                } else {
                    srcs += 1;
                }
            }
        })
        .unwrap();
        assert_eq!(objs, 0);
        assert_eq!(srcs, DevTreeParams::small().total_files());
        // The copy matches the original.
        let a = path::read_file(&fs, "/src/mod000/main0.c").unwrap();
        let b = path::read_file(&fs, "/copy/mod000/main0.c").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bodies_are_pure_in_seed_and_tag() {
        assert_eq!(file_body(3, 17, 64), file_body(3, 17, 64));
        assert_ne!(file_body(3, 17, 64), file_body(3, 18, 64));
        assert_ne!(file_body(3, 17, 64), file_body(4, 17, 64), "seed changes the stream");
    }

    #[test]
    fn suite_is_deterministic_and_seed_sensitive() {
        let tree = |seed| {
            let fs = ModelFs::new();
            run(&fs, DevTreeParams { seed, ..DevTreeParams::small() }).unwrap();
            path::read_file(&fs, "/src/mod000/main0.c").unwrap()
        };
        assert_eq!(tree(3), tree(3));
        assert_ne!(tree(3), tree(4));
    }
}
