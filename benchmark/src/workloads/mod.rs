//! The six workloads. All run on `models::seagate_st31200()` with the
//! default 4 096-buffer (16 MB) cache; each fixes its own population,
//! pass and op (see the module docs and `benchmark/README.md`).

pub mod churn_softdep;
pub mod cold_read;
pub mod meta_sync;
pub mod namei_warm;
pub mod volume_stripe;
pub mod warm_read;

use crate::fsapi::Fs;
use crate::gen::Tape;
use crate::harness::{Bench, Rec};
use cffs_core::mkfs::mkfs;
use cffs_core::{fsck, Cffs, CffsConfig, MkfsParams};
use cffs_disksim::{models, Disk};
use cffs_fslib::{FsError, Ino};

/// Which stack a workload's stream runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The configuration the workload is defined on.
    Main,
    /// The same stream on `CffsConfig::conventional()` (no embedded
    /// inodes, no grouping), for `core.sim_speedup_vs_conventional`.
    Conventional,
    /// `volume_stripe` only: the stream on a bare `Cffs`.
    BareCffs,
    /// `volume_stripe` only: the stream on a 1-volume `VolumeSet`.
    OneVolume,
}

/// Population and pass sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// As specified.
    Full,
    /// Shrunk for the determinism tests.
    Test,
}

impl Scale {
    /// `full` at full scale, `test` in the determinism tests.
    pub fn pick(self, full: usize, test: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Test => test,
        }
    }
}

/// A workload: seeded inputs made before anything is timed, and a
/// builder that does mkfs + populate + warming (what `setup_s` times).
pub trait Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    const NAME: &'static str;
    /// Passes whose simulated numbers are kept (see `run_window`).
    const KEPT_PASSES: usize;
    /// The window must show no disk request at all.
    const EXPECT_NO_DISK: bool = false;
    /// The stream also runs on `Variant::Conventional` in the traced run.
    const VS_CONVENTIONAL: bool = false;
    /// `volume_stripe`: the stream also runs on `Variant::OneVolume` and
    /// `Variant::BareCffs` in the traced run.
    const VOLUME_TWINS: bool = false;
    /// The traced run also alternates bare and obs-armed passes.
    const OBS_OVERHEAD: bool = false;
    /// Generated inputs.
    type Plan;
    /// Generate every name, payload and stream parameter from the seed.
    fn plan(seed: u64, scale: Scale) -> Self::Plan;
    /// Hash of the generated inputs (names, payload offsets, stream seed).
    fn inputs_hash(plan: &Self::Plan) -> u64;
    /// mkfs + populate + warming on the given stack.
    fn build<'p>(plan: &'p Self::Plan, variant: Variant) -> Box<dyn Bench + 'p>;
    /// `volume.lock_wait_share_2t`, where the workload has one.
    fn lock_wait_share_2t(
        _plan: &Self::Plan,
        _unpinned: Option<&crate::pin::CpuSet>,
    ) -> Option<f64> {
        None
    }
}

/// A fresh C-FFS on the paper's testbed drive.
pub fn fresh_cffs(cfg: CffsConfig) -> Cffs {
    mkfs(
        Disk::new(models::seagate_st31200()),
        MkfsParams::default(),
        cfg,
    )
    .expect("setup: mkfs")
}

/// The Cffs configuration for a variant of a single-disk workload.
pub fn base_cfg(variant: Variant) -> CffsConfig {
    match variant {
        Variant::Conventional => CffsConfig::conventional(),
        _ => CffsConfig::cffs(),
    }
}

/// Look `name` up in `dir`, read the whole file and compare it with
/// `expect`; any difference is one failed op.
pub fn verify_file<F: Fs>(
    fs: &F,
    rec: &mut Rec,
    dir: Ino,
    name: &str,
    expect: &[u8],
    buf: &mut Vec<u8>,
) {
    rec.attempted += 1;
    buf.resize(expect.len() + 1, 0);
    match fs.lookup(dir, name).and_then(|ino| fs.read(ino, 0, buf)) {
        Ok(n) if n == expect.len() && buf[..n] == *expect => {}
        Ok(n) => rec.fail(|| {
            format!(
                "check: {name}: {n} bytes read, {} expected or bytes differ",
                expect.len()
            )
        }),
        Err(e) => rec.fail(|| format!("check: {name}: {e:?}")),
    }
}

/// The durability check every single-disk workload ends with: `sync` →
/// `crash_image()` → `fsck` clean → remount → `verify` every live file on
/// the remounted image.
pub fn check_durable(fs: &Cffs, rec: &mut Rec, verify: impl FnOnce(&Cffs, &mut Rec)) {
    rec.attempted += 1;
    if let Err(e) = fs.sync() {
        return rec.fail(|| format!("check: final sync: {e:?}"));
    }
    let mut image = fs.crash_image();
    match fsck(&mut image, false) {
        Ok(report) if report.clean() => {}
        Ok(report) => return rec.fail(|| format!("check: fsck after sync: {:?}", report.errors)),
        Err(e) => return rec.fail(|| format!("check: fsck after sync: {e:?}")),
    }
    match Cffs::mount(image, fs.config().clone()) {
        Ok(remounted) => verify(&remounted, rec),
        Err(e) => rec.fail(|| format!("check: remount: {e:?}")),
    }
}

/// Directory inodes of `names` under the root of a (re)mounted image;
/// a directory that does not resolve is a failure and maps to the root.
pub fn resolve_dirs<F: Fs>(fs: &F, rec: &mut Rec, names: &[String]) -> Vec<Ino> {
    names
        .iter()
        .map(|n| {
            fs.lookup(fs.root(), n).unwrap_or_else(|e| {
                rec.fail(|| format!("check: directory {n}: {e:?}"));
                fs.root()
            })
        })
        .collect()
}

/// Files named `names[i]` with content `tape[offs[i]..][..len]`, file `i`
/// in directory `i % dirs.len()`: the population three workloads share.
pub struct FlatFiles {
    /// Directory names under the root.
    pub dirs: Vec<String>,
    /// File names.
    pub names: Vec<String>,
    /// Tape offset of each file's content.
    pub offs: Vec<u32>,
    /// Bytes per file.
    pub len: usize,
    /// The payload tape.
    pub tape: Tape,
}

impl FlatFiles {
    /// Seeded names and payload offsets.
    pub fn new(seed: u64, ndirs: usize, nfiles: usize, len: usize) -> FlatFiles {
        let mut rng = crate::gen::Rng::new(seed);
        let tape = Tape::new(&mut rng.fork());
        let dirs = crate::gen::names(&mut rng, 'd', ndirs);
        let names = crate::gen::names(&mut rng, 'f', nfiles);
        let offs = (0..nfiles).map(|_| Tape::start(&mut rng)).collect();
        FlatFiles {
            dirs,
            names,
            offs,
            len,
            tape,
        }
    }

    /// Hash of every generated name and payload offset.
    pub fn inputs_hash(&self) -> u64 {
        let mut h = crate::gen::Fnv::default();
        h.strs(&self.dirs)
            .strs(&self.names)
            .nums(self.offs.iter().map(|&o| o as u64));
        h.0
    }

    /// Content of file `i`.
    #[inline]
    pub fn payload(&self, i: usize) -> &[u8] {
        self.tape.slice(self.offs[i], self.len)
    }

    /// Make the directories; returns their inodes.
    pub fn mkdirs<F: Fs>(&self, fs: &F) -> Vec<Ino> {
        self.dirs
            .iter()
            .map(|d| fs.mkdir(fs.root(), d).expect("setup: mkdir"))
            .collect()
    }

    /// Create and write every file, round-robin over the directories.
    pub fn populate<F: Fs>(&self, fs: &F, dirs: &[Ino]) {
        for (i, name) in self.names.iter().enumerate() {
            let ino = fs
                .create(dirs[i % dirs.len()], name)
                .expect("setup: create");
            fs.write(ino, 0, self.payload(i)).expect("setup: write");
        }
        fs.sync().expect("setup: sync");
    }

    /// Every file on a remounted image is byte-identical.
    pub fn verify_all<F: Fs>(&self, fs: &F, rec: &mut Rec) {
        let dirs = resolve_dirs(fs, rec, &self.dirs);
        let mut buf = Vec::new();
        for (i, name) in self.names.iter().enumerate() {
            verify_file(
                fs,
                rec,
                dirs[i % dirs.len()],
                name,
                self.payload(i),
                &mut buf,
            );
        }
    }
}

/// One lookup + read + verify op on file `i` of a [`FlatFiles`]
/// population (the op of `cold_read` and `warm_read`).
#[inline]
pub fn lookup_read_verify(
    cl: &mut crate::fsapi::Client<'_, Cffs>,
    rec: &mut Rec,
    files: &FlatFiles,
    dirs: &[Ino],
    i: usize,
    buf: &mut [u8],
) {
    cl.op_begin("lookup_read");
    let got = cl
        .lookup(dirs[i % dirs.len()], &files.names[i])
        .and_then(|ino| cl.read(ino, 0, buf));
    cl.op_end();
    match got {
        Ok(n) if buf[..n] == *files.payload(i) => {}
        Ok(_) => rec.fail(|| format!("{}: wrong bytes", files.names[i])),
        Err(e) => rec.fail(|| format!("{}: {e:?}", files.names[i])),
    }
    rec.op_done(cl.fs.now_ns());
}

/// `Err(NotFound)` and nothing else.
pub fn is_not_found<T>(r: &Result<T, FsError>) -> bool {
    matches!(r, Err(FsError::NotFound))
}

/// Inodes of up to 512 files of a [`FlatFiles`] population, for the
/// cache probe's block list.
pub fn probe_sample(fs: &Cffs, files: &FlatFiles, dirs: &[Ino]) -> Vec<Ino> {
    (0..files.names.len().min(512))
        .filter_map(|i| fs.lookup(dirs[i % dirs.len()], &files.names[i]).ok())
        .collect()
}
