//! `cold_read` — the paper's headline group-fetch path.
//!
//! 10 000 × 1 KB files in 100 directories (40 MB of blocks, more than the
//! 16 MB cache), populated with delayed metadata; round = `drop_caches`
//! (outside the window), then lookup + read + verify every file
//! round-robin over the directories (10 000 ops); pass = four rounds.
//!
//! *Why:* `cache.read_group` → 64 KB transfers, about 0.07 disk requests
//! per op; the working set is larger than the cache. It must **not** move
//! when metadata paths are tuned.

use super::{
    base_cfg, check_durable, fresh_cffs, lookup_read_verify, FlatFiles, Scale, Variant, Workload,
};
use crate::fsapi::{Client, Counts, Fs};
use crate::harness::{Bench, Rec};
use crate::trace::Tracer;
use cffs_core::Cffs;
use cffs_fslib::vfs::MetadataMode;
use cffs_fslib::Ino;

/// The workload's marker type.
pub struct ColdRead;

/// Cold sweeps in a pass: one sweep (10 000 ops) takes about 0.07 s on
/// the sizing box, under the method's 0.2 s floor. `drop_caches` runs
/// before every sweep, outside the window.
const ROUNDS_PER_PASS: usize = 4;

impl Workload for ColdRead {
    const NAME: &'static str = "cold_read";
    const KEPT_PASSES: usize = 3;
    const VS_CONVENTIONAL: bool = true;
    type Plan = FlatFiles;

    fn plan(seed: u64, scale: Scale) -> FlatFiles {
        FlatFiles::new(seed, scale.pick(100, 10), scale.pick(10_000, 400), 1024)
    }

    fn inputs_hash(plan: &FlatFiles) -> u64 {
        plan.inputs_hash()
    }

    fn build<'p>(plan: &'p FlatFiles, variant: Variant) -> Box<dyn Bench + 'p> {
        let fs = fresh_cffs(base_cfg(variant).with_mode(MetadataMode::Delayed));
        let free_at_mkfs = fs.free_blocks();
        let dirs = plan.mkdirs(&fs);
        plan.populate(&fs, &dirs);
        let space = (free_at_mkfs - fs.free_blocks(), plan.names.len() as u64);
        let mut b = State {
            plan,
            fs,
            dirs,
            space,
            buf: vec![0; plan.len + 1],
        };
        // Warming: one cold sweep, so no pass is the first of its kind.
        let mut scratch = Rec::new(plan.names.len(), 0);
        b.before_round();
        b.round(&mut Tracer::off(), &mut scratch);
        assert_eq!(
            scratch.failed, 0,
            "setup: warming pass failed: {:?}",
            scratch.notes
        );
        Box::new(b)
    }
}

struct State<'p> {
    plan: &'p FlatFiles,
    fs: Cffs,
    dirs: Vec<Ino>,
    space: (u64, u64),
    buf: Vec<u8>,
}

impl Bench for State<'_> {
    fn ops_per_pass(&self) -> usize {
        ROUNDS_PER_PASS * self.plan.names.len()
    }

    fn rounds_per_pass(&self) -> usize {
        ROUNDS_PER_PASS
    }

    fn before_round(&mut self) {
        self.fs.drop_caches().expect("drop_caches between passes");
    }

    fn round(&mut self, tr: &mut Tracer, rec: &mut Rec) {
        let mut cl = Client { fs: &self.fs, tr };
        rec.mark(cl.fs.now_ns());
        for i in 0..self.plan.names.len() {
            lookup_read_verify(&mut cl, rec, self.plan, &self.dirs, i, &mut self.buf);
        }
    }

    fn now_ns(&self) -> u64 {
        self.fs.now_ns()
    }

    fn counts(&self) -> Counts {
        Counts::take(&self.fs)
    }

    fn space(&self) -> (u64, u64) {
        self.space
    }

    fn cffs(&self) -> Option<&Cffs> {
        Some(&self.fs)
    }

    fn probe_files(&self) -> Vec<Ino> {
        super::probe_sample(&self.fs, self.plan, &self.dirs)
    }

    fn finish(&mut self, rec: &mut Rec) {
        check_durable(&self.fs, rec, |remounted, rec| {
            self.plan.verify_all(remounted, rec)
        });
    }
}
