//! `warm_read` — everything in the cache, dcache off.
//!
//! 2 000 × 1 KB files in 20 directories (fits the cache); one warming
//! sweep; pass = 40 sweeps of lookup + read + verify (80 000 ops).
//!
//! *Why:* zero disk requests, so `cache` hits and `core` dirent scans are
//! all the work and `driver`/`disksim` do none — where the block-clone,
//! hasher and scan costs show and where a driver change must show
//! nothing.

use super::{
    base_cfg, check_durable, fresh_cffs, lookup_read_verify, FlatFiles, Scale, Variant, Workload,
};
use crate::fsapi::{Client, Counts, Fs};
use crate::harness::{Bench, Rec};
use crate::trace::Tracer;
use cffs_core::Cffs;
use cffs_fslib::Ino;

/// The workload's marker type.
pub struct WarmRead;

const SWEEPS_PER_PASS: usize = 40;

impl Workload for WarmRead {
    const NAME: &'static str = "warm_read";
    const KEPT_PASSES: usize = 2;
    const EXPECT_NO_DISK: bool = true;
    const OBS_OVERHEAD: bool = true;
    type Plan = FlatFiles;

    fn plan(seed: u64, scale: Scale) -> FlatFiles {
        FlatFiles::new(seed, scale.pick(20, 4), scale.pick(2_000, 100), 1024)
    }

    fn inputs_hash(plan: &FlatFiles) -> u64 {
        plan.inputs_hash()
    }

    fn build<'p>(plan: &'p FlatFiles, variant: Variant) -> Box<dyn Bench + 'p> {
        let fs = fresh_cffs(base_cfg(variant));
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
        let mut scratch = Rec::new(plan.names.len(), 0);
        b.sweep(&mut Tracer::off(), &mut scratch);
        assert_eq!(
            scratch.failed, 0,
            "setup: warming sweep failed: {:?}",
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

impl State<'_> {
    fn sweep(&mut self, tr: &mut Tracer, rec: &mut Rec) {
        let mut cl = Client { fs: &self.fs, tr };
        rec.mark(cl.fs.now_ns());
        for i in 0..self.plan.names.len() {
            lookup_read_verify(&mut cl, rec, self.plan, &self.dirs, i, &mut self.buf);
        }
    }
}

impl Bench for State<'_> {
    fn ops_per_pass(&self) -> usize {
        SWEEPS_PER_PASS * self.plan.names.len()
    }

    fn round(&mut self, tr: &mut Tracer, rec: &mut Rec) {
        for _ in 0..SWEEPS_PER_PASS {
            self.sweep(tr, rec);
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
