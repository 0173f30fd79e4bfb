//! `meta_sync` — synchronous metadata, the write side.
//!
//! `CffsConfig::cffs()`; 5 000 × 1 KB files round-robin over 50
//! directories; cycle = create+write all, `sync`, unlink all, `sync`
//! (10 000 ops; the syncs are in the window but are not ops); pass = two
//! cycles.
//!
//! *Why:* one disk request per op, so the `driver` hand-off and `disksim`
//! service dominate host time and positioning dominates simulated time —
//! the paper's embedded-inode claim and the write side of everything
//! else.

use super::{base_cfg, check_durable, fresh_cffs, FlatFiles, Scale, Variant, Workload};
use crate::fsapi::{Client, Counts, Fs};
use crate::harness::{Bench, Rec};
use crate::trace::Tracer;
use cffs_core::{fsck, Cffs};
use cffs_fslib::Ino;

/// The workload's marker type.
pub struct MetaSync;

/// Create-all/unlink-all cycles in a pass: one cycle (10 000 ops) takes
/// about 0.13 s on the sizing box, under the method's 0.2 s floor.
const CYCLES_PER_PASS: usize = 2;

impl Workload for MetaSync {
    const NAME: &'static str = "meta_sync";
    const KEPT_PASSES: usize = 5;
    const VS_CONVENTIONAL: bool = true;
    const OBS_OVERHEAD: bool = true;
    type Plan = FlatFiles;

    fn plan(seed: u64, scale: Scale) -> FlatFiles {
        FlatFiles::new(seed, scale.pick(50, 5), scale.pick(5_000, 200), 1024)
    }

    fn inputs_hash(plan: &FlatFiles) -> u64 {
        plan.inputs_hash()
    }

    fn build<'p>(plan: &'p FlatFiles, variant: Variant) -> Box<dyn Bench + 'p> {
        let fs = fresh_cffs(base_cfg(variant));
        let free_at_mkfs = fs.free_blocks();
        let dirs = plan.mkdirs(&fs);
        let mut b = State {
            plan,
            fs,
            dirs,
            free_at_mkfs,
            space: (0, 0),
        };
        // Warming: one whole pass, which is also the moment of most live
        // files (after its create phase) for `space_kb_per_file`.
        let mut scratch = Rec::new(b.ops_per_pass(), 0);
        b.create_all(&mut Tracer::off(), &mut scratch);
        b.space = (b.free_at_mkfs - b.fs.free_blocks(), plan.names.len() as u64);
        b.unlink_all(&mut Tracer::off(), &mut scratch);
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
    free_at_mkfs: u64,
    space: (u64, u64),
}

impl State<'_> {
    fn create_all(&mut self, tr: &mut Tracer, rec: &mut Rec) {
        let mut cl = Client { fs: &self.fs, tr };
        rec.mark(cl.fs.now_ns());
        for (i, name) in self.plan.names.iter().enumerate() {
            let payload = self.plan.payload(i);
            cl.op_begin("create_write");
            let r = cl
                .create(self.dirs[i % self.dirs.len()], name)
                .and_then(|ino| cl.write(ino, 0, payload));
            cl.op_end();
            rec.check(matches!(r, Ok(n) if n == payload.len()), || {
                format!("create+write {name}: {r:?}")
            });
            rec.op_done(cl.fs.now_ns());
        }
        let r = cl.sync();
        rec.check(r.is_ok(), || format!("sync: {r:?}"));
    }

    fn unlink_all(&mut self, tr: &mut Tracer, rec: &mut Rec) {
        let mut cl = Client { fs: &self.fs, tr };
        rec.mark(cl.fs.now_ns());
        for (i, name) in self.plan.names.iter().enumerate() {
            cl.op_begin("unlink");
            let r = cl.unlink(self.dirs[i % self.dirs.len()], name);
            cl.op_end();
            rec.check(r.is_ok(), || format!("unlink {name}: {r:?}"));
            rec.op_done(cl.fs.now_ns());
        }
        let r = cl.sync();
        rec.check(r.is_ok(), || format!("sync: {r:?}"));
    }
}

impl Bench for State<'_> {
    fn ops_per_pass(&self) -> usize {
        CYCLES_PER_PASS * 2 * self.plan.names.len()
    }

    fn round(&mut self, tr: &mut Tracer, rec: &mut Rec) {
        for _ in 0..CYCLES_PER_PASS {
            self.create_all(tr, rec);
            self.unlink_all(tr, rec);
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

    /// Two crashes. First without a final sync: metadata is synchronous,
    /// so after `fsck` repair every acknowledged create must resolve.
    /// Then the common check: sync, fsck clean, remount, bytes identical.
    fn finish(&mut self, rec: &mut Rec) {
        let mut cl = Client {
            fs: &self.fs,
            tr: &mut Tracer::off(),
        };
        for (i, name) in self.plan.names.iter().enumerate() {
            let payload = self.plan.payload(i);
            rec.attempted += 1;
            let r = cl
                .create(self.dirs[i % self.dirs.len()], name)
                .and_then(|ino| cl.write(ino, 0, payload));
            rec.check(r.is_ok(), || format!("check: create+write {name}: {r:?}"));
        }
        let mut crashed = self.fs.crash_image();
        rec.attempted += 1;
        match fsck(&mut crashed, true).and_then(|_| Cffs::mount(crashed, self.fs.config().clone()))
        {
            Ok(repaired) => {
                let dirs = super::resolve_dirs(&repaired, rec, &self.plan.dirs);
                for (i, name) in self.plan.names.iter().enumerate() {
                    rec.attempted += 1;
                    let r = repaired.lookup(dirs[i % dirs.len()], name);
                    rec.check(r.is_ok(), || {
                        format!("check: acknowledged create {name} lost in crash: {r:?}")
                    });
                }
            }
            Err(e) => rec
                .fail(|| format!("check: fsck repair / mount of the unsynced crash image: {e:?}")),
        }
        check_durable(&self.fs, rec, |remounted, rec| {
            self.plan.verify_all(remounted, rec)
        });
    }
}
