//! `namei_warm` — name resolution out of the dcache.
//!
//! A 16 × 16 × 256 namespace-only tree (65 536 empty files) on
//! `CffsConfig::cffs().with_dcache(32768)`; 8 192 seeded three-component
//! paths, every 8th with an absent leaf (expected `NotFound`); op = three
//! `lookup`s + one `getattr` (of the leaf, or of its directory when the
//! leaf is absent); one warming sweep; pass = 10 sweeps (81 920 ops).
//!
//! *Why:* `dcache` positive and negative probes do the work and the
//! buffer cache is nearly bypassed — the harness on which any path index
//! must beat the dcache in host cost.

use super::{base_cfg, check_durable, fresh_cffs, is_not_found, Scale, Variant, Workload};
use crate::fsapi::{Client, Counts, Fs};
use crate::gen::{self, Rng};
use crate::harness::{Bench, Rec};
use crate::probes::DcacheStream;
use crate::trace::Tracer;
use cffs_core::Cffs;
use cffs_fslib::{FileKind, Ino};

/// The workload's marker type.
pub struct NameiWarm;

const SWEEPS_PER_PASS: usize = 10;
/// Namespace-cache capacity, entries.
pub const DCACHE_ENTRIES: usize = 32_768;

/// One path: level-1 directory, level-2 directory, and the leaf.
struct Path {
    a: usize,
    b: usize,
    /// Index of an existing file in the leaf directory, or the name of
    /// one that does not exist.
    leaf: Result<usize, String>,
}

/// Generated inputs.
pub struct Plan {
    fanout: usize,
    files_per_dir: usize,
    l1: Vec<String>,
    /// `l2[a * fanout + b]`.
    l2: Vec<String>,
    /// `files[(a * fanout + b) * files_per_dir + k]`.
    files: Vec<String>,
    paths: Vec<Path>,
}

impl Workload for NameiWarm {
    const NAME: &'static str = "namei_warm";
    const KEPT_PASSES: usize = 2;
    const EXPECT_NO_DISK: bool = true;
    type Plan = Plan;

    fn plan(seed: u64, scale: Scale) -> Plan {
        let mut rng = Rng::new(seed);
        let fanout = scale.pick(16, 3);
        let files_per_dir = scale.pick(256, 12);
        let l1 = gen::names(&mut rng, 'a', fanout);
        let l2 = gen::names(&mut rng, 'b', fanout * fanout);
        let files = gen::names(&mut rng, 'f', fanout * fanout * files_per_dir);
        let paths = (0..scale.pick(8_192, 96))
            .map(|i| Path {
                a: rng.below(fanout as u64) as usize,
                b: rng.below(fanout as u64) as usize,
                leaf: if i % 8 == 7 {
                    Err(gen::name(&mut rng, 'x', i))
                } else {
                    Ok(rng.below(files_per_dir as u64) as usize)
                },
            })
            .collect();
        Plan {
            fanout,
            files_per_dir,
            l1,
            l2,
            files,
            paths,
        }
    }

    fn inputs_hash(plan: &Plan) -> u64 {
        let mut h = gen::Fnv::default();
        h.strs(&plan.l1).strs(&plan.l2).strs(&plan.files);
        for p in &plan.paths {
            h.nums([
                p.a as u64,
                p.b as u64,
                *p.leaf.as_ref().unwrap_or(&usize::MAX) as u64,
            ]);
            h.bytes(
                p.leaf
                    .as_ref()
                    .err()
                    .map_or(&[][..], |absent| absent.as_bytes()),
            );
        }
        h.0
    }

    fn build<'p>(plan: &'p Plan, variant: Variant) -> Box<dyn Bench + 'p> {
        let fs = fresh_cffs(base_cfg(variant).with_dcache(DCACHE_ENTRIES));
        let free_at_mkfs = fs.free_blocks();
        let mut l1 = Vec::with_capacity(plan.fanout);
        let mut l2 = Vec::with_capacity(plan.l2.len());
        for (a, name) in plan.l1.iter().enumerate() {
            l1.push(fs.mkdir(fs.root(), name).expect("setup: mkdir"));
            for b in 0..plan.fanout {
                let d = fs
                    .mkdir(l1[a], &plan.l2[a * plan.fanout + b])
                    .expect("setup: mkdir");
                for k in 0..plan.files_per_dir {
                    fs.create(d, plan.leaf_name(a, b, k))
                        .expect("setup: create");
                }
                l2.push(d);
            }
        }
        fs.sync().expect("setup: sync");
        let space = (free_at_mkfs - fs.free_blocks(), plan.files.len() as u64);
        let mut b = State {
            plan,
            fs,
            l1,
            l2,
            space,
        };
        let mut scratch = Rec::new(plan.paths.len(), 0);
        b.sweep(&mut Tracer::off(), &mut scratch);
        assert_eq!(
            scratch.failed, 0,
            "setup: warming sweep failed: {:?}",
            scratch.notes
        );
        Box::new(b)
    }
}

impl Plan {
    fn leaf_name(&self, a: usize, b: usize, k: usize) -> &str {
        &self.files[(a * self.fanout + b) * self.files_per_dir + k]
    }
}

struct State<'p> {
    plan: &'p Plan,
    fs: Cffs,
    l1: Vec<Ino>,
    l2: Vec<Ino>,
    space: (u64, u64),
}

impl State<'_> {
    fn sweep(&mut self, tr: &mut Tracer, rec: &mut Rec) {
        let plan = self.plan;
        let mut cl = Client { fs: &self.fs, tr };
        let root = cl.fs.root();
        rec.mark(cl.fs.now_ns());
        for p in &plan.paths {
            cl.op_begin("resolve");
            let dir = cl
                .lookup(root, &plan.l1[p.a])
                .and_then(|a| cl.lookup(a, &plan.l2[p.a * plan.fanout + p.b]));
            let ok = match (&dir, &p.leaf) {
                (Ok(d), Ok(k)) => cl
                    .lookup(*d, plan.leaf_name(p.a, p.b, *k))
                    .and_then(|f| cl.getattr(f))
                    .is_ok_and(|attr| attr.kind == FileKind::File && attr.size == 0),
                (Ok(d), Err(absent)) => {
                    is_not_found(&cl.lookup(*d, absent))
                        && cl.getattr(*d).is_ok_and(|attr| attr.kind == FileKind::Dir)
                }
                (Err(_), _) => false,
            };
            cl.op_end();
            rec.check(ok, || {
                format!("resolve {}/{}/{:?}: {dir:?}", plan.l1[p.a], p.b, p.leaf)
            });
            rec.op_done(cl.fs.now_ns());
        }
    }
}

impl Bench for State<'_> {
    fn ops_per_pass(&self) -> usize {
        SWEEPS_PER_PASS * self.plan.paths.len()
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

    fn dcache_stream(&self) -> Option<DcacheStream<'_>> {
        let plan = self.plan;
        let root = self.fs.root();
        // The probe needs the keys, not the values: the population's
        // inode numbers are stood in for by the slot index.
        let mut prefill = Vec::with_capacity(plan.files.len());
        for ab in 0..plan.l2.len() {
            for k in 0..plan.files_per_dir {
                let slot = ab * plan.files_per_dir + k;
                prefill.push((self.l2[ab], plan.files[slot].as_str(), slot as Ino));
            }
        }
        let mut probes = Vec::with_capacity(3 * plan.paths.len());
        for p in &plan.paths {
            let ab = p.a * plan.fanout + p.b;
            probes.push((root, plan.l1[p.a].as_str(), Some(self.l1[p.a])));
            probes.push((self.l1[p.a], plan.l2[ab].as_str(), Some(self.l2[ab])));
            probes.push(match &p.leaf {
                Ok(k) => (
                    self.l2[ab],
                    plan.leaf_name(p.a, p.b, *k),
                    Some((ab * plan.files_per_dir + k) as Ino),
                ),
                Err(absent) => (self.l2[ab], absent.as_str(), None),
            });
        }
        Some(DcacheStream {
            capacity: DCACHE_ENTRIES,
            prefill,
            probes,
        })
    }

    /// Every file of the tree resolves, empty, on the remounted image.
    fn finish(&mut self, rec: &mut Rec) {
        let plan = self.plan;
        check_durable(&self.fs, rec, |fs, rec| {
            for a in 0..plan.fanout {
                for b in 0..plan.fanout {
                    let dir = fs
                        .lookup(fs.root(), &plan.l1[a])
                        .and_then(|d| fs.lookup(d, &plan.l2[a * plan.fanout + b]));
                    for k in 0..plan.files_per_dir {
                        rec.attempted += 1;
                        let attr = dir
                            .clone()
                            .and_then(|d| fs.lookup(d, plan.leaf_name(a, b, k)))
                            .and_then(|f| fs.getattr(f));
                        rec.check(
                            attr.as_ref()
                                .is_ok_and(|at| at.kind == FileKind::File && at.size == 0),
                            || format!("check: {}: {attr:?}", plan.leaf_name(a, b, k)),
                        );
                    }
                }
            }
        });
    }
}
