//! `volume_stripe` — the only user of the `volume` layer.
//!
//! A `VolumeSet` of 2 disks, default 64 KB stripe threshold, one client;
//! 64 directories × 16 × 4 KB files plus a 256 KB `big` in every 4th
//! directory; session = Zipf(0.9) directory, then 8 × {resolve by full
//! path, then read 59 % / overwrite 20 % / whole `big` read 20 % /
//! `sync` 1 %}; `drop_caches_all` before each pass (outside the window);
//! pass = 2 000 sessions (16 000 ops).
//!
//! *Why:* `volume` fan-out, `by_path` `String` keys and striped reads are
//! used by nothing else, so that layer's cost and gains are isolated
//! here. The stream is generic over its target so the traced run can
//! replay it on a bare `Cffs` and on a 1-volume set: the volume overhead
//! and `volume.sim_scaling_2v` are differences between those runs.

use super::{check_durable, fresh_cffs, resolve_dirs, verify_file, Scale, Variant, Workload};
use crate::fsapi::{Client, Counts, Fs};
use crate::gen::{self, Rng, Tape, Zipf};
use crate::harness::{Bench, Rec};
use crate::trace::Tracer;
use cffs_core::{fsck, Cffs, CffsConfig};
use cffs_disksim::{models, Disk};
use cffs_fslib::Ino;
use cffs_volume::{VolumeCfg, VolumeSet};

/// The workload's marker type.
pub struct VolumeStripe;

const SMALL_LEN: usize = 4096;
const BIG_LEN: usize = 256 * 1024;
const BIG_NAME: &str = "big";
const OPS_PER_SESSION: usize = 8;

/// Generated inputs; the session stream is generated pass by pass,
/// outside the window, from `stream_seed`.
pub struct Plan {
    dirs: Vec<String>,
    files_per_dir: usize,
    /// `files[d * files_per_dir + k]`.
    files: Vec<String>,
    /// Initial content of each small file.
    offs: Vec<u32>,
    /// Content of the `big` of directory `4 * j`.
    big_offs: Vec<u32>,
    tape: Tape,
    zipf: Zipf,
    sessions_per_pass: usize,
    stream_seed: u64,
}

impl Workload for VolumeStripe {
    const NAME: &'static str = "volume_stripe";
    const KEPT_PASSES: usize = 8;
    const VOLUME_TWINS: bool = true;
    type Plan = Plan;

    fn plan(seed: u64, scale: Scale) -> Plan {
        let mut rng = Rng::new(seed);
        let tape = Tape::new(&mut rng.fork());
        let ndirs = scale.pick(64, 8);
        let files_per_dir = scale.pick(16, 4);
        Plan {
            // Directory names are fixed and Zipf rank k is directory k: a
            // directory's home volume is a hash of its path, so seeded
            // names would decide per seed whether the hot directories
            // share a spindle (simulated throughput then moved ±10 %
            // from seed to seed). The seed drives file names, contents
            // and the session stream.
            dirs: (0..ndirs).map(|d| format!("dir{d:02}")).collect(),
            files_per_dir,
            files: gen::names(&mut rng, 'f', ndirs * files_per_dir),
            offs: (0..ndirs * files_per_dir)
                .map(|_| Tape::start(&mut rng))
                .collect(),
            big_offs: (0..ndirs.div_ceil(4))
                .map(|_| Tape::start(&mut rng))
                .collect(),
            tape,
            zipf: Zipf::new(ndirs, 0.9),
            sessions_per_pass: scale.pick(2_000, 40),
            stream_seed: rng.next_u64(),
        }
    }

    fn inputs_hash(plan: &Plan) -> u64 {
        let mut h = gen::Fnv::default();
        h.strs(&plan.dirs).strs(&plan.files);
        h.nums(plan.offs.iter().chain(&plan.big_offs).map(|&o| o as u64));
        h.nums([plan.stream_seed]);
        h.0
    }

    fn build<'p>(plan: &'p Plan, variant: Variant) -> Box<dyn Bench + 'p> {
        match variant {
            Variant::Main => State::build(plan, volume_set(2)),
            Variant::OneVolume => State::build(plan, volume_set(1)),
            Variant::BareCffs | Variant::Conventional => {
                State::build(plan, fresh_cffs(CffsConfig::cffs()))
            }
        }
    }

    fn lock_wait_share_2t(plan: &Plan, unpinned: Option<&crate::pin::CpuSet>) -> Option<f64> {
        Some(lock_wait_share_2t(plan, unpinned))
    }
}

fn volume_set(ndisks: usize) -> VolumeSet {
    let disks = (0..ndisks)
        .map(|_| Disk::new(models::seagate_st31200()))
        .collect();
    VolumeSet::format(disks, VolumeCfg::new(CffsConfig::cffs())).expect("setup: format volume set")
}

fn populate<F: Fs>(fs: &F, plan: &Plan) {
    let root = fs.root();
    for (d, dname) in plan.dirs.iter().enumerate() {
        let dir = fs.mkdir(root, dname).expect("setup: mkdir");
        for k in 0..plan.files_per_dir {
            let i = d * plan.files_per_dir + k;
            let ino = fs.create(dir, &plan.files[i]).expect("setup: create");
            fs.write(ino, 0, plan.tape.slice(plan.offs[i], SMALL_LEN))
                .expect("setup: write");
        }
        if d % 4 == 0 {
            let ino = fs.create(dir, BIG_NAME).expect("setup: create big");
            fs.write(ino, 0, plan.tape.slice(plan.big_offs[d / 4], BIG_LEN))
                .expect("setup: write big");
        }
    }
    fs.sync().expect("setup: sync");
}

/// Append `sessions` sessions to `out`, moving `offs` to the content each
/// overwritten file will then hold.
fn gen_ops(plan: &Plan, rng: &mut Rng, offs: &mut [u32], sessions: usize, out: &mut Vec<Op>) {
    for _ in 0..sessions {
        let dir = plan.zipf.sample(rng) as u16;
        for _ in 0..OPS_PER_SESSION {
            let file = rng.below(plan.files_per_dir as u64) as u16;
            let i = dir as usize * plan.files_per_dir + file as usize;
            let action = match rng.below(100) {
                0..=58 => Action::Read { off: offs[i] },
                59..=78 => {
                    offs[i] = Tape::start(rng);
                    Action::Overwrite { new_off: offs[i] }
                }
                79..=98 => Action::ReadBig,
                _ => Action::Sync,
            };
            out.push(Op { dir, file, action });
        }
    }
}

/// One op: resolve the full path from the root, then act. With `verify`
/// unset (the two-client replay, where the other client may overwrite)
/// read bytes are not compared.
#[inline]
fn exec<F: Fs>(cl: &mut Client<'_, F>, plan: &Plan, op: &Op, buf: &mut [u8], verify: bool) -> bool {
    // `big` lives in every 4th directory: use the one at or below.
    let (d, name) = match op.action {
        Action::ReadBig => (op.dir as usize / 4 * 4, BIG_NAME),
        _ => (
            op.dir as usize,
            plan.files[op.dir as usize * plan.files_per_dir + op.file as usize].as_str(),
        ),
    };
    cl.op_begin(match op.action {
        Action::Read { .. } => "resolve_read",
        Action::Overwrite { .. } => "resolve_overwrite",
        Action::ReadBig => "resolve_read_big",
        Action::Sync => "resolve_sync",
    });
    let root = cl.fs.root();
    let ino = cl
        .lookup(root, &plan.dirs[d])
        .and_then(|dir| cl.lookup(dir, name));
    let ok = match (ino, op.action) {
        (Ok(ino), Action::Read { off }) => {
            let buf = &mut buf[..SMALL_LEN + 1];
            matches!(cl.read(ino, 0, buf), Ok(n) if !verify || buf[..n] == *plan.tape.slice(off, SMALL_LEN))
        }
        (Ok(ino), Action::Overwrite { new_off }) => {
            matches!(
                cl.write(ino, 0, plan.tape.slice(new_off, SMALL_LEN)),
                Ok(SMALL_LEN)
            )
        }
        (Ok(ino), Action::ReadBig) => {
            matches!(cl.read(ino, 0, buf), Ok(n) if buf[..n] == *plan.tape.slice(plan.big_offs[d / 4], BIG_LEN))
        }
        (Ok(_), Action::Sync) => cl.sync().is_ok(),
        (Err(_), _) => false,
    };
    cl.op_end();
    ok
}

/// `volume.lock_wait_share_2t`: two unpinned clients replay a quarter
/// pass each on one 2-volume set; host ns spent waiting on the stack's
/// locks ÷ (host window × 2 clients). Informational: on two shared vCPUs
/// with a driver thread per disk it does not repeat. Runs in a thread of
/// its own so the set's driver threads inherit the unpinned mask.
fn lock_wait_share_2t(plan: &Plan, unpinned: Option<&crate::pin::CpuSet>) -> f64 {
    std::thread::scope(|outer| {
        let replay = outer.spawn(|| {
            if let Some(mask) = unpinned {
                crate::pin::unpin(mask);
            }
            let fs = volume_set(2);
            populate(&fs, plan);
            let mut offs = plan.offs.clone();
            let streams: Vec<Vec<Op>> = (1..=2u64)
                .map(|client| {
                    let mut ops = Vec::new();
                    gen_ops(
                        plan,
                        &mut Rng::new(plan.stream_seed ^ client),
                        &mut offs,
                        plan.sessions_per_pass / 4,
                        &mut ops,
                    );
                    ops
                })
                .collect();
            let waited = Counts::take(&fs).lock_wait_ns;
            let t0 = std::time::Instant::now();
            std::thread::scope(|clients| {
                for ops in &streams {
                    let fs = &fs;
                    clients.spawn(move || {
                        let mut buf = vec![0u8; BIG_LEN + 1];
                        let mut cl = Client {
                            fs,
                            tr: &mut Tracer::off(),
                        };
                        for op in ops {
                            exec(&mut cl, plan, op, &mut buf, false);
                        }
                    });
                }
            });
            let window_ns = t0.elapsed().as_nanos() as f64;
            (Counts::take(&fs).lock_wait_ns - waited) as f64 / (2.0 * window_ns)
        });
        replay.join().expect("two-client replay thread panicked")
    })
}

#[derive(Clone, Copy)]
enum Action {
    Read { off: u32 },
    Overwrite { new_off: u32 },
    ReadBig,
    Sync,
}

#[derive(Clone, Copy)]
struct Op {
    dir: u16,
    file: u16,
    action: Action,
}

/// A target the stream runs on, with its own durability check.
trait Target: Fs + Sized {
    fn check(&self, plan: &Plan, offs: &[u32], rec: &mut Rec);
    fn as_cffs(&self) -> Option<&Cffs> {
        None
    }
}

struct State<'p, T: Target> {
    plan: &'p Plan,
    fs: T,
    /// Current content of each small file.
    offs: Vec<u32>,
    rng: Rng,
    ops: Vec<Op>,
    space: (u64, u64),
    buf: Vec<u8>,
}

impl<'p, T: Target + 'p> State<'p, T> {
    fn build(plan: &'p Plan, fs: T) -> Box<dyn Bench + 'p> {
        let free_at_format = fs.free_blocks();
        populate(&fs, plan);
        let live = (plan.files.len() + plan.big_offs.len()) as u64;
        let mut b = State {
            plan,
            offs: plan.offs.clone(),
            rng: Rng::new(plan.stream_seed),
            ops: Vec::with_capacity(plan.sessions_per_pass * OPS_PER_SESSION),
            space: (free_at_format - fs.free_blocks(), live),
            buf: vec![0; BIG_LEN + 1],
            fs,
        };
        let mut scratch = Rec::new(b.ops_per_pass(), 0);
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

impl<T: Target> Bench for State<'_, T> {
    fn ops_per_pass(&self) -> usize {
        self.plan.sessions_per_pass * OPS_PER_SESSION
    }

    fn before_round(&mut self) {
        self.ops.clear();
        gen_ops(
            self.plan,
            &mut self.rng,
            &mut self.offs,
            self.plan.sessions_per_pass,
            &mut self.ops,
        );
        self.fs.drop_caches().expect("drop_caches between passes");
    }

    fn round(&mut self, tr: &mut Tracer, rec: &mut Rec) {
        let mut cl = Client { fs: &self.fs, tr };
        rec.mark(cl.fs.now_ns());
        for op in &self.ops {
            let ok = exec(&mut cl, self.plan, op, &mut self.buf, true);
            rec.check(ok, || {
                format!(
                    "{}: op on file {} failed or read wrong bytes",
                    self.plan.dirs[op.dir as usize], op.file
                )
            });
            rec.op_done(cl.fs.now_ns());
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
        self.fs.as_cffs()
    }

    fn requests_per_disk(&self) -> Vec<u64> {
        self.fs
            .registries()
            .iter()
            .map(|obs| obs.get(cffs_obs::Ctr::DiskRequests))
            .collect()
    }

    fn probe_files(&self) -> Vec<Ino> {
        let Some(fs) = self.fs.as_cffs() else {
            return Vec::new();
        };
        let plan = self.plan;
        (0..plan.files.len().min(512))
            .filter_map(|i| {
                let dir = fs
                    .lookup(fs.root(), &plan.dirs[i / plan.files_per_dir])
                    .ok()?;
                fs.lookup(dir, &plan.files[i]).ok()
            })
            .collect()
    }

    fn finish(&mut self, rec: &mut Rec) {
        self.fs.check(self.plan, &self.offs, rec);
    }
}

/// Every small file and every `big` of `plan` is byte-identical on `fs`.
fn verify_tree<F: Fs>(fs: &F, plan: &Plan, offs: &[u32], rec: &mut Rec) {
    let dirs = resolve_dirs(fs, rec, &plan.dirs);
    let mut buf = Vec::new();
    for (i, name) in plan.files.iter().enumerate() {
        verify_file(
            fs,
            rec,
            dirs[i / plan.files_per_dir],
            name,
            plan.tape.slice(offs[i], SMALL_LEN),
            &mut buf,
        );
    }
    for (j, &off) in plan.big_offs.iter().enumerate() {
        verify_file(
            fs,
            rec,
            dirs[4 * j],
            BIG_NAME,
            plan.tape.slice(off, BIG_LEN),
            &mut buf,
        );
    }
}

impl Target for Cffs {
    fn check(&self, plan: &Plan, offs: &[u32], rec: &mut Rec) {
        check_durable(self, rec, |remounted, rec| {
            verify_tree(remounted, plan, offs, rec)
        });
    }

    fn as_cffs(&self) -> Option<&Cffs> {
        Some(self)
    }
}

impl Target for VolumeSet {
    /// A set cannot be remounted (its stripe registry is in memory), so:
    /// sync; every volume's crash image is fsck-clean; remounted as bare
    /// `Cffs` volumes, each small file is byte-identical on exactly one
    /// of them (its directory's home); and the live set, caches dropped,
    /// reads every file — the striped ones included — back from disk.
    fn check(&self, plan: &Plan, offs: &[u32], rec: &mut Rec) {
        rec.attempted += 1;
        if let Err(e) = Fs::sync(self) {
            return rec.fail(|| format!("check: final sync: {e:?}"));
        }
        let mut volumes = Vec::new();
        for (v, mut image) in self.crash_images().into_iter().enumerate() {
            rec.attempted += 1;
            match fsck(&mut image, false) {
                Ok(report) if report.clean() => match Cffs::mount(image, self.cfg().fs.clone()) {
                    Ok(fs) => volumes.push(fs),
                    Err(e) => rec.fail(|| format!("check: remount volume {v}: {e:?}")),
                },
                Ok(report) => rec.fail(|| format!("check: fsck volume {v}: {:?}", report.errors)),
                Err(e) => rec.fail(|| format!("check: fsck volume {v}: {e:?}")),
            }
        }
        let mut buf = vec![0u8; SMALL_LEN + 1];
        for (i, name) in plan.files.iter().enumerate() {
            rec.attempted += 1;
            let expect = plan.tape.slice(offs[i], SMALL_LEN);
            let homes = volumes
                .iter()
                .filter(|fs| {
                    let ino = fs
                        .lookup(fs.root(), &plan.dirs[i / plan.files_per_dir])
                        .and_then(|dir| fs.lookup(dir, name));
                    matches!(ino.and_then(|ino| fs.read(ino, 0, &mut buf)), Ok(n) if buf[..n] == *expect)
                })
                .count();
            rec.check(homes == 1, || {
                format!("check: {name} is byte-identical on {homes} volumes, not 1")
            });
        }
        drop(volumes);
        rec.attempted += 1;
        match self.drop_caches_all() {
            Ok(()) => verify_tree(self, plan, offs, rec),
            Err(e) => rec.fail(|| format!("check: drop_caches_all: {e:?}")),
        }
    }
}
