//! `churn_softdep` — the same layers used the other way.
//!
//! Delayed metadata (the paper's soft-updates emulation); a pool of
//! 2 500 files of 0.5–10 KB over 50 directories (~13 MB live, about the
//! cache size); transaction = {create | delete} + {whole read | append}
//! on seeded files (two ops); pass = 8 000 transactions, then `sync`.
//!
//! Both coins are mean-reverting, so the live set stays where the
//! workload is defined — about 2 500 files, about the cache size —
//! instead of random-walking away from it: with fair coins one seed's
//! simulated pass time wandered between 128 and 200 s. New files are
//! 0.5–6 KB and grow by 0.5–6 KB appends to the pool's 5.25 KB mean.
//!
//! *Why:* writes beside reads, continuous eviction, write-back
//! coalescing, degrouping, and only about a third of group-fetched
//! blocks used (E12's 0.81×) — the workload a demand-aware group read
//! should move while `cold_read` stays put. The traced run ends with one
//! `cffs_regroup::run` for the background-work numbers.

use super::{
    base_cfg, check_durable, fresh_cffs, resolve_dirs, verify_file, Scale, Variant, Workload,
};
use crate::fsapi::{Client, Counts, Fs};
use crate::gen::{self, Rng, Tape};
use crate::harness::{Bench, Rec, RegroupTail};
use crate::trace::Tracer;
use cffs_core::Cffs;
use cffs_fslib::vfs::MetadataMode;
use cffs_fslib::Ino;
use cffs_regroup::RegroupConfig;
use std::time::Instant;

/// The workload's marker type.
pub struct ChurnSoftdep;

/// Files never grow past this (appends that would are reads instead).
const MAX_LEN: u32 = 192 * 1024;
const MIN_CHUNK: u64 = 512;
/// Largest file of the initial pool.
const MAX_INITIAL: u64 = 10 * 1024;
/// Largest new file and largest append.
const MAX_CHUNK: u64 = 6 * 1024;
/// Mean file size the pool is held at, bytes.
const MEAN_LEN: u64 = (MIN_CHUNK + MAX_INITIAL) / 2;
/// Distance from the target at which a coin becomes certain: live files
/// for create/delete, live bytes for read/append.
const FILES_SLACK: f64 = 64.0;
const BYTES_SLACK: f64 = 256.0 * 1024.0;

/// Generated inputs. The transaction stream itself is generated pass by
/// pass, outside the window, from `stream_seed` and the model of which
/// files are live; it never looks at what the file system returned.
pub struct Plan {
    dirs: Vec<String>,
    /// Slot `i` is a file name in directory `i % dirs.len()`.
    slots: Vec<String>,
    tape: Tape,
    initial_live: usize,
    tx_per_pass: usize,
    stream_seed: u64,
}

impl Workload for ChurnSoftdep {
    const NAME: &'static str = "churn_softdep";
    const KEPT_PASSES: usize = 8;
    const VS_CONVENTIONAL: bool = true;
    type Plan = Plan;

    fn plan(seed: u64, scale: Scale) -> Plan {
        let mut rng = Rng::new(seed);
        let tape = Tape::new(&mut rng.fork());
        let initial_live = scale.pick(2_500, 100);
        Plan {
            dirs: gen::names(&mut rng, 'd', scale.pick(50, 5)),
            slots: gen::names(&mut rng, 'f', initial_live + initial_live / 5),
            tape,
            initial_live,
            tx_per_pass: scale.pick(8_000, 200),
            stream_seed: rng.next_u64(),
        }
    }

    fn inputs_hash(plan: &Plan) -> u64 {
        let mut h = gen::Fnv::default();
        h.strs(&plan.dirs)
            .strs(&plan.slots)
            .nums([plan.stream_seed]);
        h.0
    }

    fn build<'p>(plan: &'p Plan, variant: Variant) -> Box<dyn Bench + 'p> {
        let fs = fresh_cffs(base_cfg(variant).with_mode(MetadataMode::Delayed));
        let free_at_mkfs = fs.free_blocks();
        let dirs: Vec<Ino> = plan
            .dirs
            .iter()
            .map(|d| fs.mkdir(fs.root(), d).expect("setup: mkdir"))
            .collect();
        let mut rng = Rng::new(plan.stream_seed);
        let mut model = Model {
            files: vec![None; plan.slots.len()],
            live: Vec::new(),
            dead: Vec::new(),
            live_bytes: 0,
        };
        for slot in 0..plan.slots.len() as u32 {
            if (slot as usize) < plan.initial_live {
                let (off, len) = (
                    Tape::start(&mut rng),
                    rng.range(MIN_CHUNK, MAX_INITIAL) as u32,
                );
                model.live_bytes += len as u64;
                let ino = fs
                    .create(dirs[slot as usize % dirs.len()], &plan.slots[slot as usize])
                    .expect("setup: create");
                fs.write(ino, 0, plan.tape.slice(off, len as usize))
                    .expect("setup: write");
                model.files[slot as usize] = Some((off, len));
                model.live.push(slot);
            } else {
                model.dead.push(slot);
            }
        }
        fs.sync().expect("setup: sync");
        let mut b = State {
            plan,
            fs,
            dirs,
            model,
            rng,
            txs: Vec::with_capacity(plan.tx_per_pass),
            free_at_mkfs,
            space: (0, 0),
            buf: vec![0; MAX_LEN as usize + 1],
        };
        // Warming: one pass, so the cache and the free-slot mix are in
        // their steady state when the window opens.
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

/// Which slots hold a file, and its `(tape offset, length)`.
struct Model {
    files: Vec<Option<(u32, u32)>>,
    live: Vec<u32>,
    dead: Vec<u32>,
    live_bytes: u64,
}

/// A coin that lands `true` with probability 1/2 when `have == want`,
/// rising to 1 as `have` falls `slack` below `want` (and falling to 0 the
/// other way).
fn reverting_coin(rng: &mut Rng, want: f64, have: f64, slack: f64) -> bool {
    rng.unit() < 0.5 + (want - have) / (2.0 * slack)
}

#[derive(Clone, Copy)]
enum First {
    Create { slot: u32, off: u32, len: u32 },
    Delete { slot: u32 },
}

#[derive(Clone, Copy)]
enum Second {
    Read {
        slot: u32,
        off: u32,
        len: u32,
    },
    /// Append `tape[off + at..][..add]` at file offset `at`.
    Append {
        slot: u32,
        off: u32,
        at: u32,
        add: u32,
    },
}

struct State<'p> {
    plan: &'p Plan,
    fs: Cffs,
    dirs: Vec<Ino>,
    model: Model,
    rng: Rng,
    txs: Vec<(First, Second)>,
    free_at_mkfs: u64,
    space: (u64, u64),
    buf: Vec<u8>,
}

impl State<'_> {
    fn next_tx(&mut self) -> (First, Second) {
        let (m, rng) = (&mut self.model, &mut self.rng);
        let want_files = self.plan.initial_live as f64;
        let create =
            !m.dead.is_empty() && reverting_coin(rng, want_files, m.live.len() as f64, FILES_SLACK);
        let first = if create || m.live.len() < 2 {
            let slot = m.dead.swap_remove(rng.below(m.dead.len() as u64) as usize);
            let (off, len) = (Tape::start(rng), rng.range(MIN_CHUNK, MAX_CHUNK) as u32);
            m.files[slot as usize] = Some((off, len));
            m.live.push(slot);
            m.live_bytes += len as u64;
            First::Create { slot, off, len }
        } else {
            let slot = m.live.swap_remove(rng.below(m.live.len() as u64) as usize);
            m.live_bytes -= m.files[slot as usize]
                .take()
                .expect("live slot has a file")
                .1 as u64;
            m.dead.push(slot);
            First::Delete { slot }
        };
        let slot = m.live[rng.below(m.live.len() as u64) as usize];
        let (off, len) = m.files[slot as usize].expect("live slot has a file");
        let add = rng.range(MIN_CHUNK, MAX_CHUNK) as u32;
        let want_bytes = want_files * MEAN_LEN as f64;
        let append = reverting_coin(rng, want_bytes, m.live_bytes as f64, BYTES_SLACK)
            && len + add <= MAX_LEN;
        let second = if append {
            m.files[slot as usize] = Some((off, len + add));
            m.live_bytes += add as u64;
            Second::Append {
                slot,
                off,
                at: len,
                add,
            }
        } else {
            Second::Read { slot, off, len }
        };
        (first, second)
    }

    fn dir_of(&self, slot: u32) -> Ino {
        self.dirs[slot as usize % self.dirs.len()]
    }

    /// Drop the caches, read every live file (verifying it), drop again
    /// so every fetched block resolves as used or wasted; returns the
    /// used share in percent.
    fn cold_sweep_util_pct(&mut self, rec: &mut Rec) -> f64 {
        self.fs.drop_caches().expect("drop_caches");
        let before = Counts::take(&self.fs);
        let mut buf = Vec::new();
        for slot in 0..self.plan.slots.len() as u32 {
            if let Some((off, len)) = self.model.files[slot as usize] {
                let expect = self.plan.tape.slice(off, len as usize);
                verify_file(
                    &self.fs,
                    rec,
                    self.dir_of(slot),
                    &self.plan.slots[slot as usize],
                    expect,
                    &mut buf,
                );
            }
        }
        self.fs.drop_caches().expect("drop_caches");
        let d = Counts::take(&self.fs).since(&before);
        100.0 * d.gf_used as f64 / (d.gf_used + d.gf_wasted).max(1) as f64
    }
}

impl Bench for State<'_> {
    fn ops_per_pass(&self) -> usize {
        2 * self.plan.tx_per_pass
    }

    fn before_round(&mut self) {
        let live = self.model.live.len() as u64;
        if live > self.space.1 {
            self.space = (self.free_at_mkfs - self.fs.free_blocks(), live);
        }
        self.txs.clear();
        for _ in 0..self.plan.tx_per_pass {
            let tx = self.next_tx();
            self.txs.push(tx);
        }
    }

    fn round(&mut self, tr: &mut Tracer, rec: &mut Rec) {
        let plan = self.plan;
        let mut cl = Client { fs: &self.fs, tr };
        rec.mark(cl.fs.now_ns());
        for &(first, second) in &self.txs {
            match first {
                First::Create { slot, off, len } => {
                    let (name, data) = (
                        &plan.slots[slot as usize],
                        plan.tape.slice(off, len as usize),
                    );
                    cl.op_begin("create_write");
                    let r = cl
                        .create(self.dirs[slot as usize % self.dirs.len()], name)
                        .and_then(|ino| cl.write(ino, 0, data));
                    cl.op_end();
                    rec.check(matches!(r, Ok(n) if n == data.len()), || {
                        format!("create+write {name}: {r:?}")
                    });
                }
                First::Delete { slot } => {
                    let name = &plan.slots[slot as usize];
                    cl.op_begin("unlink");
                    let r = cl.unlink(self.dirs[slot as usize % self.dirs.len()], name);
                    cl.op_end();
                    rec.check(r.is_ok(), || format!("unlink {name}: {r:?}"));
                }
            }
            rec.op_done(cl.fs.now_ns());
            match second {
                Second::Read { slot, off, len } => {
                    let (name, expect) = (
                        &plan.slots[slot as usize],
                        plan.tape.slice(off, len as usize),
                    );
                    let buf = &mut self.buf[..len as usize + 1];
                    cl.op_begin("lookup_read");
                    let r = cl
                        .lookup(self.dirs[slot as usize % self.dirs.len()], name)
                        .and_then(|ino| cl.read(ino, 0, buf));
                    cl.op_end();
                    rec.check(matches!(r, Ok(n) if buf[..n] == *expect), || {
                        format!("read {name}: {r:?} or wrong bytes")
                    });
                }
                Second::Append { slot, off, at, add } => {
                    let name = &plan.slots[slot as usize];
                    let data = &plan.tape.slice(off, (at + add) as usize)[at as usize..];
                    cl.op_begin("lookup_append");
                    let r = cl
                        .lookup(self.dirs[slot as usize % self.dirs.len()], name)
                        .and_then(|ino| cl.write(ino, at as u64, data));
                    cl.op_end();
                    rec.check(matches!(r, Ok(n) if n == data.len()), || {
                        format!("append {name}: {r:?}")
                    });
                }
            }
            rec.op_done(cl.fs.now_ns());
        }
        let r = cl.sync();
        rec.check(r.is_ok(), || format!("sync: {r:?}"));
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
        self.model
            .live
            .iter()
            .take(512)
            .filter_map(|&slot| {
                self.fs
                    .lookup(self.dir_of(slot), &self.plan.slots[slot as usize])
                    .ok()
            })
            .collect()
    }

    fn regroup_tail(&mut self, rec: &mut Rec) -> Option<RegroupTail> {
        let fetch_util_before_pct = self.cold_sweep_util_pct(rec);
        let moved_before = self.fs.obs().get(cffs_obs::Ctr::RegroupBlocksMoved);
        let (sim0, t0) = (self.fs.now_ns(), Instant::now());
        let outcome = cffs_regroup::run(&mut self.fs, &RegroupConfig::exhaustive());
        let (host_ms, sim_s) = (
            t0.elapsed().as_secs_f64() * 1e3,
            (self.fs.now_ns() - sim0) as f64 / 1e9,
        );
        rec.attempted += 1;
        rec.check(outcome.is_ok(), || format!("regroup: {outcome:?}"));
        let synced = self.fs.sync();
        rec.check(synced.is_ok(), || format!("sync after regroup: {synced:?}"));
        Some(RegroupTail {
            blocks_moved: self.fs.obs().get(cffs_obs::Ctr::RegroupBlocksMoved) - moved_before,
            host_ms,
            sim_s,
            fetch_util_before_pct,
            fetch_util_after_pct: self.cold_sweep_util_pct(rec),
        })
    }

    fn finish(&mut self, rec: &mut Rec) {
        let (plan, model) = (self.plan, &self.model);
        check_durable(&self.fs, rec, |fs, rec| {
            let dirs = resolve_dirs(fs, rec, &plan.dirs);
            let mut buf = Vec::new();
            for (slot, file) in model.files.iter().enumerate() {
                let (dir, name) = (dirs[slot % dirs.len()], &plan.slots[slot]);
                match file {
                    Some((off, len)) => verify_file(
                        fs,
                        rec,
                        dir,
                        name,
                        plan.tape.slice(*off, *len as usize),
                        &mut buf,
                    ),
                    None => {
                        rec.attempted += 1;
                        let r = fs.lookup(dir, name);
                        rec.check(super::is_not_found(&r), || {
                            format!("check: deleted {name} resolves: {r:?}")
                        });
                    }
                }
            }
        });
    }
}
