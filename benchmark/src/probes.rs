//! Standalone probes of the layers below `core`.
//!
//! Those layers cannot be spanned from outside, so after the window the
//! traced run replays the recorded boundary streams — the disk request
//! trace, the block numbers of the workload's files, the `(dir, name)`
//! probe stream — through each layer's public functions on fresh
//! instances, as spans under a `probe` parent. Host cost per call and
//! heap bytes per call come from here.

use crate::alloc::Heap;
use crate::trace::{Layer, Tracer};
use cffs_cache::{BufferCache, CacheConfig};
use cffs_dcache::{Dcache, DcacheAnswer};
use cffs_disksim::{models, Disk, Driver, DriverConfig, IoReq, TraceEntry, SECTOR_SIZE};
use cffs_fslib::Ino;
use std::time::Instant;

/// Requests replayed at most (keeps the probes inside the time cap).
const MAX_REPLAY: usize = 20_000;
/// Blocks the cache probe works on at most (they must all stay resident).
const MAX_BLOCKS: usize = 2_048;

/// Host time and heap requests of `f`, as a span of `layer`.
fn timed(tr: &mut Tracer, layer: Layer, name: &'static str, f: impl FnOnce()) -> (f64, Heap) {
    tr.open(layer, name, 0);
    let (heap, t0) = (Heap::now(), Instant::now());
    f();
    let out = (t0.elapsed().as_nanos() as f64, Heap::now().since(heap));
    tr.close(0);
    out
}

/// What one replay cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// Calls made.
    pub calls: usize,
    /// Host ns for all of them.
    pub host_ns: f64,
    /// Heap requests for all of them.
    pub heap: Heap,
}

impl Replay {
    /// Host ns per call.
    pub fn ns_per_call(&self) -> f64 {
        crate::report::ratio(self.host_ns, self.calls as f64)
    }
}

/// `disksim`: the trace through `Disk::read`/`Disk::write` on a fresh
/// `Disk`, each request arriving when it did in the window.
pub fn disksim(trace: &[TraceEntry], tr: &mut Tracer) -> Replay {
    let trace = &trace[..trace.len().min(MAX_REPLAY)];
    let mut disk = Disk::new(models::seagate_st31200());
    let longest = trace.iter().map(|e| e.sectors as usize).max().unwrap_or(0);
    let mut buf = vec![0u8; longest * SECTOR_SIZE];
    let (host_ns, heap) = timed(tr, Layer::Disksim, "replay", || {
        for e in trace {
            let b = &mut buf[..e.sectors as usize * SECTOR_SIZE];
            if e.write {
                disk.write(e.start, e.lba, b);
            } else {
                disk.read(e.start, e.lba, b);
            }
        }
    });
    Replay {
        calls: trace.len(),
        host_ns,
        heap,
    }
}

/// `driver`: the same trace through `Driver::read`/`write`/`submit_batch`
/// on a fresh `Driver`. Requests serviced back to back in the window are
/// resubmitted as one batch. Payloads are built before the clock starts
/// (they are the caller's allocations, not the driver's). `calls` counts
/// submissions; the caller subtracts the `disksim` replay for self time.
pub fn driver(trace: &[TraceEntry], tr: &mut Tracer) -> Replay {
    let trace = &trace[..trace.len().min(MAX_REPLAY)];
    let drv = Driver::new(
        Disk::new(models::seagate_st31200()),
        DriverConfig::default(),
    );
    let mut submissions: Vec<Vec<IoReq>> = Vec::new();
    let mut prev_end = None;
    for e in trace {
        let bytes = e.sectors as usize * SECTOR_SIZE;
        let req = if e.write {
            IoReq::write(e.lba, vec![0u8; bytes])
        } else {
            IoReq::read(e.lba, bytes)
        };
        match submissions.last_mut() {
            Some(batch) if prev_end == Some(e.start) => batch.push(req),
            _ => submissions.push(vec![req]),
        }
        prev_end = Some(e.start + e.service);
    }
    let calls = submissions.len();
    let longest = trace.iter().map(|e| e.sectors as usize).max().unwrap_or(0);
    let mut buf = vec![0u8; longest * SECTOR_SIZE];
    let (host_ns, heap) = timed(tr, Layer::Driver, "replay", || {
        for mut batch in submissions {
            if batch.len() > 1 {
                drv.submit_batch(batch);
            } else {
                let req = batch.pop().expect("a submission holds a request");
                match req.dir {
                    cffs_disksim::IoDir::Read => drv.read(req.lba, &mut buf[..req.data.len()]),
                    cffs_disksim::IoDir::Write => drv.write(req.lba, &req.data),
                }
            }
        }
    });
    Replay {
        calls,
        host_ns,
        heap,
    }
}

/// `cache` probe results.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheProbe {
    /// `read_block` / `read_block_bound` on a resident block.
    pub hit: Replay,
    /// `modify_block` on a resident block.
    pub modify: Replay,
    /// `read_group` of one 16-block extent, cold.
    pub group_read: Replay,
    /// `sync` with every probed block dirty.
    pub sync: Replay,
}

/// `cache`: `BufferCache::read_block`/`read_block_bound`/`modify_block`/
/// `read_group`/`sync` on a standalone cache + driver, over `blocks`.
pub fn cache(blocks: &[u64], tr: &mut Tracer) -> CacheProbe {
    let mut blocks: Vec<u64> = blocks.to_vec();
    blocks.sort_unstable();
    blocks.dedup();
    blocks.truncate(MAX_BLOCKS);
    if blocks.is_empty() {
        return CacheProbe::default();
    }
    let drv = Driver::new(
        Disk::new(models::seagate_st31200()),
        DriverConfig::default(),
    );
    let cache = BufferCache::new(CacheConfig::default());
    for &b in &blocks {
        cache.read_block(&drv, b).expect("cache probe: load");
    }
    const ROUNDS: usize = 8;
    let (host_ns, heap) = timed(tr, Layer::Cache, "read_block", || {
        for round in 0..ROUNDS {
            for (i, &b) in blocks.iter().enumerate() {
                let data = if round % 2 == 0 {
                    cache.read_block(&drv, b)
                } else {
                    cache.read_block_bound(&drv, b, 1, i as u64)
                };
                std::hint::black_box(data.expect("cache probe: hit"));
            }
        }
    });
    let hit = Replay {
        calls: ROUNDS * blocks.len(),
        host_ns,
        heap,
    };
    let (host_ns, heap) = timed(tr, Layer::Cache, "modify_block", || {
        for &b in &blocks {
            cache
                .modify_block(&drv, b, false, true, |d| d[0] ^= 1)
                .expect("cache probe: modify");
        }
    });
    let modify = Replay {
        calls: blocks.len(),
        host_ns,
        heap,
    };
    let (host_ns, heap) = timed(tr, Layer::Cache, "sync", || {
        cache.sync(&drv).expect("cache probe: sync")
    });
    let sync = Replay {
        calls: 1,
        host_ns,
        heap,
    };
    cache.drop_all(&drv).expect("cache probe: drop_all");
    let mut extents: Vec<u64> = blocks.iter().map(|b| b / 16 * 16).collect();
    extents.dedup();
    let (host_ns, heap) = timed(tr, Layer::Cache, "read_group", || {
        for &start in &extents {
            cache
                .read_group(&drv, &[(start, 16)])
                .expect("cache probe: read_group");
        }
    });
    let group_read = Replay {
        calls: extents.len(),
        host_ns,
        heap,
    };
    CacheProbe {
        hit,
        modify,
        group_read,
        sync,
    }
}

/// The `(dir, name)` streams of `namei_warm`, for the dcache probe.
pub struct DcacheStream<'a> {
    /// Capacity of the workload's dcache, entries.
    pub capacity: usize,
    /// Positive entries the population inserted, in order.
    pub prefill: Vec<(Ino, &'a str, Ino)>,
    /// One sweep's probes: `(dir, name, the ino it resolves to)`.
    pub probes: Vec<(Ino, &'a str, Option<Ino>)>,
}

/// `dcache` probe results.
#[derive(Debug, Clone, Copy, Default)]
pub struct DcacheProbe {
    /// `lookup`.
    pub probe: Replay,
    /// `insert_pos` / `insert_neg` / `invalidate`.
    pub insert: Replay,
    /// Entries held ÷ capacity once the stream has been replayed.
    pub occupancy_share: f64,
}

/// `dcache`: `Dcache::lookup`/`insert_pos`/`insert_neg`/`invalidate` on a
/// standalone cache, fed what the workload's own dcache was fed.
pub fn dcache(stream: &DcacheStream<'_>, tr: &mut Tracer) -> DcacheProbe {
    let dc = Dcache::new(stream.capacity);
    let (mut insert_ns, mut insert_heap) = timed(tr, Layer::Dcache, "insert_pos", || {
        for &(dir, name, ino) in &stream.prefill {
            dc.insert_pos(dir, name, ino);
        }
    });
    let mut inserts = stream.prefill.len();
    // The warming sweep: a miss inserts, as `Cffs::lookup` does.
    for &(dir, name, ino) in &stream.probes {
        if dc.lookup(dir, name) == DcacheAnswer::Miss {
            match ino {
                Some(ino) => dc.insert_pos(dir, name, ino),
                None => dc.insert_neg(dir, name),
            }
        }
    }
    const ROUNDS: usize = 8;
    let (host_ns, heap) = timed(tr, Layer::Dcache, "lookup", || {
        for _ in 0..ROUNDS {
            for &(dir, name, _) in &stream.probes {
                std::hint::black_box(dc.lookup(dir, name));
            }
        }
    });
    let probe = Replay {
        calls: ROUNDS * stream.probes.len(),
        host_ns,
        heap,
    };
    let occupancy_share = dc.len() as f64 / dc.capacity().max(1) as f64;
    let (ns, heap) = timed(tr, Layer::Dcache, "invalidate_insert", || {
        for &(dir, name, ino) in &stream.probes {
            dc.invalidate(dir, name);
            match ino {
                Some(ino) => dc.insert_pos(dir, name, ino),
                None => dc.insert_neg(dir, name),
            }
        }
    });
    insert_ns += ns;
    insert_heap += heap;
    inserts += 2 * stream.probes.len();
    DcacheProbe {
        probe,
        insert: Replay {
            calls: inserts,
            host_ns: insert_ns,
            heap: insert_heap,
        },
        occupancy_share,
    }
}
