//! Mounting, syncing and unmounting a C-FFS, and the accessors a mounted
//! instance answers from its in-core state.

use crate::exfile::SlotPool;
use crate::groups::GroupIndex;
use crate::layout::{CgHeader, Superblock, INO_ROOT, SB_BLOCK};
use cffs_cache::BufferCache;
use cffs_dcache::Dcache;
use cffs_disksim::driver::{Driver, DriverConfig};
use cffs_disksim::{Disk, SimTime};
use cffs_fslib::inode::{Inode, INODE_SIZE};
use cffs_fslib::{CpuModel, FsError, FsResult, Ino, IntMap, IoStats, StatFs, BLOCK_SIZE};
use cffs_obs::{Obs, OpKind};
use std::sync::atomic::AtomicU32;
use std::sync::{Arc, Mutex};
use super::{Cffs, CffsConfig, ExMeta, CgSlot, InodePlacement, NsState, OP_STRIPES};

impl Cffs {
    /// Mount an existing C-FFS from `disk`.
    pub fn mount(disk: Disk, cfg: CffsConfig) -> FsResult<Cffs> {
        let drv = Driver::new(disk, DriverConfig { scheduler: cfg.scheduler });
        let mut buf = vec![0u8; BLOCK_SIZE];
        drv.read(SB_BLOCK * cffs_fslib::SECTORS_PER_BLOCK, &mut buf);
        let sb = Superblock::read_from(&buf)?;
        // A table image and a table-less one differ in where every CG's
        // data starts: never mount one as the other.
        if (sb.itable_bytes != 0) != (cfg.inodes == InodePlacement::CgTable) {
            return Err(FsError::InvalidArg);
        }
        let mut cgs = Vec::with_capacity(sb.cg_count as usize);
        let (mut table, mut table_free) = (vec![0u8; sb.itable_bytes as usize], Vec::new());
        for cg in 0..sb.cg_count {
            let hdr = sb.cg_header_block(cg) * cffs_fslib::SECTORS_PER_BLOCK;
            drv.read(hdr, &mut buf);
            cgs.push(CgHeader::read_from(&buf, cg)?);
            if table.is_empty() {
                continue;
            }
            // The free table slots, read without charge: they stand in
            // for the inode bitmap an FFS keeps in the header just read.
            drv.with_disk(|d| d.raw_read(hdr + cffs_fslib::SECTORS_PER_BLOCK, &mut table));
            let first = cg * sb.slots_per_table();
            table_free.extend(
                (0..sb.slots_per_table())
                    .filter(|&i| Inode::read_from(&table, i as usize * INODE_SIZE).is_none())
                    .map(|i| first + i),
            );
        }
        let groups = GroupIndex::build(&sb, &cgs);
        // One Obs handle for the whole stack: the disk owns it, the
        // driver delegates to it, and the cache is rebound onto it here.
        let obs = drv.obs();
        // Per-CG telemetry registers: geometry + current occupancy. The
        // allocator keeps the gauge live from here on (bitmap set/clear
        // sites call cg_used_delta under the CG lock).
        obs.configure_cg_table(cffs_obs::CgTableConfig {
            first_block: crate::layout::FIRST_CG_BLOCK,
            cg_size: sb.cg_size as u64,
            sectors_per_block: cffs_fslib::SECTORS_PER_BLOCK,
            groups: cgs
                .iter()
                .map(|h| (h.block_bitmap.len() as u64, h.block_bitmap.used() as u64))
                .collect(),
        });
        let mut cache = BufferCache::new(cfg.cache);
        cache.set_obs(obs.clone());
        // Partition the cache's eviction on the cylinder-group stride: a
        // victim is the oldest buffer of a CG shard past its fair share.
        cache.shard_by_cg(sb.cg_size as u64, (sb.cg_count as usize).min(16));
        let meta = ExMeta {
            exfile: sb.exfile.clone(),
            exfile_slots: sb.exfile_slots,
            expool: SlotPool::new(sb.exfile_slots, table_free),
        };
        let cg_state = cgs
            .into_iter()
            .map(|hdr| Mutex::new(CgSlot { hdr, dirty: false }))
            .collect();
        // The forensic black box (no-op without a `--flight` opt-in).
        let flight = cffs_obs::flight::arm_global(&obs, &[], &cfg.label);
        let obs_for_dcache = obs.clone();
        let fs = Cffs {
            drv,
            cache,
            obs,
            geo: sb,
            meta: Mutex::new(meta),
            cg_state,
            groups: Mutex::new(groups),
            ns: Mutex::new(NsState {
                parent_of: IntMap::default(),
                parent_fifo: std::collections::VecDeque::new(),
                last_read: IntMap::default(),
            }),
            dcache: (cfg.dcache_entries > 0).then(|| {
                let mut dc = Dcache::new(cfg.dcache_entries);
                dc.set_obs(obs_for_dcache.clone());
                dc
            }),
            dir_rotor: AtomicU32::new(0),
            gen_counter: AtomicU32::new(0),
            op_stripes: (0..OP_STRIPES).map(|_| Mutex::new(())).collect(),
            cfg,
            _flight: flight,
        };
        if fs.geo.itable_bytes == 0 {
            fs.scan_exfile()?;
        }
        Ok(fs)
    }

    /// Sync everything and hand the disk back.
    pub fn unmount(self) -> FsResult<Disk> {
        self.sync()?;
        Ok(self.drv.into_disk())
    }

    /// Snapshot the disk as a crash would leave it (dirty cache excluded).
    pub fn crash_image(&self) -> Disk {
        self.drv.with_disk(|d| d.clone_image())
    }

    /// Snapshot the disk as a crash *during its most recent write* would
    /// leave it: only the first `keep_sectors` sectors of that write
    /// landed. `None` if nothing was ever written. Sector atomicity is
    /// preserved — the guarantee embedded inodes are built on.
    pub fn crash_image_torn(&self, keep_sectors: usize) -> Option<Disk> {
        self.drv.with_disk(|d| d.clone_image_torn(keep_sectors))
    }

    /// A point-in-time snapshot of the mounted superblock: the immutable
    /// geometry merged with the current external-inode-file state.
    pub fn superblock(&self) -> Superblock {
        let mut sb = self.geo.clone();
        let m = self.lock_meta();
        sb.exfile = m.exfile.clone();
        sb.exfile_slots = m.exfile_slots;
        sb
    }

    /// The active configuration.
    pub fn config(&self) -> &CffsConfig {
        &self.cfg
    }

    /// The stack-wide observability handle (counters + event trace) shared
    /// by the disk, driver, cache, and this file-system layer.
    pub fn obs(&self) -> Arc<Obs> {
        self.obs.clone()
    }

    /// Enable/disable per-request disk trace recording (access-pattern
    /// analysis; off by default).
    pub fn set_disk_trace(&self, on: bool) {
        self.drv.with_disk_mut(|d| d.set_trace(on));
    }

    /// The recorded disk trace (empty when recording is off).
    pub fn disk_trace(&self) -> Vec<cffs_disksim::TraceEntry> {
        self.drv.with_disk(|d| d.trace().to_vec())
    }

    /// Rebuild the external-inode free pool by scanning the file.
    fn scan_exfile(&self) -> FsResult<()> {
        let slots = self.lock_meta().exfile_slots;
        let mut free = Vec::new();
        for slot in 0..slots {
            let (blk, off) = self.exfile_locate(slot)?;
            let data = self.cache.read_block(&self.drv, blk)?;
            if Inode::read_from(&data, off).is_none() {
                free.push(slot);
            }
        }
        self.lock_meta().expool = SlotPool::new(slots, free);
        Ok(())
    }

    /// Label for reports — see [`FileSystem::label`].
    pub fn label(&self) -> &str {
        &self.cfg.label
    }

    /// The root inode — see [`FileSystem::root`].
    pub fn root(&self) -> Ino {
        INO_ROOT
    }

    /// Flush dirty CG headers, the superblock, and the cache — see
    /// [`FileSystem::sync`].
    pub fn sync(&self) -> FsResult<()> {
        let _span = self.op_span(OpKind::Sync);
        self.charge(self.cpu_model().syscall);
        for cg in 0..self.geo.cg_count {
            let img = {
                let mut s = self.lock_cg(cg);
                if s.dirty {
                    let mut img = vec![0u8; BLOCK_SIZE];
                    s.hdr.write_to(&mut img);
                    s.dirty = false;
                    Some(img)
                } else {
                    None
                }
            };
            if let Some(img) = img {
                self.cache.modify_block(&self.drv, self.geo.cg_header_block(cg), true, false, |d| {
                    d.copy_from_slice(&img)
                })?;
            }
        }
        let sb = self.superblock();
        let mut sb_img = vec![0u8; BLOCK_SIZE];
        sb.write_to(&mut sb_img);
        self.cache
            .modify_block(&self.drv, SB_BLOCK, true, false, |d| d.copy_from_slice(&sb_img))?;
        self.cache.sync(&self.drv)
    }

    /// Space accounting — see [`FileSystem::statfs`].
    pub fn statfs(&self) -> FsResult<StatFs> {
        let _span = self.op_span(OpKind::Statfs);
        // Inodes are dynamic (no preallocation limit) unless tables hold them.
        let (total_inodes, free_inodes) = match self.geo.itable_bytes {
            0 => (u64::MAX, u64::MAX),
            _ => (self.geo.exfile_slots as u64, self.lock_meta().expool.available() as u64),
        };
        Ok(StatFs {
            block_size: BLOCK_SIZE as u32,
            total_blocks: self.geo.total_blocks,
            free_blocks: (0..self.geo.cg_count)
                .map(|cg| self.lock_cg(cg).hdr.block_bitmap.free() as u64)
                .sum(),
            group_slack_blocks: self.lock_groups().total_slack(),
            total_inodes,
            free_inodes,
        })
    }

    /// This thread's simulated clock — see [`FileSystem::now`].
    pub fn now(&self) -> SimTime {
        self.drv.now()
    }

    /// Stack-wide I/O counters — see [`FileSystem::io_stats`].
    pub fn io_stats(&self) -> IoStats {
        IoStats::from_counters(|c| self.obs.get(c))
    }

    /// Sync then drop clean cache state — see [`FileSystem::drop_caches`].
    pub fn drop_caches(&self) -> FsResult<()> {
        let _span = self.op_span(OpKind::DropCaches);
        self.sync()?;
        self.cache.drop_all(&self.drv)?;
        if let Some(dc) = self.dcache() {
            // Cold boundary: record the epoch's per-shard hit rates
            // into `dcache_hit_pct` and start fresh.
            dc.clear();
        }
        self.drv.with_disk_mut(|d| d.flush_onboard_cache());
        Ok(())
    }

    /// The CPU cost model — see [`FileSystem::cpu_model`].
    pub fn cpu_model(&self) -> CpuModel {
        self.cfg.cpu
    }
}
