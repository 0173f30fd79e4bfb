#![warn(missing_docs)]

//! # cffs-volume — scale-out volume sets
//!
//! Mounts N independent C-FFS disks (each with its own simulated disk,
//! driver, buffer-cache shards, and cylinder groups) behind one
//! [`FileSystem`] namespace, following the scale-out direction in the
//! ROADMAP (CFS-style sharded metadata zones):
//!
//! * **Directory sharding.** The directory *skeleton* is replicated on
//!   every volume (a `mkdir` fans out to all N), while the *files* of a
//!   directory live only on the directory's **home volume** — a stable
//!   hash of its path. Everything the paper's explicit grouping buys
//!   (directory blocks co-located with the small files they name) is
//!   preserved per volume, because a directory's files never scatter.
//! * **Name resolution without paths.** The skeleton is keyed by
//!   `(parent, name)`: each directory keeps a map from child-directory
//!   name to skeleton index, so resolving a component builds no string.
//!   A path exists only as its FNV-1a hash, continued from the parent's
//!   once at `mkdir`. The file-name map records `(parent index, name)`
//!   per ino, and each stripe-registry entry sits behind an [`Arc`] that
//!   a striped `read` or `getattr` clones by reference count.
//! * **Inode partitioning.** Volume-local inos never use bits 40–47 (the
//!   embedded encoding keeps a byte address below 2^40, the external
//!   encoding a 32-bit slot; the generation lives in bits 48–62). A
//!   volume set tags every ino it hands out with its volume index in
//!   those bits, so inos are globally unique and any handle, block, or
//!   fsck finding can be attributed to its volume. Volume 0's tag is the
//!   identity, so a 1-volume set is bit-compatible with a bare [`Cffs`].
//! * **Large-file striping.** A file whose size stays at or below the
//!   configured threshold lives entirely on its home volume. The first
//!   write that extends past the threshold *promotes* it: bytes `[0, T)`
//!   stay in the home-volume anchor (no data moves), and each subsequent
//!   stripe unit `[T+(k-1)·S, T+k·S)` becomes a part file on volume
//!   `(home+k) mod N` under the hidden `.stripe` directory, so large
//!   reads draw bandwidth from every disk at once.
//! * **Virtual-time fan-out.** Each logical op pins every participating
//!   volume's clock to the same start time and completes at the max of
//!   their finish times, so multi-volume work overlaps in simulated time
//!   — aggregate throughput can genuinely scale with volume count. Each
//!   volume keeps its own disk timeline; the multi-client driver
//!   (`cffs_workloads::concurrent`) orders its clients' steps by
//!   simulated clock, so which client reaches a volume's disk first is a
//!   function of the seed, not of OS scheduling.
//!
//! `rmdir`, `link`, `rename` and `truncate` would each have to change more
//! than one volume atomically and return [`FsError::Unsupported`] (see
//! [`cffs_fslib::vfs`]); everything else on the trait works.
//!
//! Lock hierarchy (documented in DESIGN.md §11): `stripes` → `dirs` →
//! `names` → per-volume internals. A volume-set lock is never taken
//! while a volume-internal lock is held.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

use cffs_core::fsck::{self, FsckReport};
use cffs_core::{Cffs, CffsConfig, CgUsage, MkfsParams};
use cffs_disksim::{Disk, SimTime};
use cffs_fslib::hash::IntMap;
use cffs_fslib::{
    Attr, DirEntry, FileKind, FileSystem, FsError, FsResult, Ino, IoStats, StatFs,
};
use cffs_obs::{Ctr, Obs, OpKind, StatsSnapshot};
use cffs_regroup::{RegroupConfig, RegroupOutcome};

/// Bit position of the volume tag inside a global ino.
pub const VOL_SHIFT: u32 = 40;
/// Mask of the volume-tag bits (8 bits: up to [`MAX_VOLS`] volumes).
pub const VOL_MASK: u64 = 0xFF << VOL_SHIFT;
/// Most volumes a set can hold (the tag is 8 bits).
pub const MAX_VOLS: usize = 255;

/// Hidden per-volume directory holding stripe part files; filtered from
/// root `readdir`/`lookup` so it never appears in the namespace.
pub const STRIPE_DIR: &str = ".stripe";

/// Tag a volume-local ino with its volume index.
#[inline]
pub fn tag(vol: usize, local: Ino) -> Ino {
    debug_assert_eq!(local & VOL_MASK, 0, "volume-local ino uses tag bits");
    local | ((vol as u64) << VOL_SHIFT)
}

/// The volume index encoded in a global ino.
#[inline]
pub fn vol_of(global: Ino) -> usize {
    ((global & VOL_MASK) >> VOL_SHIFT) as usize
}

/// Strip the volume tag, recovering the volume-local ino.
#[inline]
pub fn local_of(global: Ino) -> Ino {
    global & !VOL_MASK
}

/// Skeleton index of the root directory.
const ROOT: usize = 0;

/// FNV-1a state of the empty string.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue an FNV-1a hash over `bytes`.
fn fnv_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a hash of a path — the stable home-volume shard function.
pub fn hash64(s: &str) -> u64 {
    fnv_extend(FNV_BASIS, s.as_bytes())
}

/// `hash64(dir + "/" + name)` from `hash64(dir)`, building no string.
fn child_hash(dir_hash: u64, name: &str) -> u64 {
    fnv_extend(fnv_extend(dir_hash, b"/"), name.as_bytes())
}

/// Home volume of a non-root directory whose path hashes to `path_hash`
/// (the root's home is volume 0).
fn home_of(path_hash: u64, nvols: usize) -> usize {
    (path_hash % nvols as u64) as usize
}

fn part_name(hash: u64, k: usize) -> String {
    format!("s{hash:016x}.{k}")
}

/// Configuration of a [`VolumeSet`]: the per-volume file-system flavour
/// plus the striping policy.
#[derive(Debug, Clone)]
pub struct VolumeCfg {
    /// Per-volume file-system configuration (all volumes identical).
    pub fs: CffsConfig,
    /// Per-volume mkfs geometry.
    pub mkfs: MkfsParams,
    /// Bytes a file may reach before it is promoted to the striped
    /// layout. Defaults to one 64 KB group extent, so small files — the
    /// paper's subject — always stay whole on their home volume.
    pub stripe_threshold: u64,
    /// Bytes per stripe part beyond the threshold. Defaults to one
    /// 64 KB group extent so each part is one group-fetch unit.
    pub stripe_unit: u64,
}

impl VolumeCfg {
    /// Defaults: 64 KB stripe threshold and unit, default mkfs geometry.
    pub fn new(fs: CffsConfig) -> VolumeCfg {
        VolumeCfg {
            fs,
            mkfs: MkfsParams::default(),
            stripe_threshold: 64 * 1024,
            stripe_unit: 64 * 1024,
        }
    }

    /// Override the mkfs geometry.
    pub fn with_mkfs(mut self, mkfs: MkfsParams) -> VolumeCfg {
        self.mkfs = mkfs;
        self
    }

    /// Override the striping policy (threshold and unit in bytes; the
    /// unit must be non-zero).
    pub fn with_stripes(mut self, threshold: u64, unit: u64) -> VolumeCfg {
        assert!(unit > 0, "stripe unit must be non-zero");
        self.stripe_threshold = threshold;
        self.stripe_unit = unit;
        self
    }
}

/// One mounted volume: the file system plus its observability registry.
struct Volume {
    fs: Cffs,
    obs: Arc<Obs>,
}

/// One directory in the replicated skeleton.
#[derive(Debug)]
struct DirInfo {
    /// [`hash64`] of the namespace path (`""` for root, `"/a/b"`
    /// otherwise); a child's hash continues from it.
    path_hash: u64,
    /// Home volume: where this directory's files live.
    home: usize,
    /// This directory's volume-local ino on each volume.
    locals: Vec<Ino>,
    /// Child directories: name → skeleton index.
    children: HashMap<Box<str>, usize>,
}

impl DirInfo {
    /// The directory's global ino (its local ino on its home volume).
    fn global(&self) -> Ino {
        tag(self.home, self.locals[self.home])
    }
}

#[derive(Default)]
struct DirMap {
    /// The skeleton, root first; a directory's index never changes (the
    /// set refuses `rmdir`).
    infos: Vec<DirInfo>,
    by_global: IntMap<Ino, usize>,
}

/// Registry entry of one striped file.
#[derive(Debug, Clone)]
struct StripeMeta {
    /// Parent directory's skeleton index (for re-resolution after
    /// regrouping).
    dir: usize,
    /// File name within the parent.
    name: Box<str>,
    /// Hash of the full path — the stable part-file naming key.
    hash: u64,
    /// Home volume (equals the parent directory's home).
    home: usize,
    /// Anchor's volume-local ino on the home volume (bytes `[0, T)`).
    anchor: Ino,
    /// Logical file size in bytes.
    size: u64,
    /// Part `k+1` (bytes `[T+k·S, T+(k+1)·S)`) lives on volume
    /// `(home+1+k) mod N`; `None` = hole, reads as zeros.
    parts: Vec<Option<Ino>>,
}

/// N independent C-FFS volumes behind one [`FileSystem`] namespace:
/// replicated directory skeleton, hash-sharded file placement, and
/// threshold-triggered large-file striping. See the module docs.
pub struct VolumeSet {
    label: String,
    cfg: VolumeCfg,
    vols: Vec<Volume>,
    /// The set-level registry: op spans, aggregate clocks, `vol_*`
    /// counters, and feed frames hang off this one.
    set_obs: Arc<Obs>,
    dirs: RwLock<DirMap>,
    /// Global file ino → (parent skeleton index, name), populated on
    /// create/lookup/readdir. Needed to name stripe parts at promotion
    /// time and to re-resolve striped anchors after regrouping. Grows
    /// with the touched-file count; cleared (with every outstanding
    /// handle) by [`VolumeSet::regroup_all`].
    names: Mutex<IntMap<Ino, (usize, Box<str>)>>,
    /// Striped files by global ino; readers clone the `Arc`, the writer
    /// of a file copies its entry on write only while one is held.
    stripes: Mutex<IntMap<Ino, Arc<StripeMeta>>>,
    /// `.stripe` directory's local ino on each volume.
    stripe_dirs: Vec<Ino>,
    /// Set-level flight recorder (`None` without a `--flight` opt-in):
    /// per-volume spans and events merge into its ring tagged with the
    /// volume index, alongside each volume's own per-mount recorder.
    _flight: Option<cffs_obs::flight::FlightGuard>,
}

impl VolumeSet {
    /// Format one fresh file system per disk and assemble them into a
    /// set. Panics if `disks` is empty or holds more than [`MAX_VOLS`].
    pub fn format(disks: Vec<Disk>, cfg: VolumeCfg) -> FsResult<VolumeSet> {
        assert!(!disks.is_empty(), "a volume set needs at least one disk");
        assert!(disks.len() <= MAX_VOLS, "at most {MAX_VOLS} volumes");
        let mut vols = Vec::with_capacity(disks.len());
        for disk in disks {
            let fs = cffs_core::mkfs::mkfs(disk, cfg.mkfs, cfg.fs.clone())?;
            let obs = fs.obs();
            vols.push(Volume { fs, obs });
        }
        let mut stripe_dirs = Vec::with_capacity(vols.len());
        for v in &vols {
            stripe_dirs.push(v.fs.mkdir(v.fs.root(), STRIPE_DIR)?);
        }
        let label = format!("{}-{}v", vols[0].fs.label(), vols.len());
        let mut dirs = DirMap::default();
        dirs.infos.push(DirInfo {
            path_hash: FNV_BASIS,
            home: 0,
            locals: vols.iter().map(|v| v.fs.root()).collect(),
            children: HashMap::new(),
        });
        dirs.by_global.insert(tag(0, vols[0].fs.root()), ROOT);
        let set_obs = Obs::new();
        let t = vols.iter().map(|v| v.obs.clock_ns()).max().unwrap_or(0);
        set_obs.set_clock_ns(t);
        set_obs.arm_default_slos();
        let vol_registries: Vec<Arc<Obs>> = vols.iter().map(|v| Arc::clone(&v.obs)).collect();
        let flight = cffs_obs::flight::arm_global_volumes(&set_obs, &vol_registries, &label);
        Ok(VolumeSet {
            label,
            cfg,
            vols,
            set_obs,
            dirs: RwLock::new(dirs),
            names: Mutex::new(IntMap::default()),
            stripes: Mutex::new(IntMap::default()),
            stripe_dirs,
            _flight: flight,
        })
    }

    /// Number of volumes in the set.
    pub fn nvols(&self) -> usize {
        self.vols.len()
    }

    /// The striping policy and per-volume flavour this set was built
    /// with.
    pub fn cfg(&self) -> &VolumeCfg {
        &self.cfg
    }

    /// The set-level observability registry (also returned by
    /// [`FileSystem::obs`]).
    pub fn set_obs(&self) -> Arc<Obs> {
        Arc::clone(&self.set_obs)
    }

    /// Per-volume observability registries, in volume order — what
    /// `cffs_obs::feed::attach_with_volumes` wants.
    pub fn vol_obs(&self) -> Vec<Arc<Obs>> {
        self.vols.iter().map(|v| Arc::clone(&v.obs)).collect()
    }

    /// Point-in-time snapshot of one volume's registry.
    pub fn vol_snapshot(&self, v: usize, label: &str) -> StatsSnapshot {
        self.vols[v].obs.snapshot(label, self.vols[v].obs.global_clock_ns())
    }

    /// Fold of all per-volume registries into one aggregate snapshot;
    /// `sim_ns` is the set-level elapsed clock (volumes overlap in
    /// simulated time, so their windows merge rather than concatenate).
    pub fn merged_snapshot(&self, label: &str) -> StatsSnapshot {
        let mut out = self.vol_snapshot(0, label);
        for v in 1..self.vols.len() {
            out = out.merge(&self.vol_snapshot(v, label));
        }
        out.sim_ns = self.set_obs.global_clock_ns();
        out
    }

    /// The I/O view of every volume's counters, summed.
    pub fn io_stats(&self) -> IoStats {
        IoStats::from_counters(|c| self.vols.iter().map(|v| v.obs.get(c)).sum())
    }

    /// One volume's per-cylinder-group usage.
    pub fn cg_usage(&self, v: usize) -> Vec<CgUsage> {
        self.vols[v].fs.cg_usage()
    }

    /// One volume's capacity summary (unclocked; for inspection).
    pub fn statfs_vol(&self, v: usize) -> FsResult<StatFs> {
        self.vols[v].fs.statfs()
    }

    /// Instantaneous driver queue depth per volume.
    pub fn queue_depths(&self) -> Vec<u64> {
        self.vols.iter().map(|v| v.obs.queue_depth()).collect()
    }

    /// Number of files currently in the striped layout.
    pub fn stripe_count(&self) -> usize {
        self.stripes.lock().expect("stripe registry poisoned").len()
    }

    /// Drop every volume's caches (write-back included), simulating a
    /// cold restart of the whole set. Volumes overlap in simulated time.
    pub fn drop_caches_all(&self) -> FsResult<()> {
        let _span = self.set_obs.span(OpKind::DropCaches);
        let t0 = self.set_obs.clock_ns();
        let mut t_end = t0;
        let mut ret = Ok(());
        for v in 0..self.vols.len() {
            let (r, t) = self.on(t0, v, |fs| fs.drop_caches());
            t_end = t_end.max(t);
            if ret.is_ok() {
                ret = r;
            }
        }
        self.set_obs.set_clock_ns(t_end);
        ret
    }

    /// Run one regroup pass per volume (crash-safe within each volume —
    /// the relocation protocol never spans volumes), then re-resolve
    /// every directory, stripe anchor, and part: regrouping renumbers
    /// embedded inos, so — like `FileSystem::rename` — **all outstanding
    /// handles are invalidated**; clients must re-resolve from the root.
    pub fn regroup_all(&mut self, rcfg: &RegroupConfig) -> FsResult<Vec<RegroupOutcome>> {
        let t0 = self.set_obs.clock_ns();
        let mut t_end = t0;
        let mut outs = Vec::with_capacity(self.vols.len());
        for v in 0..self.vols.len() {
            self.vols[v].obs.pin_clock_ns(t0);
            outs.push(cffs_regroup::run(&mut self.vols[v].fs, rcfg)?);
            // Flush the relocations so the volume's crash image is
            // consistent again (same discipline as the single-volume
            // regroup experiments: run, then sync, then fsck).
            self.vols[v].fs.sync()?;
            t_end = t_end.max(self.vols[v].obs.clock_ns());
        }
        self.set_obs.set_clock_ns(t_end);
        self.refresh_maps()?;
        let t = self.vols.iter().map(|v| v.obs.clock_ns()).max().unwrap_or(0);
        self.set_obs.set_clock_ns(t);
        Ok(outs)
    }

    /// Crash image of every volume (the on-disk state if power failed
    /// now), in volume order.
    pub fn crash_images(&self) -> Vec<Disk> {
        self.vols.iter().map(|v| v.fs.crash_image()).collect()
    }

    /// Fsck every volume's crash image (no repairs), in volume order.
    pub fn fsck_all(&self) -> FsResult<Vec<FsckReport>> {
        let mut out = Vec::with_capacity(self.vols.len());
        for mut img in self.crash_images() {
            out.push(fsck::fsck(&mut img, false)?);
        }
        Ok(out)
    }

    // ---- internals ----

    /// Run `f` on volume `v` with its clock pinned to `t0`; returns the
    /// result and the volume's finish time. The caller folds finish
    /// times with max and publishes via `set_clock_ns`, so sub-ops on
    /// different volumes overlap in simulated time.
    fn on<R>(&self, t0: u64, v: usize, f: impl FnOnce(&Cffs) -> R) -> (R, u64) {
        let vol = &self.vols[v];
        vol.obs.pin_clock_ns(t0);
        let r = f(&vol.fs);
        (r, vol.obs.clock_ns())
    }

    /// (skeleton index, home, home-volume local ino) of a directory
    /// handle.
    fn dir_info(&self, g: Ino) -> FsResult<(usize, usize, Ino)> {
        let d = self.dirs.read().expect("dir map poisoned");
        let &i = d.by_global.get(&g).ok_or(FsError::NotDir)?;
        let info = &d.infos[i];
        Ok((i, info.home, info.locals[info.home]))
    }

    /// Global ino of directory `name` in skeleton directory `di`, if the
    /// skeleton knows it.
    fn child_dir(&self, di: usize, name: &str) -> Option<Ino> {
        let d = self.dirs.read().expect("dir map poisoned");
        d.infos[di].children.get(name).map(|&i| d.infos[i].global())
    }

    fn is_dir(&self, g: Ino) -> bool {
        self.dirs.read().expect("dir map poisoned").by_global.contains_key(&g)
    }

    /// Striped read: anchor segment from the home volume, part segments
    /// from their round-robin volumes, all pinned to one start time.
    /// Reads past the logical size are clamped; holes (absent parts,
    /// short anchor) read as zeros.
    fn striped_read(&self, m: &StripeMeta, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        let want = if off >= m.size {
            0
        } else {
            (m.size - off).min(buf.len() as u64) as usize
        };
        let (th, su, n) = (self.cfg.stripe_threshold, self.cfg.stripe_unit, self.vols.len());
        let t0 = self.set_obs.clock_ns();
        let mut t_end = t0;
        let mut done = 0usize;
        while done < want {
            let goff = off + done as u64;
            let left = (want - done) as u64;
            let (v, ino, seg_off, seg_len) = if goff < th {
                (m.home, Some(m.anchor), goff, (th - goff).min(left))
            } else {
                let k = ((goff - th) / su) as usize;
                let pstart = th + k as u64 * su;
                let pv = (m.home + 1 + k) % n;
                let pino = m.parts.get(k).copied().flatten();
                (pv, pino, goff - pstart, (pstart + su - goff).min(left))
            };
            let dst = &mut buf[done..done + seg_len as usize];
            match ino {
                Some(local) => {
                    let (r, t) = self.on(t0, v, |fs| fs.read(local, seg_off, dst));
                    t_end = t_end.max(t);
                    let got = r?;
                    dst[got..].fill(0);
                    if v != m.home {
                        // Once on the set registry (op-level view, feed
                        // frames) and once on the serving volume (per-
                        // spindle view, merged snapshots).
                        self.set_obs.bump(Ctr::VolStripePartIos);
                        self.vols[v].obs.bump(Ctr::VolStripePartIos);
                    }
                }
                None => dst.fill(0),
            }
            done += seg_len as usize;
        }
        self.set_obs.set_clock_ns(t_end);
        Ok(want)
    }

    /// Striped write: segments as in [`Self::striped_read`]; missing
    /// parts are created on demand in their volume's `.stripe`
    /// directory. Stops early on a short segment write.
    fn striped_write(&self, m: &mut StripeMeta, off: u64, data: &[u8]) -> FsResult<usize> {
        let (th, su, n) = (self.cfg.stripe_threshold, self.cfg.stripe_unit, self.vols.len());
        let t0 = self.set_obs.clock_ns();
        let mut t_end = t0;
        let mut done = 0usize;
        while done < data.len() {
            let goff = off + done as u64;
            let left = (data.len() - done) as u64;
            let (v, seg_off, seg_len, part_k) = if goff < th {
                (m.home, goff, (th - goff).min(left), None)
            } else {
                let k = ((goff - th) / su) as usize;
                let pstart = th + k as u64 * su;
                ((m.home + 1 + k) % n, goff - pstart, (pstart + su - goff).min(left), Some(k))
            };
            let local = match part_k {
                None => m.anchor,
                Some(k) => {
                    if m.parts.len() <= k {
                        m.parts.resize(k + 1, None);
                    }
                    match m.parts[k] {
                        Some(p) => p,
                        None => {
                            let pname = part_name(m.hash, k + 1);
                            let pdir = self.stripe_dirs[v];
                            let (r, t) = self.on(t0, v, |fs| match fs.create(pdir, &pname) {
                                // A leftover part (e.g. from a crashed
                                // unlink) is adopted, not an error.
                                Err(FsError::Exists) => fs.lookup(pdir, &pname),
                                other => other,
                            });
                            t_end = t_end.max(t);
                            let p = match r {
                                Ok(p) => p,
                                Err(e) => {
                                    self.set_obs.set_clock_ns(t_end);
                                    return Err(e);
                                }
                            };
                            m.parts[k] = Some(p);
                            p
                        }
                    }
                }
            };
            let src = &data[done..done + seg_len as usize];
            let (r, t) = self.on(t0, v, |fs| fs.write(local, seg_off, src));
            t_end = t_end.max(t);
            if part_k.is_some() {
                self.set_obs.bump(Ctr::VolStripePartIos);
                self.vols[v].obs.bump(Ctr::VolStripePartIos);
            }
            let wrote = match r {
                Ok(w) => w,
                Err(e) => {
                    self.set_obs.set_clock_ns(t_end);
                    return Err(e);
                }
            };
            done += wrote;
            if wrote < seg_len as usize {
                break;
            }
        }
        self.set_obs.set_clock_ns(t_end);
        m.size = m.size.max(off + done as u64);
        Ok(done)
    }

    /// Rebuild every map after regrouping renumbered embedded inos: the
    /// skeleton is re-resolved path-by-path from the root on every
    /// volume, stripe anchors and parts are re-looked-up by name, and the
    /// file-name map (whose keys are stale handles) is cleared.
    fn refresh_maps(&mut self) -> FsResult<()> {
        let n = self.vols.len();
        let d = self.dirs.get_mut().expect("dir map poisoned");
        d.by_global.clear();
        // Each directory's (parent, name), read off the child maps.
        let mut up: Vec<Option<(usize, Box<str>)>> = vec![None; d.infos.len()];
        for (p, info) in d.infos.iter().enumerate() {
            for (name, &c) in &info.children {
                up[c] = Some((p, name.clone()));
            }
        }
        for i in 0..d.infos.len() {
            let mut path = Vec::new();
            let mut at = i;
            while let Some((p, name)) = &up[at] {
                path.push(&**name);
                at = *p;
            }
            for v in 0..n {
                let mut cur = self.vols[v].fs.root();
                for comp in path.iter().rev() {
                    cur = self.vols[v].fs.lookup(cur, comp)?;
                }
                d.infos[i].locals[v] = cur;
            }
            d.by_global.insert(d.infos[i].global(), i);
        }
        for v in 0..n {
            self.stripe_dirs[v] = self.vols[v].fs.lookup(self.vols[v].fs.root(), STRIPE_DIR)?;
        }
        self.names.get_mut().expect("name map poisoned").clear();
        // Sorted drain keeps the re-resolution op order (and therefore
        // the simulated clocks) deterministic across runs.
        let mut old: Vec<(Ino, Arc<StripeMeta>)> = self
            .stripes
            .get_mut()
            .expect("stripe registry poisoned")
            .drain()
            .collect();
        old.sort_by_key(|(g, _)| *g);
        for (_, mut meta) in old {
            let m = Arc::make_mut(&mut meta);
            let dlocal = d.infos[m.dir].locals[m.home];
            m.anchor = self.vols[m.home].fs.lookup(dlocal, &m.name)?;
            for k in 0..m.parts.len() {
                if m.parts[k].is_some() {
                    let pv = (m.home + 1 + k) % n;
                    m.parts[k] =
                        Some(self.vols[pv].fs.lookup(self.stripe_dirs[pv], &part_name(m.hash, k + 1))?);
                }
            }
            let g = tag(m.home, m.anchor);
            self.stripes.get_mut().expect("stripe registry poisoned").insert(g, meta);
        }
        Ok(())
    }
}

impl FileSystem for VolumeSet {
    fn label(&self) -> &str {
        &self.label
    }

    fn root(&self) -> Ino {
        tag(0, self.vols[0].fs.root())
    }

    fn lookup(&self, dir: Ino, name: &str) -> FsResult<Ino> {
        let _span = self.set_obs.span(OpKind::Lookup);
        let (di, home, dlocal) = self.dir_info(dir)?;
        if di == ROOT && name == STRIPE_DIR {
            return Err(FsError::NotFound);
        }
        let t0 = self.set_obs.clock_ns();
        let (r, t) = self.on(t0, home, |fs| fs.lookup(dlocal, name));
        self.set_obs.set_clock_ns(t);
        let local = r?;
        if let Some(g) = self.child_dir(di, name) {
            return Ok(g);
        }
        let g = tag(home, local);
        self.names
            .lock()
            .expect("name map poisoned")
            .entry(g)
            .or_insert_with(|| (di, name.into()));
        Ok(g)
    }

    fn getattr(&self, ino: Ino) -> FsResult<Attr> {
        let _span = self.set_obs.span(OpKind::Getattr);
        if let Ok((_, home, dlocal)) = self.dir_info(ino) {
            let t0 = self.set_obs.clock_ns();
            let (r, t) = self.on(t0, home, |fs| fs.getattr(dlocal));
            self.set_obs.set_clock_ns(t);
            return r.map(|a| Attr { ino, ..a });
        }
        let meta = self.stripes.lock().expect("stripe registry poisoned").get(&ino).cloned();
        match meta {
            None => {
                let (v, local) = (vol_of(ino), local_of(ino));
                let t0 = self.set_obs.clock_ns();
                let (r, t) = self.on(t0, v, |fs| fs.getattr(local));
                self.set_obs.set_clock_ns(t);
                r.map(|a| Attr { ino, ..a })
            }
            Some(m) => {
                let t0 = self.set_obs.clock_ns();
                let (r, mut t_end) = self.on(t0, m.home, |fs| fs.getattr(m.anchor));
                let mut blocks = 0;
                let mut nlink = 1;
                if let Ok(a) = &r {
                    blocks = a.blocks;
                    nlink = a.nlink;
                }
                if r.is_ok() {
                    let n = self.vols.len();
                    for (k, part) in m.parts.iter().enumerate() {
                        if let Some(p) = part {
                            let pv = (m.home + 1 + k) % n;
                            let (pr, t) = self.on(t0, pv, |fs| fs.getattr(*p));
                            t_end = t_end.max(t);
                            if let Ok(pa) = pr {
                                blocks += pa.blocks;
                            }
                        }
                    }
                }
                self.set_obs.set_clock_ns(t_end);
                r.map(|_| Attr { ino, kind: FileKind::File, size: m.size, nlink, blocks })
            }
        }
    }

    fn create(&self, dir: Ino, name: &str) -> FsResult<Ino> {
        let _span = self.set_obs.span(OpKind::Create);
        let (di, home, dlocal) = self.dir_info(dir)?;
        if di == ROOT && name == STRIPE_DIR {
            return Err(FsError::Exists);
        }
        let t0 = self.set_obs.clock_ns();
        let (r, t) = self.on(t0, home, |fs| fs.create(dlocal, name));
        self.set_obs.set_clock_ns(t);
        let local = r?;
        let g = tag(home, local);
        self.names
            .lock()
            .expect("name map poisoned")
            .insert(g, (di, name.into()));
        Ok(g)
    }

    fn mkdir(&self, dir: Ino, name: &str) -> FsResult<Ino> {
        let _span = self.set_obs.span(OpKind::Mkdir);
        let mut d = self.dirs.write().expect("dir map poisoned");
        let &pi = d.by_global.get(&dir).ok_or(FsError::NotDir)?;
        if pi == ROOT && name == STRIPE_DIR {
            return Err(FsError::Exists);
        }
        let parent = &d.infos[pi];
        let n = self.vols.len();
        let t0 = self.set_obs.clock_ns();
        // The parent's home volume goes first: it is the only volume
        // where `name` could exist as a *file*, so any Exists/BadName
        // surfaces before the skeleton is touched anywhere else.
        let first = parent.home;
        let (r, mut t_end) = self.on(t0, first, |fs| fs.mkdir(parent.locals[first], name));
        let first_local = match r {
            Ok(i) => i,
            Err(e) => {
                self.set_obs.set_clock_ns(t_end);
                return Err(e);
            }
        };
        let mut locals = vec![0 as Ino; n];
        locals[first] = first_local;
        for (v, local) in locals.iter_mut().enumerate() {
            if v == first {
                continue;
            }
            let (r, t) = self.on(t0, v, |fs| fs.mkdir(parent.locals[v], name));
            t_end = t_end.max(t);
            *local = r.map_err(|e| {
                FsError::Corrupt(format!("skeleton mkdir diverged on volume {v}: {e:?}"))
            })?;
        }
        self.set_obs.set_clock_ns(t_end);
        self.set_obs.bump(Ctr::VolDirFanouts);
        let path_hash = child_hash(parent.path_hash, name);
        let home = home_of(path_hash, n);
        // Mirror on the home volume's registry so merged per-volume
        // snapshots carry the same total as the set registry.
        self.vols[home].obs.bump(Ctr::VolDirFanouts);
        let info = DirInfo { path_hash, home, locals, children: HashMap::new() };
        let g = info.global();
        let idx = d.infos.len();
        d.infos[pi].children.insert(name.into(), idx);
        d.infos.push(info);
        d.by_global.insert(g, idx);
        Ok(g)
    }

    fn unlink(&self, dir: Ino, name: &str) -> FsResult<()> {
        let _span = self.set_obs.span(OpKind::Unlink);
        let (di, home, dlocal) = self.dir_info(dir)?;
        if di == ROOT && name == STRIPE_DIR {
            return Err(FsError::NotFound);
        }
        if self.child_dir(di, name).is_some() {
            return Err(FsError::IsDir);
        }
        let t0 = self.set_obs.clock_ns();
        // Resolve the victim first so the stripe registry and name map
        // can be cleaned by handle.
        let (r, t1) = self.on(t0, home, |fs| fs.lookup(dlocal, name));
        let local = match r {
            Ok(i) => i,
            Err(e) => {
                self.set_obs.set_clock_ns(t1);
                return Err(e);
            }
        };
        let g = tag(home, local);
        let meta = self.stripes.lock().expect("stripe registry poisoned").remove(&g);
        let mut t_end = t1;
        if let Some(m) = &meta {
            let n = self.vols.len();
            for (k, part) in m.parts.iter().enumerate() {
                if part.is_some() {
                    let pv = (m.home + 1 + k) % n;
                    let pname = part_name(m.hash, k + 1);
                    let pdir = self.stripe_dirs[pv];
                    let (r, t) = self.on(t0, pv, |fs| fs.unlink(pdir, &pname));
                    t_end = t_end.max(t);
                    // A missing part is a hole that was never written.
                    let _ = r;
                }
            }
        }
        let (r, t) = self.on(t0, home, |fs| fs.unlink(dlocal, name));
        t_end = t_end.max(t);
        self.set_obs.set_clock_ns(t_end);
        self.names.lock().expect("name map poisoned").remove(&g);
        r
    }

    fn read(&self, ino: Ino, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        let _span = self.set_obs.span(OpKind::Read);
        if self.is_dir(ino) {
            return Err(FsError::IsDir);
        }
        let meta = self.stripes.lock().expect("stripe registry poisoned").get(&ino).cloned();
        match meta {
            Some(m) => self.striped_read(&m, off, buf),
            None => {
                let (v, local) = (vol_of(ino), local_of(ino));
                let t0 = self.set_obs.clock_ns();
                let (r, t) = self.on(t0, v, |fs| fs.read(local, off, buf));
                self.set_obs.set_clock_ns(t);
                r
            }
        }
    }

    fn write(&self, ino: Ino, off: u64, data: &[u8]) -> FsResult<usize> {
        let _span = self.set_obs.span(OpKind::Write);
        if self.is_dir(ino) {
            return Err(FsError::IsDir);
        }
        let end = off + data.len() as u64;
        let mut reg = self.stripes.lock().expect("stripe registry poisoned");
        if let Some(m) = reg.get_mut(&ino) {
            return self.striped_write(Arc::make_mut(m), off, data);
        }
        if end <= self.cfg.stripe_threshold || self.vols.len() == 1 {
            drop(reg);
            let (v, local) = (vol_of(ino), local_of(ino));
            let t0 = self.set_obs.clock_ns();
            let (r, t) = self.on(t0, v, |fs| fs.write(local, off, data));
            self.set_obs.set_clock_ns(t);
            return r;
        }
        // Promotion: the write ends past the threshold. Bytes [0, T)
        // stay in the (already ≤ T bytes long) home-volume anchor — no
        // data moves, the registry entry is the whole promotion.
        let named = self.names.lock().expect("name map poisoned").get(&ino).cloned();
        let Some((dir, name)) = named else {
            // Unknown handle (never seen by create/lookup/readdir):
            // keep it whole on its home volume rather than guess.
            drop(reg);
            let (v, local) = (vol_of(ino), local_of(ino));
            let t0 = self.set_obs.clock_ns();
            let (r, t) = self.on(t0, v, |fs| fs.write(local, off, data));
            self.set_obs.set_clock_ns(t);
            return r;
        };
        let (home, anchor) = (vol_of(ino), local_of(ino));
        let t0 = self.set_obs.clock_ns();
        let (r, t) = self.on(t0, home, |fs| fs.getattr(anchor));
        self.set_obs.set_clock_ns(t);
        let size = r?.size;
        let dir_hash = self.dirs.read().expect("dir map poisoned").infos[dir].path_hash;
        let mut m = StripeMeta {
            hash: child_hash(dir_hash, &name),
            dir,
            name,
            home,
            anchor,
            size,
            parts: Vec::new(),
        };
        self.set_obs.bump(Ctr::VolStripePromotions);
        self.vols[home].obs.bump(Ctr::VolStripePromotions);
        let w = self.striped_write(&mut m, off, data);
        reg.insert(ino, Arc::new(m));
        w
    }

    fn readdir(&self, dir: Ino) -> FsResult<Vec<DirEntry>> {
        let _span = self.set_obs.span(OpKind::Readdir);
        let (di, home, dlocal) = self.dir_info(dir)?;
        let t0 = self.set_obs.clock_ns();
        let (r, t) = self.on(t0, home, |fs| fs.readdir(dlocal));
        self.set_obs.set_clock_ns(t);
        let entries = r?;
        let d = self.dirs.read().expect("dir map poisoned");
        let mut names = self.names.lock().expect("name map poisoned");
        Ok(entries
            .into_iter()
            .filter_map(|e| {
                if di == ROOT && e.name == STRIPE_DIR {
                    return None;
                }
                let g = match e.kind {
                    FileKind::Dir => match d.infos[di].children.get(e.name.as_str()) {
                        Some(&i) => d.infos[i].global(),
                        None => tag(home, e.ino),
                    },
                    FileKind::File => {
                        let g = tag(home, e.ino);
                        names.entry(g).or_insert_with(|| (di, e.name.as_str().into()));
                        g
                    }
                };
                Some(DirEntry { name: e.name, ino: g, kind: e.kind })
            })
            .collect())
    }

    fn sync(&self) -> FsResult<()> {
        let _span = self.set_obs.span(OpKind::Sync);
        let t0 = self.set_obs.clock_ns();
        let mut t_end = t0;
        let mut ret = Ok(());
        for v in 0..self.vols.len() {
            let (r, t) = self.on(t0, v, |fs| fs.sync());
            t_end = t_end.max(t);
            if ret.is_ok() {
                ret = r;
            }
        }
        self.set_obs.set_clock_ns(t_end);
        ret
    }

    // Refused whole rather than applied to some volumes (module docs).

    fn rmdir(&self, _dir: Ino, _name: &str) -> FsResult<()> {
        Err(FsError::Unsupported)
    }

    fn link(&self, _target: Ino, _dir: Ino, _name: &str) -> FsResult<Ino> {
        Err(FsError::Unsupported)
    }

    fn rename(&self, _odir: Ino, _oname: &str, _ndir: Ino, _nname: &str) -> FsResult<Ino> {
        Err(FsError::Unsupported)
    }

    fn truncate(&self, _ino: Ino, _size: u64) -> FsResult<()> {
        Err(FsError::Unsupported)
    }

    /// Field-wise sum of [`VolumeSet::statfs_vol`] over the volumes.
    fn statfs(&self) -> FsResult<StatFs> {
        let mut out = self.statfs_vol(0)?;
        for v in 1..self.vols.len() {
            let s = self.statfs_vol(v)?;
            out.total_blocks += s.total_blocks;
            out.free_blocks += s.free_blocks;
            out.group_slack_blocks += s.group_slack_blocks;
            // `u64::MAX` means "dynamic" and must stay so.
            out.total_inodes = out.total_inodes.saturating_add(s.total_inodes);
            out.free_inodes = out.free_inodes.saturating_add(s.free_inodes);
        }
        Ok(out)
    }

    fn now(&self) -> SimTime {
        SimTime(self.set_obs.clock_ns())
    }

    fn io_stats(&self) -> IoStats {
        VolumeSet::io_stats(self)
    }

    fn drop_caches(&self) -> FsResult<()> {
        self.drop_caches_all()
    }

    fn obs(&self) -> Option<Arc<Obs>> {
        Some(Arc::clone(&self.set_obs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cffs_disksim::models;

    fn small_set(n: usize) -> VolumeSet {
        let disks = (0..n).map(|_| Disk::new(models::tiny_test_disk())).collect();
        let cfg = VolumeCfg::new(CffsConfig::cffs())
            .with_mkfs(MkfsParams::tiny())
            .with_stripes(8 * 1024, 8 * 1024);
        VolumeSet::format(disks, cfg).expect("format")
    }

    #[test]
    fn ino_tagging_round_trips() {
        for v in [0usize, 1, 7, 254] {
            for local in [cffs_core::layout::INO_ROOT, 0x1234, (1 << 40) - 1] {
                let g = tag(v, local);
                assert_eq!(vol_of(g), v);
                assert_eq!(local_of(g), local);
            }
        }
    }

    #[test]
    fn child_hash_continues_the_parent_path_hash() {
        let ab = child_hash(child_hash(hash64(""), "a"), "b");
        assert_eq!(ab, hash64("/a/b"));
        assert_eq!(child_hash(ab, "f.c"), hash64("/a/b/f.c"));
    }

    #[test]
    fn skeleton_replicates_and_files_shard() {
        let vs = small_set(3);
        let root = vs.root();
        let d1 = vs.mkdir(root, "a").unwrap();
        let d2 = vs.mkdir(d1, "b").unwrap();
        for v in 0..3 {
            // every volume has /a/b
            let mut cur = vs.vols[v].fs.root();
            cur = vs.vols[v].fs.lookup(cur, "a").unwrap();
            vs.vols[v].fs.lookup(cur, "b").unwrap();
        }
        let f = vs.create(d2, "f").unwrap();
        assert_eq!(vol_of(f), home_of(hash64("/a/b"), 3), "file lives on its dir's home");
        assert_eq!(vs.lookup(d2, "f").unwrap(), f);
        let got = vs.readdir(d2).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].ino, f);
        // the hidden stripe dir never shows through the set namespace
        assert!(vs.readdir(root).unwrap().iter().all(|e| e.name != STRIPE_DIR));
        assert!(matches!(vs.lookup(root, STRIPE_DIR), Err(FsError::NotFound)));
    }

    #[test]
    fn small_files_stay_whole_large_files_stripe() {
        let vs = small_set(3);
        let root = vs.root();
        let small = vs.create(root, "small").unwrap();
        vs.write(small, 0, &[7u8; 4096]).unwrap();
        assert_eq!(vs.stripe_count(), 0);
        let big = vs.create(root, "big").unwrap();
        let data: Vec<u8> = (0..40 * 1024u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(vs.write(big, 0, &data).unwrap(), data.len());
        assert_eq!(vs.stripe_count(), 1);
        assert!(vs.set_obs.get(Ctr::VolStripePromotions) == 1);
        assert!(vs.set_obs.get(Ctr::VolStripePartIos) > 0);
        let a = vs.getattr(big).unwrap();
        assert_eq!(a.size, data.len() as u64);
        let mut back = vec![0u8; data.len()];
        assert_eq!(vs.read(big, 0, &mut back).unwrap(), data.len());
        assert_eq!(back, data);
        // unaligned mid-stripe read
        let mut mid = vec![0u8; 5000];
        let got = vs.read(big, 9000, &mut mid).unwrap();
        assert_eq!(got, 5000);
        assert_eq!(&mid[..], &data[9000..14000]);
        // read past EOF clamps
        let mut tail = vec![0u8; 4096];
        let got = vs.read(big, data.len() as u64 - 100, &mut tail).unwrap();
        assert_eq!(got, 100);
        vs.sync().unwrap();
        for rep in vs.fsck_all().unwrap() {
            assert!(rep.clean(), "fsck: {:?}", rep.errors);
        }
    }

    #[test]
    fn sparse_stripe_holes_read_zero() {
        let vs = small_set(2);
        let root = vs.root();
        let f = vs.create(root, "sparse").unwrap();
        // write only far past the threshold: anchor and early parts are holes
        vs.write(f, 30 * 1024, &[9u8; 1024]).unwrap();
        let a = vs.getattr(f).unwrap();
        assert_eq!(a.size, 31 * 1024);
        let mut buf = vec![1u8; 31 * 1024];
        assert_eq!(vs.read(f, 0, &mut buf).unwrap(), 31 * 1024);
        assert!(buf[..30 * 1024].iter().all(|&b| b == 0));
        assert!(buf[30 * 1024..].iter().all(|&b| b == 9));
    }

    #[test]
    fn unlink_removes_stripe_parts() {
        let vs = small_set(3);
        let root = vs.root();
        let f = vs.create(root, "big").unwrap();
        vs.write(f, 0, &vec![3u8; 50 * 1024]).unwrap();
        assert_eq!(vs.stripe_count(), 1);
        vs.unlink(root, "big").unwrap();
        assert_eq!(vs.stripe_count(), 0);
        for v in 0..3 {
            let sd = vs.vols[v].fs.lookup(vs.vols[v].fs.root(), STRIPE_DIR).unwrap();
            assert!(vs.vols[v].fs.readdir(sd).unwrap().is_empty(), "parts left on vol {v}");
        }
        vs.sync().unwrap();
        for rep in vs.fsck_all().unwrap() {
            assert!(rep.clean(), "fsck: {:?}", rep.errors);
        }
    }

    #[test]
    fn regroup_all_renumbers_and_survives() {
        let mut vs = small_set(2);
        let root = vs.root();
        let d = vs.mkdir(root, "proj").unwrap();
        let mut files = Vec::new();
        for i in 0..8 {
            let f = vs.create(d, &format!("f{i}")).unwrap();
            vs.write(f, 0, &[i as u8; 2048]).unwrap();
            files.push(f);
        }
        let big = vs.create(d, "big").unwrap();
        let data: Vec<u8> = (0..24 * 1024u32).map(|i| (i % 253) as u8).collect();
        vs.write(big, 0, &data).unwrap();
        vs.sync().unwrap();
        vs.regroup_all(&RegroupConfig::exhaustive()).unwrap();
        // handles renumbered: re-resolve everything from the root
        let d = vs.lookup(vs.root(), "proj").unwrap();
        for i in 0..8 {
            let f = vs.lookup(d, &format!("f{i}")).unwrap();
            let mut buf = vec![0u8; 2048];
            assert_eq!(vs.read(f, 0, &mut buf).unwrap(), 2048);
            assert!(buf.iter().all(|&b| b == i as u8));
        }
        let big = vs.lookup(d, "big").unwrap();
        let mut back = vec![0u8; data.len()];
        assert_eq!(vs.read(big, 0, &mut back).unwrap(), data.len());
        assert_eq!(back, data);
        for rep in vs.fsck_all().unwrap() {
            assert!(rep.clean(), "fsck: {:?}", rep.errors);
        }
    }

    #[test]
    fn merged_snapshot_sums_volumes() {
        let vs = small_set(2);
        let root = vs.root();
        let f = vs.create(root, "f").unwrap();
        vs.write(f, 0, &[1u8; 1024]).unwrap();
        vs.sync().unwrap();
        let merged = vs.merged_snapshot("set");
        let per: u64 = (0..2).map(|v| vs.vol_snapshot(v, "v").get(Ctr::DiskWrites)).sum();
        assert_eq!(merged.get(Ctr::DiskWrites), per);
        assert_eq!(merged.sim_ns, vs.set_obs.global_clock_ns());
    }
}
