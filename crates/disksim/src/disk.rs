//! The disk service engine: combines geometry, seek curve, rotation, the
//! on-board cache and the sector store into a single device that services
//! one request at a time and keeps a consistent mechanical state.

use crate::cache::{OnboardCache, OnboardCacheConfig};
use crate::driver::{Payload, Piece};
use crate::geometry::{slot_angle, ChsPos, Geometry};
use crate::seek::SeekCurve;
use crate::store::SectorStore;
use crate::time::{SimDuration, SimTime};
use crate::SECTOR_SIZE;
use cffs_obs::json::{FromJson, Json, JsonError, ToJson};
use cffs_obs::{obj, Ctr, Obs};
use std::sync::Arc;

/// Static description of a drive: everything needed to predict service times.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskModel {
    /// Marketing name, e.g. `"Seagate ST31200N"`.
    pub name: String,
    /// Platter geometry.
    pub geometry: Geometry,
    /// Seek-time curve.
    pub seek: SeekCurve,
    /// Spindle speed in revolutions per minute.
    pub rpm: u32,
    /// Head-switch (track-to-track, same cylinder) time.
    pub head_switch: SimDuration,
    /// Additional settle time charged on writes (vendors quote write seeks
    /// slightly above read seeks; Table 1's parenthesized figures).
    pub write_settle: SimDuration,
    /// Fixed per-request controller/command overhead.
    pub controller_overhead: SimDuration,
    /// Bus bandwidth in MB/s (used for on-board cache hits).
    pub bus_mb_per_s: f64,
    /// On-board cache configuration.
    pub cache: OnboardCacheConfig,
}

impl ToJson for DiskModel {
    fn to_json(&self) -> Json {
        obj![
            ("name", self.name.to_json()),
            ("geometry", self.geometry.to_json()),
            ("seek", self.seek.to_json()),
            ("rpm", self.rpm.to_json()),
            ("head_switch", self.head_switch.to_json()),
            ("write_settle", self.write_settle.to_json()),
            ("controller_overhead", self.controller_overhead.to_json()),
            ("bus_mb_per_s", self.bus_mb_per_s.to_json()),
            ("cache", self.cache.to_json()),
        ]
    }
}

impl FromJson for DiskModel {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(DiskModel {
            name: String::from_json(j.want("name")?)?,
            geometry: Geometry::from_json(j.want("geometry")?)?,
            seek: SeekCurve::from_json(j.want("seek")?)?,
            rpm: u32::from_json(j.want("rpm")?)?,
            head_switch: SimDuration::from_json(j.want("head_switch")?)?,
            write_settle: SimDuration::from_json(j.want("write_settle")?)?,
            controller_overhead: SimDuration::from_json(j.want("controller_overhead")?)?,
            bus_mb_per_s: f64::from_json(j.want("bus_mb_per_s")?)?,
            cache: OnboardCacheConfig::from_json(j.want("cache")?)?,
        })
    }
}

impl DiskModel {
    /// Duration of one platter revolution.
    pub fn revolution(&self) -> SimDuration {
        SimDuration::from_nanos(60_000_000_000 / self.rpm as u64)
    }

    /// Media transfer rate at the given cylinder, in MB/s.
    pub fn media_rate_at(&self, cyl: u32) -> f64 {
        let spt = self.geometry.sectors_per_track_at(cyl) as f64;
        let bytes_per_rev = spt * SECTOR_SIZE as f64;
        bytes_per_rev / self.revolution().as_secs_f64() / 1e6
    }

    /// Usable capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.geometry.total_sectors() * SECTOR_SIZE as u64
    }

    /// The one positioning model: where a media access (one that misses
    /// the on-board cache) of `nsect` sectors at `lba` leaves the drive
    /// when service starts at `start` with the arm over cylinder `arm`.
    /// Pure, and in two parts: the access's own geometry (`run`), then
    /// the seek and rotation that reach it (`reach`). [`Disk`] services
    /// every media request through it, and the driver's scheduler and
    /// [`DiskModel::earliest_sector`] predict completions with the same
    /// parts.
    pub fn position(&self, start: SimTime, arm: u32, lba: u64, nsect: u64, write: bool) -> Positioning {
        self.reach(start, arm, &self.run(lba, nsect), write)
    }

    /// The time-independent part of [`DiskModel::position`]: where a
    /// media access of `nsect` sectors at `lba` starts, how long its
    /// transfer takes and where it leaves the arm.
    pub(crate) fn run(&self, lba: u64, nsect: u64) -> Run {
        let rev_s = self.revolution().as_secs_f64();
        let pos = self.geometry.lba_to_chs(lba);
        // Media transfer: walk the run track by track, paying switch costs
        // (hidden by skew when the skew is large enough).
        let mut remaining = nsect;
        let mut cur = pos;
        let mut transfer = SimDuration::ZERO;
        while remaining > 0 {
            let on_track = (cur.sectors_per_track - cur.sector) as u64;
            let take = on_track.min(remaining);
            transfer += track_time(take, cur.sectors_per_track, rev_s);
            remaining -= take;
            if remaining == 0 {
                break;
            }
            // Advance to the start of the next track.
            let (next_cyl, next_head, crossing_cyl) = if cur.head + 1 < self.geometry.heads {
                (cur.cylinder, cur.head + 1, false)
            } else {
                (cur.cylinder + 1, 0, true)
            };
            let spt_next = self.geometry.sectors_per_track_at(next_cyl);
            let skew_sectors = if crossing_cyl {
                self.geometry.track_skew + self.geometry.cylinder_skew
            } else {
                self.geometry.track_skew
            } as f64;
            let skew_time = SimDuration::from_secs_f64(skew_sectors / spt_next as f64 * rev_s);
            let switch = if crossing_cyl {
                self.seek.seek_time(1).max(self.head_switch)
            } else {
                self.head_switch
            };
            // If the skew hides the switch we pay only the skew's rotation;
            // otherwise the switch overruns and we lose a full revolution
            // minus the slack — model the common case as max(switch, skew).
            transfer += switch.max(skew_time);
            cur = ChsPos { cylinder: next_cyl, head: next_head, sector: 0, sectors_per_track: spt_next };
        }
        Run { cylinder: pos.cylinder, angle: self.geometry.sector_angle(pos), transfer, end_cylinder: cur.cylinder }
    }

    /// The time-dependent part of [`DiskModel::position`]: the access
    /// `run`, reached by a seek from cylinder `arm` and the platter's turn
    /// when service starts at `start`.
    pub(crate) fn reach(&self, start: SimTime, arm: u32, run: &Run, write: bool) -> Positioning {
        let a = self.arrive(start, arm, run.cylinder, write);
        a.complete(wait_for(a.angle, run.angle), run.transfer, run.end_cylinder, self.revolution().as_secs_f64())
    }

    /// Of the one-sector accesses to the sectors `lba + i` of each
    /// `(lba, free)` of `cands` whose bit `i` is set in `free`, the one
    /// that completes first when service starts at `start` with the arm
    /// over `arm`: the index of its `cands` entry, its `i`, and exactly
    /// the [`Positioning`] that [`DiskModel::position`] gives it; the
    /// lowest `(index, i)` on a tie. `None` when no bit is set.
    ///
    /// It steps from free sector to free sector, mapping each entry's
    /// `lba` once, and works a cylinder at a time. There the arm's
    /// arrival — the seek and the platter's angle when it settles — is
    /// shared, and the sector with the least rotational wait completes
    /// first: a cylinder has one track size, so its sectors' angles
    /// differ by whole sectors, far more than the nanosecond rounding.
    /// One arrival and one completion are evaluated each time the next
    /// free sector lies on another cylinder, so once per cylinder when
    /// the candidates ascend, as a directory's blocks mostly do.
    pub fn earliest_sector(
        &self,
        start: SimTime,
        arm: u32,
        cands: impl IntoIterator<Item = (u64, u64)>,
        write: bool,
    ) -> Option<(usize, u32, Positioning)> {
        let rev_s = self.revolution().as_secs_f64();
        let mut best: Option<(usize, u32, Positioning)> = None;
        // The current cylinder's arrival and track size, and its
        // least-wait sector so far: `(index, i, wait)`.
        let mut here: Option<(Arrival, u32)> = None;
        let mut win: Option<(usize, u32, f64)> = None;
        let mut settle = |here: Option<(Arrival, u32)>, win: Option<(usize, u32, f64)>| {
            if let (Some((a, spt)), Some((k, i, wait))) = (here, win) {
                let p = a.complete(wait, track_time(1, spt, rev_s), a.cylinder, rev_s);
                if best.is_none_or(|b| p.done < b.2.done) {
                    best = Some((k, i, p));
                }
            }
        };
        for (k, (lba, free)) in cands.into_iter().enumerate() {
            if free == 0 {
                continue;
            }
            let mut pos = self.geometry.lba_to_chs(lba);
            let mut slot = self.geometry.rotational_slot(pos);
            let (mut at, mut bits) = (0, free);
            while bits != 0 {
                // Step on to the next free sector, `lba + i`, as
                // `lba_to_chs` places it: at once within the track, sector
                // by sector across a track or cylinder boundary.
                let i = bits.trailing_zeros();
                bits &= bits - 1;
                let d = i - at;
                at = i;
                if pos.sector + d < pos.sectors_per_track {
                    pos.sector += d;
                    slot += d;
                    if slot >= pos.sectors_per_track {
                        slot -= pos.sectors_per_track;
                    }
                } else {
                    for _ in 0..d {
                        pos.sector += 1;
                        slot = if slot + 1 == pos.sectors_per_track { 0 } else { slot + 1 };
                        if pos.sector == pos.sectors_per_track {
                            pos.sector = 0;
                            pos.head += 1;
                            if pos.head == self.geometry.heads {
                                pos.head = 0;
                                pos.cylinder += 1;
                                pos.sectors_per_track = self.geometry.sectors_per_track_at(pos.cylinder);
                            }
                            slot = self.geometry.rotational_slot(pos);
                        }
                    }
                }
                let a = match here {
                    Some((a, _)) if a.cylinder == pos.cylinder => a,
                    _ => {
                        settle(here, win.take());
                        let a = self.arrive(start, arm, pos.cylinder, write);
                        here = Some((a, pos.sectors_per_track));
                        a
                    }
                };
                let wait = wait_for(a.angle, slot_angle(slot, pos.sectors_per_track));
                if win.is_none_or(|w| wait < w.2) {
                    win = Some((k, i, wait));
                }
            }
        }
        settle(here, win);
        best
    }

    /// The arm's arrival over cylinder `cyl` for an access that starts
    /// service at `start` with the arm over `arm`.
    fn arrive(&self, start: SimTime, arm: u32, cyl: u32, write: bool) -> Arrival {
        let dist = cyl.abs_diff(arm);
        let mut seek = self.seek.seek_time(dist);
        if write && dist > 0 {
            seek += self.write_settle;
        }
        let at = start + self.controller_overhead + seek;
        Arrival { cylinder: cyl, seek_cylinders: dist, seek, at, angle: angle_at(at, self.revolution()) }
    }
}

/// The time-independent part of a media access (see [`DiskModel::run`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Run {
    /// Cylinder the access starts on.
    pub(crate) cylinder: u32,
    /// Platter angle, in revolutions, at which its first sector starts.
    angle: f64,
    /// Media transfer, track and cylinder switches included.
    transfer: SimDuration,
    /// Cylinder the arm rests over afterwards.
    pub(crate) end_cylinder: u32,
}

/// The arm settled over a cylinder (see [`DiskModel::arrive`]).
#[derive(Debug, Clone, Copy)]
struct Arrival {
    cylinder: u32,
    /// Cylinders the arm moved.
    seek_cylinders: u32,
    /// Seek time, write settle included.
    seek: SimDuration,
    /// When the arm has settled.
    at: SimTime,
    /// The platter's angle then.
    angle: f64,
}

impl Arrival {
    /// The [`Positioning`] of an access from here: a rotational wait of
    /// `wait` revolutions (of `rev_s` seconds) for its first sector, then
    /// a `transfer` that leaves the arm over `cylinder`.
    fn complete(&self, wait: f64, transfer: SimDuration, cylinder: u32, rev_s: f64) -> Positioning {
        let rotation = SimDuration::from_secs_f64(wait * rev_s);
        Positioning {
            seek_cylinders: self.seek_cylinders,
            seek: self.seek,
            rotation,
            transfer,
            done: self.at + rotation + transfer,
            cylinder,
        }
    }
}

/// How far a platter turning once per `rev` has turned at `t`, in
/// revolutions, in `[0, 1)`.
fn angle_at(t: SimTime, rev: SimDuration) -> f64 {
    let r = rev.as_nanos();
    (t.as_nanos() % r) as f64 / r as f64
}

/// Rotational latency, in revolutions, from platter angle `now` to angle
/// `at`, where the wanted sector starts.
fn wait_for(now: f64, at: f64) -> f64 {
    let wait = at - now;
    if wait < 0.0 {
        wait + 1.0
    } else {
        wait
    }
}

/// Media time for `sectors` consecutive sectors of one track of `spt`
/// sectors, at `rev_s` seconds per revolution.
fn track_time(sectors: u64, spt: u32, rev_s: f64) -> SimDuration {
    SimDuration::from_secs_f64(sectors as f64 / spt as f64 * rev_s)
}

/// What one media access costs and where it leaves the arm (see
/// [`DiskModel::position`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Positioning {
    /// Cylinders the arm moved to reach the request.
    pub seek_cylinders: u32,
    /// Seek time, write settle included.
    pub seek: SimDuration,
    /// Wait for the first sector to come under the head.
    pub rotation: SimDuration,
    /// Media transfer, track and cylinder switches included.
    pub transfer: SimDuration,
    /// Completion time (controller overhead included).
    pub done: SimTime,
    /// Cylinder the arm rests over afterwards.
    pub cylinder: u32,
}

/// One serviced request, for access-pattern analysis (recording is off by
/// default; see [`Disk::set_trace`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEntry {
    /// When service began.
    pub start: SimTime,
    /// Starting sector.
    pub lba: u64,
    /// Sectors transferred.
    pub sectors: u64,
    /// Write (vs read).
    pub write: bool,
    /// Cylinders the arm moved to reach the request (0 on cache hits).
    pub seek_cylinders: u32,
    /// Total service time.
    pub service: SimDuration,
    /// Serviced from the on-board cache.
    pub cache_hit: bool,
}

/// The direction of one transfer, with the memory it moves.
pub(crate) enum Xfer<'a, P: ?Sized> {
    /// Fill the payload from the platter.
    Read(&'a mut P),
    /// Put the payload on the platter.
    Write(&'a P),
}

/// A simulated drive: model + mechanical state + contents. What it
/// services is counted in its [`Obs`] registry.
#[derive(Debug)]
pub struct Disk {
    model: DiskModel,
    cache: OnboardCache,
    store: SectorStore,
    /// Cylinder the arm currently sits over.
    arm_cylinder: u32,
    /// Completion time of the last request (the drive is busy until then).
    last_completion: SimTime,
    /// The driver's scratch for one cylinder's runs (see
    /// [`Disk::planner`]), sized for a whole cylinder of one-sector runs.
    runs: Vec<(usize, Run)>,
    /// The most recent mechanical write: `(lba, contents overwritten)` —
    /// kept so a crash can be simulated *mid-write* (see
    /// [`Disk::clone_image_torn`]).
    last_write_undo: Option<(u64, Vec<u8>)>,
    /// Request trace, populated only while enabled.
    trace: Option<Vec<TraceEntry>>,
    /// Cross-layer observability handle (shared with driver/cache/fs).
    obs: Arc<Obs>,
}

impl Disk {
    /// Create a new, zero-filled drive.
    pub fn new(model: DiskModel) -> Self {
        let cache = OnboardCache::new(model.cache);
        let g = &model.geometry;
        let per_cylinder = g.heads as usize * g.zones.iter().map(|z| z.sectors_per_track as usize).max().unwrap_or(0);
        Disk {
            cache,
            store: SectorStore::new(),
            arm_cylinder: 0,
            last_completion: SimTime::ZERO,
            runs: Vec::with_capacity(per_cylinder),
            model,
            last_write_undo: None,
            trace: None,
            obs: Obs::new(),
        }
    }

    /// The model, with room to plan a batch's runs one cylinder at a time:
    /// a cylinder holds no more runs than sectors, so the scratch never
    /// grows and a batch's planning makes no heap request.
    pub(crate) fn planner(&mut self) -> (&DiskModel, &mut Vec<(usize, Run)>) {
        (&self.model, &mut self.runs)
    }

    /// The observability handle (counters + trace ring). The upper layers
    /// of a stack clone this so one snapshot covers the whole path.
    pub fn obs(&self) -> Arc<Obs> {
        Arc::clone(&self.obs)
    }

    /// Replace the observability handle (to share one across stacks).
    pub fn set_obs(&mut self, obs: Arc<Obs>) {
        self.obs = obs;
    }

    /// The drive's static model.
    pub fn model(&self) -> &DiskModel {
        &self.model
    }

    /// Total addressable sectors.
    pub fn capacity_sectors(&self) -> u64 {
        self.model.geometry.total_sectors()
    }

    /// Enable or disable per-request trace recording (disabled by default;
    /// enabling clears any previous trace).
    pub fn set_trace(&mut self, on: bool) {
        self.trace = on.then(Vec::new);
    }

    /// The recorded trace (empty when recording is off).
    pub fn trace(&self) -> &[TraceEntry] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Cylinder the arm currently rests over (for scheduler decisions).
    pub fn arm_cylinder(&self) -> u32 {
        self.arm_cylinder
    }

    /// Completion time of the last request: a request submitted earlier
    /// starts then (for scheduler decisions).
    pub fn busy_until(&self) -> SimTime {
        self.last_completion
    }

    /// Drop the on-board cache contents (e.g. simulating a power cycle).
    pub fn flush_onboard_cache(&mut self) {
        self.cache.flush();
    }

    /// Clone the *contents* of this drive onto a fresh drive of the same
    /// model (mechanical state and on-board cache reset, a fresh counter
    /// registry). This is the crash-simulation primitive: the clone is
    /// "the disk as a power-cycle would find it".
    pub fn clone_image(&self) -> Disk {
        let mut d = Disk::new(self.model.clone());
        d.store = self.store.clone();
        d
    }

    /// Save the disk image (contents + model) to a file, so file systems
    /// persist across runs and tools like `cffs-inspect` can examine them.
    ///
    /// # Errors
    /// I/O errors from the underlying file.
    pub fn save_image(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        let model = self.model.to_json().to_string().into_bytes();
        use std::io::Write as _;
        f.write_all(&(model.len() as u64).to_le_bytes())?;
        f.write_all(&model)?;
        self.store.save_to(&mut f)
    }

    /// Load a disk image saved by [`Disk::save_image`].
    ///
    /// # Errors
    /// I/O errors, or `InvalidData` for a malformed file.
    pub fn load_image(path: &std::path::Path) -> std::io::Result<Disk> {
        let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
        use std::io::Read as _;
        let mut n8 = [0u8; 8];
        f.read_exact(&mut n8)?;
        let mut model_bytes = vec![0u8; u64::from_le_bytes(n8) as usize];
        f.read_exact(&mut model_bytes)?;
        let invalid = |e: JsonError| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
        let model_text = std::str::from_utf8(&model_bytes).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, e)
        })?;
        let model = DiskModel::from_json(&cffs_obs::json::parse(model_text).map_err(invalid)?)
            .map_err(invalid)?;
        let store = SectorStore::load_from(&mut f)?;
        let mut d = Disk::new(model);
        d.store = store;
        Ok(d)
    }

    /// Like [`Disk::clone_image`], but the crash happens *during* the most
    /// recent write: only its first `keep_sectors` sectors reached the
    /// platter; the rest still hold their prior contents. Sectors
    /// themselves are never torn — the per-sector atomicity that real
    /// drives guarantee and that embedded inodes rely on ("by keeping the
    /// two items in the same sector, we can guarantee that they will be
    /// consistent with respect to each other").
    ///
    /// Returns `None` if no write has happened yet.
    pub fn clone_image_torn(&self, keep_sectors: usize) -> Option<Disk> {
        let (lba, ref old) = *self.last_write_undo.as_ref()?;
        let mut d = self.clone_image();
        let total = old.len() / SECTOR_SIZE;
        if keep_sectors < total {
            let skip = keep_sectors * SECTOR_SIZE;
            d.store.write(lba + keep_sectors as u64, &old[skip..]);
        }
        Some(d)
    }

    /// Direct, *timing-free* access to sector contents. Used by mkfs-style
    /// tools, crash-image capture and fsck tests, where charging mechanical
    /// time would pollute measurements.
    pub fn raw_read(&self, lba: u64, buf: &mut [u8]) {
        self.store.read(lba, buf);
    }

    /// Direct, timing-free write. See [`Disk::raw_read`].
    pub fn raw_write(&mut self, lba: u64, buf: &[u8]) {
        self.cache.invalidate(lba, (buf.len() / SECTOR_SIZE) as u64);
        self.store.write(lba, buf);
    }

    /// Read `buf.len()` bytes at sector `lba`, starting no earlier than
    /// `now`. Returns the completion time.
    ///
    /// # Panics
    /// Panics if the range is unaligned or beyond the end of the disk.
    pub fn read(&mut self, now: SimTime, lba: u64, buf: &mut [u8]) -> SimTime {
        self.transfer(now, lba, Xfer::Read(buf))
    }

    /// Write `buf.len()` bytes at sector `lba`, starting no earlier than
    /// `now`. Returns the completion time.
    ///
    /// # Panics
    /// Panics if the range is unaligned or beyond the end of the disk.
    pub fn write(&mut self, now: SimTime, lba: u64, buf: &[u8]) -> SimTime {
        self.transfer(now, lba, Xfer::Write(buf))
    }

    /// Service one request for the whole payload at `lba`, starting no
    /// earlier than `now`, and move its bytes in place: the store lends a
    /// read's block pieces its chunks (a handle each, no copy) and copies
    /// into its byte pieces; a write's pieces are gathered into the store.
    /// Returns the completion time.
    pub(crate) fn transfer<P: Payload + ?Sized>(
        &mut self,
        now: SimTime,
        lba: u64,
        xfer: Xfer<'_, P>,
    ) -> SimTime {
        let (len, write) = match &xfer {
            Xfer::Read(p) => (p.byte_len(), false),
            Xfer::Write(p) => (p.byte_len(), true),
        };
        let n = self.check_range(lba, len);
        let done = self.service(now, lba, n, write);
        let mut at = lba;
        match xfer {
            Xfer::Read(p) => {
                p.scatter(&mut |piece| {
                    let len = match piece {
                        Piece::Bytes(buf) => {
                            self.store.read(at, buf);
                            buf.len()
                        }
                        Piece::Block(block) => {
                            self.store.lend(at, block);
                            block.len()
                        }
                    };
                    at += (len / SECTOR_SIZE) as u64;
                });
                self.obs.bump(Ctr::DiskReads);
                self.obs.add(Ctr::DiskBytesRead, n * SECTOR_SIZE as u64);
            }
            Xfer::Write(p) => {
                self.cache.invalidate(lba, n);
                // Remember what this write destroys, for mid-write crash
                // injection, in the previous write's undo buffer.
                let (undo_lba, old) =
                    self.last_write_undo.get_or_insert_with(|| (lba, Vec::new()));
                *undo_lba = lba;
                old.resize(len, 0);
                self.store.read(lba, old);
                p.gather(&mut |piece| {
                    self.store.write(at, piece);
                    at += (piece.len() / SECTOR_SIZE) as u64;
                });
                self.obs.bump(Ctr::DiskWrites);
                self.obs.add(Ctr::DiskBytesWritten, n * SECTOR_SIZE as u64);
            }
        }
        self.obs.bump(Ctr::DiskRequests);
        done
    }

    fn check_range(&self, lba: u64, len: usize) -> u64 {
        assert!(len > 0 && len.is_multiple_of(SECTOR_SIZE), "unaligned transfer of {len} bytes");
        let n = (len / SECTOR_SIZE) as u64;
        assert!(
            lba + n <= self.capacity_sectors(),
            "transfer [{lba}, {}) beyond end of disk ({} sectors)",
            lba + n,
            self.capacity_sectors()
        );
        n
    }

    /// Compute the service time for a request and advance mechanical state.
    fn service(&mut self, now: SimTime, lba: u64, nsect: u64, is_write: bool) -> SimTime {
        // The drive can't start before the previous request finished.
        let start = now.max(self.last_completion);

        if !is_write && self.cache.hit(lba, nsect) {
            // Cache hit: bus transfer only.
            let bytes = nsect * SECTOR_SIZE as u64;
            let xfer = SimDuration::from_secs_f64(bytes as f64 / (self.model.bus_mb_per_s * 1e6));
            let t = start + self.model.controller_overhead + xfer;
            self.last_completion = t;
            self.obs.bump(Ctr::DiskCacheHits);
            self.obs.add(Ctr::DiskTransferNs, xfer.as_nanos());
            self.obs.add(Ctr::DiskServiceNs, (t - start).as_nanos());
            self.obs.histos().disk_req_sectors.record(nsect);
            self.obs.histos().disk_req_service_ns.record((t - start).as_nanos());
            self.obs
                .trace_io(start.as_nanos(), "disk.cache_hit", lba, nsect, (t - start).as_nanos());
            if let Some(trace) = &mut self.trace {
                trace.push(TraceEntry {
                    start,
                    lba,
                    sectors: nsect,
                    write: is_write,
                    seek_cylinders: 0,
                    service: t - start,
                    cache_hit: true,
                });
            }
            return t;
        }

        let p = self.model.position(start, self.arm_cylinder, lba, nsect, is_write);
        if p.seek_cylinders > 0 {
            self.obs.bump(Ctr::DiskSeeks);
            self.obs.histos().disk_seek_cylinders.record(u64::from(p.seek_cylinders));
        }
        self.obs.add(Ctr::DiskSeekNs, p.seek.as_nanos());
        self.obs.add(Ctr::DiskRotationNs, p.rotation.as_nanos());
        self.obs.add(Ctr::DiskTransferNs, p.transfer.as_nanos());
        let t = p.done;

        self.arm_cylinder = p.cylinder;
        if !is_write {
            self.cache.fill(lba, nsect, self.capacity_sectors());
        }
        self.last_completion = t;
        self.obs.add(Ctr::DiskServiceNs, (t - start).as_nanos());
        self.obs.histos().disk_req_sectors.record(nsect);
        self.obs.histos().disk_req_service_ns.record((t - start).as_nanos());
        self.obs.trace_io(
            start.as_nanos(),
            if is_write { "disk.write" } else { "disk.read" },
            lba,
            nsect,
            (t - start).as_nanos(),
        );
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEntry {
                start,
                lba,
                sectors: nsect,
                write: is_write,
                seek_cylinders: p.seek_cylinders,
                service: t - start,
                cache_hit: false,
            });
        }
        t
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::models;

    fn disk() -> Disk {
        Disk::new(models::seagate_st31200())
    }

    /// The one-piece positioning function the model had before it was
    /// split into [`DiskModel::run`] and [`DiskModel::reach`]: the oracle
    /// for both.
    pub(crate) fn position_oracle(
        m: &DiskModel,
        start: SimTime,
        arm: u32,
        lba: u64,
        nsect: u64,
        write: bool,
    ) -> Positioning {
        let rev = m.revolution();
        let rev_s = rev.as_secs_f64();
        let pos = m.geometry.lba_to_chs(lba);
        let dist = pos.cylinder.abs_diff(arm);
        let mut seek = m.seek.seek_time(dist);
        if write && dist > 0 {
            seek += m.write_settle;
        }
        let mut t = start + m.controller_overhead + seek;
        let wait = wait_for(angle_at(t, rev), m.geometry.sector_angle(pos));
        let rotation = SimDuration::from_secs_f64(wait * rev_s);
        t += rotation;
        let mut remaining = nsect;
        let mut cur = pos;
        let mut transfer = SimDuration::ZERO;
        while remaining > 0 {
            let on_track = (cur.sectors_per_track - cur.sector) as u64;
            let take = on_track.min(remaining);
            transfer += track_time(take, cur.sectors_per_track, rev_s);
            remaining -= take;
            if remaining == 0 {
                break;
            }
            let (next_cyl, next_head, crossing_cyl) = if cur.head + 1 < m.geometry.heads {
                (cur.cylinder, cur.head + 1, false)
            } else {
                (cur.cylinder + 1, 0, true)
            };
            let spt_next = m.geometry.sectors_per_track_at(next_cyl);
            let skew_sectors = if crossing_cyl {
                m.geometry.track_skew + m.geometry.cylinder_skew
            } else {
                m.geometry.track_skew
            } as f64;
            let skew_time = SimDuration::from_secs_f64(skew_sectors / spt_next as f64 * rev_s);
            let switch = if crossing_cyl { m.seek.seek_time(1).max(m.head_switch) } else { m.head_switch };
            transfer += switch.max(skew_time);
            cur = ChsPos { cylinder: next_cyl, head: next_head, sector: 0, sectors_per_track: spt_next };
        }
        t += transfer;
        Positioning { seek_cylinders: dist, seek, rotation, transfer, done: t, cylinder: cur.cylinder }
    }

    /// The six drive models.
    pub(crate) fn six_models() -> Vec<DiskModel> {
        let mut drives = models::table1_drives();
        drives.extend([models::seagate_st31200(), models::hp_c2247(), models::tiny_test_disk()]);
        drives
    }

    /// Total service time the drive counted.
    pub(super) fn service_ns(d: &Disk) -> u64 {
        d.obs().get(Ctr::DiskServiceNs)
    }

    /// The same, rebuilt from its buckets: seek, rotation and transfer,
    /// plus the fixed controller overhead of every request.
    pub(super) fn buckets_ns(d: &Disk) -> u64 {
        let obs = d.obs();
        let overhead = obs.get(Ctr::DiskRequests) * d.model().controller_overhead.as_nanos();
        obs.get(Ctr::DiskSeekNs) + obs.get(Ctr::DiskRotationNs) + obs.get(Ctr::DiskTransferNs) + overhead
    }

    #[test]
    fn write_read_round_trip() {
        let mut d = disk();
        let data: Vec<u8> = (0..8192).map(|i| (i % 253) as u8).collect();
        let t1 = d.write(SimTime::ZERO, 100, &data);
        let mut back = vec![0u8; 8192];
        let t2 = d.read(t1, 100, &mut back);
        assert_eq!(back, data);
        assert!(t2 > t1);
    }

    #[test]
    fn service_times_are_positive_and_ordered() {
        let mut d = disk();
        let buf = vec![0u8; 4096];
        let t1 = d.write(SimTime::ZERO, 0, &buf);
        assert!(t1 > SimTime::ZERO);
        // Submitting "in the past" still queues behind the previous request.
        let t2 = d.write(SimTime::ZERO, 10_000, &buf);
        assert!(t2 > t1);
    }

    #[test]
    fn onboard_cache_makes_rereads_fast() {
        let mut d = disk();
        let mut buf = vec![0u8; 4096];
        let t0 = SimTime::ZERO;
        let t1 = d.read(t0, 5000, &mut buf);
        let cold = t1 - t0;
        let t2 = d.read(t1, 5000, &mut buf);
        let warm = t2 - t1;
        assert!(
            warm.as_nanos() * 3 < cold.as_nanos(),
            "cache hit ({warm}) should be far cheaper than cold read ({cold})"
        );
        assert_eq!(d.obs().get(Ctr::DiskCacheHits), 1);
    }

    #[test]
    fn sequential_read_ahead_hits() {
        let mut d = disk();
        let mut buf = vec![0u8; 4096];
        let t1 = d.read(SimTime::ZERO, 5000, &mut buf);
        // The next blocks were prefetched.
        d.read(t1, 5008, &mut buf);
        assert_eq!(d.obs().get(Ctr::DiskCacheHits), 1);
    }

    #[test]
    fn big_transfer_beats_many_small_ones() {
        // The heart of the paper: one 64 KB request is far cheaper than
        // sixteen scattered 4 KB requests.
        let mut big = disk();
        let buf64 = vec![0u8; 65536];
        let t_big = big.write(SimTime::ZERO, 10_000, &buf64) - SimTime::ZERO;

        let mut small = disk();
        let buf4 = vec![0u8; 4096];
        let mut t = SimTime::ZERO;
        for i in 0..16 {
            // Scatter across the disk, as separately allocated files would be.
            t = small.write(t, 10_000 + i * 40_000, &buf4);
        }
        let t_small = t - SimTime::ZERO;
        assert!(
            t_small.as_nanos() > 5 * t_big.as_nanos(),
            "scattered: {t_small}, grouped: {t_big}"
        );
    }

    #[test]
    fn write_then_read_invalidates_onboard_cache() {
        let mut d = disk();
        let mut buf = vec![0u8; 4096];
        let t1 = d.read(SimTime::ZERO, 5000, &mut buf);
        let t2 = d.write(t1, 5000, &buf);
        let t3 = d.read(t2, 5000, &mut buf);
        assert_eq!(d.obs().get(Ctr::DiskCacheHits), 0);
        assert!(t3 > t2);
    }

    #[test]
    fn raw_access_charges_no_time() {
        let mut d = disk();
        d.raw_write(42, &[7u8; 512]);
        let mut b = [0u8; 512];
        d.raw_read(42, &mut b);
        assert_eq!(b[0], 7);
        assert_eq!(d.obs().get(Ctr::DiskRequests), 0);
        assert_eq!(d.obs().get(Ctr::DiskServiceNs), 0);
    }

    #[test]
    fn stats_time_buckets_sum_to_busy() {
        let mut d = disk();
        let buf = vec![0u8; 4096];
        let mut t = SimTime::ZERO;
        for i in 0..20 {
            t = d.write(t, i * 12_345 % 1_000_000, &buf);
        }
        assert_eq!(service_ns(&d), buckets_ns(&d));
    }

    /// One model: for single media requests, the completion the pure
    /// positioning function predicts is the one the drive reports, and
    /// the arm ends where it says, over seeks of 0, 1 and many
    /// cylinders, other heads, and transfers that cross tracks and a
    /// cylinder.
    #[test]
    fn position_predicts_what_the_drive_does() {
        let mut d = disk();
        let geom = d.model().geometry.clone();
        let at = |cylinder, head, sector| {
            let sectors_per_track = geom.sectors_per_track_at(cylinder);
            geom.chs_to_lba(crate::geometry::ChsPos { cylinder, head, sector, sectors_per_track })
        };
        // (lba, sectors, write, idle gap before submitting in µs)
        let cases = [
            (at(0, 0, 10), 8, true, 0),       // no seek
            (at(0, 3, 50), 8, true, 0),       // another head, same cylinder
            (at(0, 3, 58), 8, false, 0),      // read right behind the last write
            (at(1, 0, 0), 8, true, 1_234),    // one cylinder
            (at(400, 5, 20), 16, false, 0),   // many cylinders, read
            (at(400, 7, 100), 300, true, 0),  // three tracks and into cylinder 401
            (at(100, 2, 0), 216, false, 777), // two whole tracks, long seek back
            (at(2_000, 8, 71), 2, true, 0),   // last sector of a cylinder, across
            (at(2_001, 0, 1), 8, true, 5_000),
        ];
        let mut now = SimTime::ZERO;
        for (lba, nsect, write, gap) in cases {
            now += SimDuration::from_micros(gap);
            // A read that misses the on-board cache is a media access.
            d.flush_onboard_cache();
            let p = d.model().position(now.max(d.busy_until()), d.arm_cylinder(), lba, nsect, write);
            let mut buf = vec![0u8; nsect as usize * SECTOR_SIZE];
            now = if write { d.write(now, lba, &buf) } else { d.read(now, lba, &mut buf) };
            assert_eq!(now, p.done, "lba {lba}, {nsect} sectors, write {write}");
            assert_eq!(d.arm_cylinder(), p.cylinder, "arm after lba {lba}");
        }
        assert_eq!(d.arm_cylinder(), 2_001);
        assert_eq!(d.obs().get(Ctr::DiskCacheHits), 0);
        assert_eq!(service_ns(&d), buckets_ns(&d));
    }

    #[test]
    #[should_panic(expected = "beyond end of disk")]
    fn out_of_range_rejected() {
        let mut d = disk();
        let cap = d.capacity_sectors();
        d.write(SimTime::ZERO, cap, &[0u8; 512]);
    }

    #[test]
    fn torn_write_keeps_prefix_only() {
        let mut d = disk();
        d.write(SimTime::ZERO, 100, &vec![1u8; 4 * 512]);
        let t = d.last_completion;
        d.write(t, 100, &vec![2u8; 4 * 512]);
        let torn = d.clone_image_torn(2).expect("a write happened");
        let mut buf = vec![0u8; 512];
        torn.raw_read(100, &mut buf);
        assert!(buf.iter().all(|&b| b == 2), "sector 0 of the new write landed");
        torn.raw_read(101, &mut buf);
        assert!(buf.iter().all(|&b| b == 2), "sector 1 landed");
        torn.raw_read(102, &mut buf);
        assert!(buf.iter().all(|&b| b == 1), "sector 2 still holds old data");
        torn.raw_read(103, &mut buf);
        assert!(buf.iter().all(|&b| b == 1), "sector 3 still holds old data");
        // The original drive is untouched.
        let mut live = vec![0u8; 512];
        d.raw_read(103, &mut live);
        assert!(live.iter().all(|&b| b == 2));
    }

    /// The undo record of a short write that follows a long one covers
    /// exactly the short write: the long write's range stays as written,
    /// and nothing past the short range is "restored".
    #[test]
    fn torn_clone_after_long_then_short_write_restores_only_the_short_one() {
        let mut d = disk();
        d.raw_write(1_000, &vec![0x11; 65_536]);
        d.raw_write(5_000, &[0x22; 512]);
        let t = d.write(SimTime::ZERO, 1_000, &vec![0xAA; 65_536]);
        d.write(t, 5_000, &[0xBB; 512]);
        for (keep, want) in [(0, 0x22), (1, 0xBB)] {
            let torn = d.clone_image_torn(keep).expect("a write happened");
            let mut long = vec![0u8; 65_536];
            torn.raw_read(1_000, &mut long);
            assert!(long.iter().all(|&b| b == 0xAA), "keep {keep}: the 64 KB write was undone");
            let mut short = [0u8; 512];
            torn.raw_read(5_000, &mut short);
            assert!(short.iter().all(|&b| b == want), "keep {keep}: wrong 512 B contents");
            let mut after = vec![0xFFu8; 65_536 - 512];
            torn.raw_read(5_001, &mut after);
            assert!(after.iter().all(|&b| b == 0), "keep {keep}: sectors past the write changed");
        }
    }

    #[test]
    fn torn_clone_none_before_any_write() {
        let d = disk();
        assert!(d.clone_image_torn(0).is_none());
    }

    #[test]
    fn capacity_matches_model() {
        let d = disk();
        let gb = d.model().capacity_bytes() as f64 / 1e9;
        assert!((0.9..1.3).contains(&gb), "ST31200 should be about 1 GB, got {gb:.2} GB");
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{position_oracle, six_models};
    use super::*;
    use crate::geometry::ChsPos;
    use crate::models;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Completion times are strictly increasing and every time bucket
        /// sums to busy time, for arbitrary request sequences.
        #[test]
        fn service_times_consistent(
            ops in prop::collection::vec((any::<u64>(), 1u64..32, any::<bool>()), 1..60)
        ) {
            let mut d = Disk::new(models::tiny_test_disk());
            let cap = d.capacity_sectors();
            let mut t = SimTime::ZERO;
            for (pos, nsect, write) in ops {
                let lba = pos % (cap - nsect);
                let mut buf = vec![0u8; (nsect as usize) * SECTOR_SIZE];
                let done = if write {
                    d.write(t, lba, &buf)
                } else {
                    d.read(t, lba, &mut buf)
                };
                prop_assert!(done > t, "time must advance");
                t = done;
            }
            prop_assert_eq!(super::tests::service_ns(&d), super::tests::buckets_ns(&d));
        }

        /// What is written is what is read back, at any alignment pattern.
        #[test]
        fn contents_round_trip(
            writes in prop::collection::vec((0u64..10_000, 1u64..16, any::<u8>()), 1..40)
        ) {
            let mut d = Disk::new(models::tiny_test_disk());
            let mut t = SimTime::ZERO;
            let mut model: std::collections::HashMap<u64, u8> = Default::default();
            for &(lba, nsect, byte) in &writes {
                t = d.write(t, lba, &vec![byte; (nsect as usize) * SECTOR_SIZE]);
                for s in lba..lba + nsect {
                    model.insert(s, byte);
                }
            }
            for (&sector, &byte) in &model {
                let mut buf = vec![0u8; SECTOR_SIZE];
                t = d.read(t, sector, &mut buf);
                prop_assert!(buf.iter().all(|&b| b == byte), "sector {} corrupted", sector);
            }
        }

        /// The split model is the one-piece model: `run` then `reach` gives
        /// bit for bit what the old `position` gave, on all six drives,
        /// for runs anywhere, across tracks and across cylinders.
        #[test]
        fn split_position_equals_the_one_piece_model(
            drive in 0usize..6,
            start_ns in 0u64..1_000_000_000_000,
            arm_r in any::<u32>(),
            lba_r in any::<u64>(),
            nsect in 1u64..600,
            write in any::<bool>(),
        ) {
            let m = &six_models()[drive];
            let g = &m.geometry;
            let arm = arm_r % g.total_cylinders();
            let lba = lba_r % (g.total_sectors() - nsect);
            let start = SimTime(start_ns);
            let p = m.position(start, arm, lba, nsect, write);
            prop_assert_eq!(p, position_oracle(m, start, arm, lba, nsect, write));
            prop_assert_eq!(m.reach(start, arm, &m.run(lba, nsect), write), p);
        }

        /// `earliest_sector` is the brute-force minimum of the one-piece
        /// model over the free sectors of several 8-sector runs, first
        /// entry and lowest sector winning ties. The runs lie anywhere,
        /// straddle a track or a cylinder end, or share the previous run's
        /// cylinder on another head (where sectors at one angle tie).
        #[test]
        fn earliest_sector_is_brute_force_minimum(
            drive in 0usize..6,
            start_ns in 0u64..1_000_000_000_000,
            arm_r in any::<u32>(),
            runs in prop::collection::vec((0u8..4, any::<u64>(), 1u64..8, 0u64..256), 1..6),
            write in any::<bool>(),
        ) {
            let m = &six_models()[drive];
            let g = &m.geometry;
            let cyls = g.total_cylinders();
            let arm = arm_r % cyls;
            let mut cands = Vec::new();
            for &(kind, r, back, free) in &runs {
                let cyl = (r % (cyls as u64 - 1)) as u32;
                let spt = g.sectors_per_track_at(cyl);
                let near_end = |head| ChsPos { cylinder: cyl, head, sector: spt - back as u32, sectors_per_track: spt };
                let lba = match kind {
                    0 => r % (g.total_sectors() - 8),
                    1 => g.chs_to_lba(near_end(0)),
                    2 => g.chs_to_lba(near_end(g.heads - 1)),
                    _ => {
                        let prev: u64 = cands.last().map_or(0, |&(l, _)| l);
                        let cylinder = g.lba_to_chs(prev).cylinder;
                        let spt = g.sectors_per_track_at(cylinder);
                        let head = (r % u64::from(g.heads)) as u32;
                        let sector = ((r >> 32) % u64::from(spt - 8)) as u32;
                        g.chs_to_lba(ChsPos { cylinder, head, sector, sectors_per_track: spt })
                    }
                };
                cands.push((lba, free));
            }
            let start = SimTime(start_ns);
            let mut brute: Option<(usize, u32, Positioning)> = None;
            for (k, &(lba, free)) in cands.iter().enumerate() {
                for i in (0..8).filter(|i| free >> i & 1 == 1) {
                    let p = position_oracle(m, start, arm, lba + i as u64, 1, write);
                    if brute.is_none_or(|(_, _, b)| p.done < b.done) {
                        brute = Some((k, i, p));
                    }
                }
            }
            prop_assert_eq!(m.earliest_sector(start, arm, cands.iter().copied(), write), brute);
        }

        /// Torn crashes never tear inside a sector and never touch sectors
        /// outside the final write.
        #[test]
        fn torn_crash_sector_atomicity(
            keep in 0usize..20,
            nsect in 1u64..16,
        ) {
            let mut d = Disk::new(models::tiny_test_disk());
            let len = (nsect as usize) * SECTOR_SIZE;
            let t = d.write(SimTime::ZERO, 100, &vec![0xAA; len]);
            d.write(t, 100, &vec![0xBB; len]);
            let torn = d.clone_image_torn(keep).expect("write happened");
            for s in 0..nsect {
                let mut buf = vec![0u8; SECTOR_SIZE];
                torn.raw_read(100 + s, &mut buf);
                let first = buf[0];
                prop_assert!(first == 0xAA || first == 0xBB);
                prop_assert!(buf.iter().all(|&b| b == first), "sector torn internally");
                let expect = if (s as usize) < keep { 0xBB } else { 0xAA };
                prop_assert_eq!(first, expect, "wrong prefix at sector {}", s);
            }
        }
    }
}
