#![warn(missing_docs)]

//! # cffs-disksim
//!
//! A mechanical disk-drive simulator faithful to mid-1990s SCSI drives, built
//! as the storage substrate for the C-FFS reproduction (Ganger & Kaashoek,
//! USENIX 1997).
//!
//! The paper's entire argument rests on the *ratio* between per-request
//! positioning costs (seek + rotational latency, milliseconds) and per-byte
//! transfer costs (tens of microseconds per 4 KB block). This crate models
//! exactly those mechanics:
//!
//! * **Zoned geometry** ([`geometry::Geometry`]): cylinders are divided into
//!   zones with different sectors-per-track counts, as on every drive since
//!   the early 90s; logical block addresses map to (cylinder, head, sector).
//! * **Seek curve** ([`seek::SeekCurve`]): the classic three-point model —
//!   single-cylinder, average, and full-stroke seek times — interpolated with
//!   a `a + b*sqrt(d)` region for short seeks and a linear region for long
//!   ones, following Ruemmler & Wilkes' disk modeling work.
//! * **Rotation**: the platter position is a pure function of simulated time;
//!   rotational latency falls out of where the head lands after a seek.
//! * **Track and cylinder skew**: sequential transfers that cross track or
//!   cylinder boundaries pay a head-switch/seek cost that the skew hides.
//! * **On-board segmented cache** ([`cache::OnboardCache`]): read-ahead
//!   segments which let sequential reads hit in the drive's buffer.
//! * **Request scheduling** ([`driver::Driver`]): FCFS, C-LOOK (the paper's
//!   testbed driver used C-LOOK) and SSTF, with scatter/gather coalescing.
//!   C-LOOK serves each cylinder's runs in the order the platter brings
//!   them round, predicted by the drive's own positioning model
//!   ([`DiskModel::position`]), never in a worse order than LBA order.
//!
//! Five drive models ship in [`models`]: the paper's testbed Seagate ST31200
//! (Table 2), the three 1996 drives of Table 1 (HP C3653, Seagate Barracuda
//! 4LP, Quantum Atlas II), and the older HP C2247 used in the paper's
//! trend discussion.
//!
//! Time is simulated: every access returns a completion time and the drive
//! keeps its arm/rotation state consistent with that clock. Nothing here
//! does real I/O; sector contents live in a sparse in-memory store of
//! 4 KB [`Block`] chunks, which a block-aligned read into a `Block` shares
//! instead of copying.
//!
//! ## Example
//!
//! ```
//! use cffs_disksim::{models, Disk, SimTime};
//!
//! let mut disk = Disk::new(models::seagate_st31200());
//! let t0 = SimTime::ZERO;
//! let data = vec![0xABu8; 4096];
//! let t1 = disk.write(t0, 1000, &data);
//! let mut back = vec![0u8; 4096];
//! let t2 = disk.read(t1, 1000, &mut back);
//! assert_eq!(back, data);
//! assert!(t2 > t1);
//! ```

pub mod cache;
pub mod driver;
pub mod geometry;
pub mod hash;
pub mod models;
pub mod seek;
pub mod stats;
pub mod store;
pub mod time;

mod disk;

pub use disk::{Disk, DiskModel, Positioning, TraceEntry};
pub use driver::{Driver, DriverConfig, IoDir, IoReq, Payload, Piece, Scheduler};
pub use geometry::{Geometry, Zone};
pub use seek::SeekCurve;
pub use stats::{DiskStats, DriverStats};
pub use store::Block;
pub use time::{SimDuration, SimTime};

/// Size of a disk sector in bytes. All 90s-era SCSI drives used 512.
pub const SECTOR_SIZE: usize = 512;
