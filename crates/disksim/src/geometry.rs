//! Zoned disk geometry: mapping logical block addresses to physical
//! (cylinder, head, sector) positions, including track and cylinder skew.
//!
//! Mid-90s drives record more sectors on outer tracks than inner ones
//! ("zoned bit recording"). The drives in the paper's Table 1 all do this;
//! the paper's Figure 2 bandwidth numbers depend on it. We model a small
//! number of zones, each spanning a contiguous cylinder range with a fixed
//! sectors-per-track count.
//!
//! Sequential-transfer behaviour depends on *skew*: when a transfer crosses
//! from one track to the next, the head switch takes time, so the first
//! sector of each track is rotationally offset ("skewed") from the previous
//! track's first sector. If the skew matches the switch time, sequential
//! reads proceed at nearly full media rate. We model track skew and cylinder
//! skew in sector units, as drive vendors specify them.

use cffs_obs::json::{FromJson, Json, JsonError, ToJson};
use cffs_obs::obj;

/// One recording zone: a contiguous range of cylinders sharing a
/// sectors-per-track count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Zone {
    /// Number of cylinders in this zone.
    pub cylinders: u32,
    /// Sectors per track within this zone.
    pub sectors_per_track: u32,
}

/// Physical position of a sector on the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChsPos {
    /// Cylinder index from the outermost (0).
    pub cylinder: u32,
    /// Head (surface) index.
    pub head: u32,
    /// Sector index within the track.
    pub sector: u32,
    /// Sectors per track at this cylinder (denormalized for convenience).
    pub sectors_per_track: u32,
}

impl ToJson for Zone {
    fn to_json(&self) -> Json {
        obj![
            ("cylinders", self.cylinders.to_json()),
            ("sectors_per_track", self.sectors_per_track.to_json()),
        ]
    }
}

impl FromJson for Zone {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(Zone {
            cylinders: u32::from_json(j.want("cylinders")?)?,
            sectors_per_track: u32::from_json(j.want("sectors_per_track")?)?,
        })
    }
}

/// Full drive geometry: surfaces and zones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Geometry {
    /// Number of data surfaces (heads).
    pub heads: u32,
    /// Recording zones, outermost first.
    pub zones: Vec<Zone>,
    /// Track skew in sectors: rotational offset between track N and track
    /// N+1 on the same cylinder, hiding the head-switch time.
    pub track_skew: u32,
    /// Cylinder skew in sectors: additional offset when crossing to the next
    /// cylinder, hiding the single-cylinder seek.
    pub cylinder_skew: u32,
}

impl ToJson for Geometry {
    fn to_json(&self) -> Json {
        obj![
            ("heads", self.heads.to_json()),
            ("zones", self.zones.to_json()),
            ("track_skew", self.track_skew.to_json()),
            ("cylinder_skew", self.cylinder_skew.to_json()),
        ]
    }
}

impl FromJson for Geometry {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let heads = u32::from_json(j.want("heads")?)?;
        let zones = Vec::<Zone>::from_json(j.want("zones")?)?;
        if heads == 0 || zones.is_empty() || zones.iter().any(|z| z.cylinders == 0 || z.sectors_per_track == 0) {
            return Err(JsonError("invalid geometry in image".into()));
        }
        Ok(Geometry::new(
            heads,
            zones,
            u32::from_json(j.want("track_skew")?)?,
            u32::from_json(j.want("cylinder_skew")?)?,
        ))
    }
}

impl Geometry {
    /// Build a geometry and validate it.
    ///
    /// # Panics
    /// Panics if there are no heads, no zones, or a zone with zero cylinders
    /// or zero sectors per track — those would make LBA mapping meaningless.
    pub fn new(heads: u32, zones: Vec<Zone>, track_skew: u32, cylinder_skew: u32) -> Self {
        assert!(heads > 0, "geometry needs at least one head");
        assert!(!zones.is_empty(), "geometry needs at least one zone");
        for z in &zones {
            assert!(z.cylinders > 0, "zone with zero cylinders");
            assert!(z.sectors_per_track > 0, "zone with zero sectors/track");
        }
        Geometry { heads, zones, track_skew, cylinder_skew }
    }

    /// Total number of cylinders on the drive.
    pub fn total_cylinders(&self) -> u32 {
        self.zones.iter().map(|z| z.cylinders).sum()
    }

    /// Total number of addressable sectors on the drive.
    pub fn total_sectors(&self) -> u64 {
        self.zones
            .iter()
            .map(|z| z.cylinders as u64 * self.heads as u64 * z.sectors_per_track as u64)
            .sum()
    }

    /// Sectors per track at the given cylinder.
    ///
    /// # Panics
    /// Panics if `cyl` is beyond the last cylinder.
    pub fn sectors_per_track_at(&self, cyl: u32) -> u32 {
        let mut base = 0u32;
        for z in &self.zones {
            if cyl < base + z.cylinders {
                return z.sectors_per_track;
            }
            base += z.cylinders;
        }
        panic!("cylinder {cyl} beyond end of disk ({} cylinders)", self.total_cylinders());
    }

    /// Map a logical block address to a physical position.
    ///
    /// LBAs are laid out cylinder-major: all tracks of cylinder 0, then
    /// cylinder 1, and so on — the mapping every real drive of the era used
    /// (modulo sparing, which we don't model).
    ///
    /// # Panics
    /// Panics if `lba` is beyond the end of the disk.
    pub fn lba_to_chs(&self, lba: u64) -> ChsPos {
        let mut remaining = lba;
        let mut cyl_base = 0u32;
        for z in &self.zones {
            let zone_sectors =
                z.cylinders as u64 * self.heads as u64 * z.sectors_per_track as u64;
            if remaining < zone_sectors {
                let per_cyl = self.heads as u64 * z.sectors_per_track as u64;
                let cyl_in_zone = (remaining / per_cyl) as u32;
                let rem = remaining % per_cyl;
                let head = (rem / z.sectors_per_track as u64) as u32;
                let sector = (rem % z.sectors_per_track as u64) as u32;
                return ChsPos {
                    cylinder: cyl_base + cyl_in_zone,
                    head,
                    sector,
                    sectors_per_track: z.sectors_per_track,
                };
            }
            remaining -= zone_sectors;
            cyl_base += z.cylinders;
        }
        panic!("lba {lba} beyond end of disk ({} sectors)", self.total_sectors());
    }

    /// Inverse of [`Geometry::lba_to_chs`].
    ///
    /// # Panics
    /// Panics if the position is out of range.
    pub fn chs_to_lba(&self, pos: ChsPos) -> u64 {
        let mut lba = 0u64;
        let mut cyl_base = 0u32;
        for z in &self.zones {
            if pos.cylinder < cyl_base + z.cylinders {
                assert!(pos.head < self.heads, "head out of range");
                assert!(pos.sector < z.sectors_per_track, "sector out of range");
                let cyl_in_zone = (pos.cylinder - cyl_base) as u64;
                lba += cyl_in_zone * self.heads as u64 * z.sectors_per_track as u64;
                lba += pos.head as u64 * z.sectors_per_track as u64;
                lba += pos.sector as u64;
                return lba;
            }
            lba += z.cylinders as u64 * self.heads as u64 * z.sectors_per_track as u64;
            cyl_base += z.cylinders;
        }
        panic!("cylinder {} beyond end of disk", pos.cylinder);
    }

    /// Rotational offset, in sectors, of sector 0 of the given track relative
    /// to the index mark, produced by accumulated track and cylinder skew.
    ///
    /// Track `t` (numbered `cylinder * heads + head`) is offset by
    /// `track_skew` for every head switch since cylinder 0 plus an extra
    /// `cylinder_skew` for every cylinder crossing.
    pub fn track_skew_offset(&self, cylinder: u32, head: u32) -> u64 {
        let switches = cylinder as u64 * self.heads as u64 + head as u64;
        let cyl_crossings = cylinder as u64;
        switches * self.track_skew as u64 + cyl_crossings * self.cylinder_skew as u64
    }

    /// Angular position (fraction of a revolution in `[0, 1)`) at which the
    /// given sector *starts* on its track.
    pub fn sector_angle(&self, pos: ChsPos) -> f64 {
        slot_angle(self.rotational_slot(pos), pos.sectors_per_track)
    }

    /// Which of its track's `sectors_per_track` equal angular slots,
    /// counted from the index mark, the sector at `pos` starts in.
    pub(crate) fn rotational_slot(&self, pos: ChsPos) -> u32 {
        let skewed = pos.sector as u64 + self.track_skew_offset(pos.cylinder, pos.head);
        (skewed % pos.sectors_per_track as u64) as u32
    }
}

/// The start angle, in revolutions, of angular slot `slot` of a track of
/// `spt` sectors (see [`Geometry::rotational_slot`]).
pub(crate) fn slot_angle(slot: u32, spt: u32) -> f64 {
    slot as f64 / spt as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Geometry {
        Geometry::new(
            4,
            vec![
                Zone { cylinders: 10, sectors_per_track: 100 },
                Zone { cylinders: 10, sectors_per_track: 80 },
            ],
            3,
            7,
        )
    }

    #[test]
    fn totals() {
        let g = geom();
        assert_eq!(g.total_cylinders(), 20);
        assert_eq!(g.total_sectors(), 10 * 4 * 100 + 10 * 4 * 80);
    }

    #[test]
    fn spt_lookup() {
        let g = geom();
        assert_eq!(g.sectors_per_track_at(0), 100);
        assert_eq!(g.sectors_per_track_at(9), 100);
        assert_eq!(g.sectors_per_track_at(10), 80);
        assert_eq!(g.sectors_per_track_at(19), 80);
    }

    #[test]
    #[should_panic(expected = "beyond end")]
    fn spt_out_of_range_panics() {
        geom().sectors_per_track_at(20);
    }

    #[test]
    fn lba_chs_round_trip_exhaustive() {
        let g = geom();
        for lba in 0..g.total_sectors() {
            let pos = g.lba_to_chs(lba);
            assert_eq!(g.chs_to_lba(pos), lba, "round trip failed at lba {lba}");
        }
    }

    #[test]
    fn lba_zero_is_outer_edge() {
        let g = geom();
        let p = g.lba_to_chs(0);
        assert_eq!((p.cylinder, p.head, p.sector), (0, 0, 0));
        assert_eq!(p.sectors_per_track, 100);
    }

    #[test]
    fn zone_boundary_mapping() {
        let g = geom();
        // First sector of the second zone.
        let first_z2 = 10 * 4 * 100;
        let p = g.lba_to_chs(first_z2);
        assert_eq!((p.cylinder, p.head, p.sector), (10, 0, 0));
        assert_eq!(p.sectors_per_track, 80);
    }

    #[test]
    #[should_panic(expected = "beyond end")]
    fn lba_out_of_range_panics() {
        let g = geom();
        g.lba_to_chs(g.total_sectors());
    }

    #[test]
    fn skew_accumulates() {
        let g = geom();
        assert_eq!(g.track_skew_offset(0, 0), 0);
        assert_eq!(g.track_skew_offset(0, 1), 3);
        assert_eq!(g.track_skew_offset(1, 0), 4 * 3 + 7);
    }

    #[test]
    fn sector_angle_in_unit_range() {
        let g = geom();
        for lba in (0..g.total_sectors()).step_by(97) {
            let a = g.sector_angle(g.lba_to_chs(lba));
            assert!((0.0..1.0).contains(&a), "angle {a} out of range");
        }
    }

    #[test]
    #[should_panic(expected = "at least one zone")]
    fn empty_zones_rejected() {
        Geometry::new(2, vec![], 0, 0);
    }
}
