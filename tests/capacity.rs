//! Capacity behaviour: ENOSPC, recovery after deletion, group-slack
//! reclamation under pressure, and the dynamic-inode claim.

use cffs::core::{Cffs, CffsConfig, MkfsParams};
use cffs::prelude::*;
use cffs_disksim::geometry::{Geometry, Zone};
use cffs_disksim::{Disk, DiskModel, SeekCurve, SimDuration};

/// A very small disk (~8 MB) so capacity tests run fast.
fn mini_disk() -> Disk {
    let geometry = Geometry::new(2, vec![Zone { cylinders: 100, sectors_per_track: 80 }], 4, 8);
    let cylinders = geometry.total_cylinders();
    Disk::new(DiskModel {
        name: "Mini 8M".to_string(),
        geometry,
        seek: SeekCurve::fit(cylinders, 1.0, 6.0, 14.0),
        rpm: 5400,
        head_switch: SimDuration::from_micros(700),
        write_settle: SimDuration::from_micros(600),
        controller_overhead: SimDuration::from_micros(600),
        bus_mb_per_s: 10.0,
        cache: cffs_disksim::cache::OnboardCacheConfig::disabled(),
    })
}

fn mini_fs(cfg: CffsConfig) -> Cffs {
    cffs::core::mkfs::mkfs(mini_disk(), MkfsParams { cg_size: 256 }, cfg).expect("mkfs")
}

#[test]
fn fill_to_enospc_then_recover() {
    for cfg in [CffsConfig::cffs(), CffsConfig::conventional()] {
        let label = cfg.label.clone();
        let fs = mini_fs(cfg);
        let root = fs.root();
        let dir = fs.mkdir(root, "fill").unwrap();
        let mut created = 0u32;
        let payload = vec![0xABu8; 4096];
        loop {
            let name = format!("f{created}");
            let ino = match fs.create(dir, &name) {
                Ok(i) => i,
                Err(FsError::NoSpace | FsError::NoInodes) => break,
                Err(e) => panic!("{label}: unexpected {e}"),
            };
            match fs.write(ino, 0, &payload) {
                Ok(_) => created += 1,
                Err(FsError::NoSpace) => {
                    fs.unlink(dir, &name).unwrap();
                    break;
                }
                Err(e) => panic!("{label}: unexpected {e}"),
            }
            assert!(created < 10_000, "{label}: disk never filled");
        }
        assert!(created > 500, "{label}: filled after only {created} files");
        let st = fs.statfs().unwrap();
        assert!(
            st.free_blocks < st.total_blocks / 50,
            "{label}: {} of {} still free at ENOSPC",
            st.free_blocks,
            st.total_blocks
        );
        // Delete a third, then creation works again.
        for i in (0..created).step_by(3) {
            fs.unlink(dir, &format!("f{i}")).unwrap();
        }
        let ino = fs.create(dir, "after").unwrap_or_else(|e| panic!("{label}: {e}"));
        fs.write(ino, 0, &payload).unwrap_or_else(|e| panic!("{label}: {e}"));
        // Everything still checks out.
        let mut img = fs.unmount().unwrap();
        let report = cffs::core::fsck::fsck(&mut img, false).unwrap();
        assert!(report.clean(), "{label}: {:?}", report.errors);
    }
}

#[test]
fn group_slack_is_reclaimed_under_pressure() {
    let fs = mini_fs(CffsConfig::cffs());
    let root = fs.root();
    // Many directories, one tiny file each: maximal slack (each carves a
    // 16-block extent for ~2 live blocks).
    let mut d = 0;
    loop {
        let dir = match fs.mkdir(root, &format!("d{d}")) {
            Ok(i) => i,
            Err(FsError::NoSpace) => break,
            Err(e) => panic!("unexpected {e}"),
        };
        match fs.create(dir, "f").and_then(|ino| fs.write(ino, 0, b"x").map(|_| ())) {
            Ok(()) => d += 1,
            Err(FsError::NoSpace) => break,
            Err(e) => panic!("unexpected {e}"),
        }
        if d > 5000 {
            panic!("disk never filled");
        }
    }
    // At ENOSPC with slack-trim working, reserved-but-unused group space
    // must have been reclaimed rather than wasted.
    let st = fs.statfs().unwrap();
    assert!(
        st.group_slack_blocks < st.total_blocks / 20,
        "slack not reclaimed: {} of {}",
        st.group_slack_blocks,
        st.total_blocks
    );
    // Far more directories than naive 16-block-per-dir reservation allows.
    let naive_cap = st.total_blocks / 16;
    assert!(
        d as u64 > naive_cap,
        "only {d} dirs; un-reclaimed slack would cap near {naive_cap}"
    );
}

#[test]
fn no_static_inode_limit() {
    // FFS's static tables run out of *inodes* at this geometry; the
    // dynamic placements keep creating until *space* runs out (or well
    // past the tables' capacity). [Forin94]'s point, live.
    for cfg in [CffsConfig::cffs(), CffsConfig::conventional(), CffsConfig::ffs()] {
        let label = cfg.label.clone();
        let fs = mini_fs(cfg);
        let root = fs.root();
        let dir = fs.mkdir(root, "many").unwrap();
        let mut n = 0u32;
        let stop = loop {
            match fs.create(dir, &format!("f{n}")) {
                Ok(_) => n += 1,
                Err(e) => break Some(e),
            }
            if n > 20_000 {
                break None; // plenty — empty files are cheap, that's the point
            }
        };
        let st = fs.statfs().unwrap();
        if label == "FFS" {
            // 7 groups of 256 blocks, 4 table blocks (128 slots) each; the
            // root and the directory hold two of the 896 slots.
            assert_eq!(stop, Some(FsError::NoInodes), "{label}");
            assert_eq!((n, st.total_inodes, st.free_inodes), (894, 896, 0), "{label}");
            assert!(st.free_blocks > st.total_blocks / 2, "{label}: inodes ran out first");
        } else {
            // 8 MB disk, empty files: thousands of inodes with zero
            // inode-table reservation.
            assert!(matches!(stop, None | Some(FsError::NoSpace)), "{label}: {stop:?}");
            assert!(n > 5_000, "{label}: only {n} empty files fit");
            assert_eq!(st.total_inodes, u64::MAX, "{label}: inode count is dynamic");
        }
    }
}
