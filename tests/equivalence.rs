//! Cross-implementation equivalence: every file system must produce the
//! same logical state as the in-memory oracle for the same operation
//! trace. This is the strongest correctness check in the suite — it is
//! blind to layout, so embedded inodes, grouping, renumbering and
//! degrouping all have to preserve semantics exactly.

use cffs::build;
use cffs::prelude::*;
use cffs_disksim::models;
use cffs_fslib::model::ModelFs;
use cffs_workloads::trace::{random_trace, replay, snapshot, Op};

fn all_test_filesystems() -> Vec<Box<dyn FileSystem>> {
    let mut v: Vec<Box<dyn FileSystem>> = Vec::new();
    v.push(Box::new(cffs::ffs::mkfs::mkfs(
        cffs_disksim::Disk::new(models::tiny_test_disk()),
        cffs::ffs::MkfsParams::tiny(),
        cffs::ffs::FfsOptions::default(),
    )
    .expect("ffs mkfs")));
    for cfg in [
        cffs::core::CffsConfig::conventional(),
        cffs::core::CffsConfig::embedded_only(),
        cffs::core::CffsConfig::grouping_only(),
        cffs::core::CffsConfig::cffs(),
    ] {
        v.push(Box::new(
            cffs::core::mkfs::mkfs(
                cffs_disksim::Disk::new(models::tiny_test_disk()),
                cffs::core::MkfsParams::tiny(),
                cfg,
            )
            .expect("cffs mkfs"),
        ));
    }
    v
}

#[test]
fn random_traces_match_oracle_on_all_filesystems() {
    for seed in 0..8 {
        let ops = random_trace(seed, 400);
        let oracle = ModelFs::new();
        replay(&oracle, &ops).expect("oracle replay");
        let want = snapshot(&oracle).expect("oracle snapshot");
        for fs in all_test_filesystems() {
            let label = fs.label().to_string();
            replay(fs.as_ref(), &ops).unwrap_or_else(|e| panic!("{label} seed {seed}: {e}"));
            let got = snapshot(fs.as_ref()).expect("snapshot");
            assert_eq!(got, want, "{label} diverged from oracle at seed {seed}");
        }
    }
}

#[test]
fn state_survives_remount() {
    for seed in [100u64, 101] {
        let ops = random_trace(seed, 300);
        let oracle = ModelFs::new();
        replay(&oracle, &ops).expect("oracle replay");
        let want = snapshot(&oracle).expect("oracle snapshot");

        // C-FFS with everything on.
        let fs = cffs::core::mkfs::mkfs(
            cffs_disksim::Disk::new(models::tiny_test_disk()),
            cffs::core::MkfsParams::tiny(),
            cffs::core::CffsConfig::cffs(),
        )
        .expect("mkfs");
        replay(&fs, &ops).expect("replay");
        let disk = fs.unmount().expect("unmount");
        let fs2 = cffs::core::Cffs::mount(disk, cffs::core::CffsConfig::cffs()).expect("remount");
        let got = snapshot(&fs2).expect("snapshot");
        assert_eq!(got, want, "remounted C-FFS diverged at seed {seed}");

        // Classic FFS.
        let fs = cffs::ffs::mkfs::mkfs(
            cffs_disksim::Disk::new(models::tiny_test_disk()),
            cffs::ffs::MkfsParams::tiny(),
            cffs::ffs::FfsOptions::default(),
        )
        .expect("mkfs");
        replay(&fs, &ops).expect("replay");
        let disk = fs.unmount().expect("unmount");
        let fs2 =
            cffs::ffs::Ffs::mount(disk, cffs::ffs::FfsOptions::default()).expect("remount");
        let got = snapshot(&fs2).expect("snapshot");
        assert_eq!(got, want, "remounted FFS diverged at seed {seed}");
    }
}

#[test]
fn grouping_image_readable_with_grouping_disabled() {
    // An image produced with grouping on must read back correctly when
    // mounted with group reads off (the descriptors are advisory for
    // reads).
    let ops = random_trace(7, 250);
    let oracle = ModelFs::new();
    replay(&oracle, &ops).expect("oracle replay");
    let want = snapshot(&oracle).expect("oracle snapshot");

    let fs = cffs::core::mkfs::mkfs(
        cffs_disksim::Disk::new(models::tiny_test_disk()),
        cffs::core::MkfsParams::tiny(),
        cffs::core::CffsConfig::cffs(),
    )
    .expect("mkfs");
    replay(&fs, &ops).expect("replay");
    let disk = fs.unmount().expect("unmount");
    let fs2 = cffs::core::Cffs::mount(disk, cffs::core::CffsConfig::embedded_only())
        .expect("remount without grouping");
    assert_eq!(snapshot(&fs2).expect("snapshot"), want);
}

#[test]
fn trait_level_contract_examples() {
    // A hand-written scenario covering the renumbering contract that the
    // random traces exercise only incidentally.
    let fs = build::on_disk(models::tiny_test_disk(), cffs::core::CffsConfig::cffs());
    let root = fs.root();
    let d1 = fs.mkdir(root, "d1").unwrap();
    let d2 = fs.mkdir(root, "d2").unwrap();
    let f = fs.create(d1, "file").unwrap();
    fs.write(f, 0, b"payload").unwrap();

    // link() externalizes and renumbers; the returned ino is live.
    let f2 = fs.link(f, d2, "alias").unwrap();
    assert_ne!(f, f2, "embedded inode must be externalized on link");
    assert_eq!(fs.getattr(f2).unwrap().nlink, 2);
    let mut buf = [0u8; 7];
    assert_eq!(fs.read(f2, 0, &mut buf).unwrap(), 7);
    assert_eq!(&buf, b"payload");
    // The old number is dead.
    assert!(fs.getattr(f).is_err());

    // rename() of an embedded directory renumbers it; children stay
    // reachable through the new number.
    let sub = fs.mkdir(d1, "sub").unwrap();
    let child = fs.create(sub, "x").unwrap();
    fs.write(child, 0, b"hi").unwrap();
    let sub2 = fs.rename(d1, "sub", d2, "submoved").unwrap();
    assert_ne!(sub, sub2);
    let child2 = fs.lookup(sub2, "x").unwrap();
    let mut b2 = [0u8; 2];
    fs.read(child2, 0, &mut b2).unwrap();
    assert_eq!(&b2, b"hi");
}

#[test]
fn deterministic_simulated_time() {
    // Two identical runs must agree to the nanosecond — the whole
    // reproduction depends on determinism.
    let run = || {
        let fs = build::on_disk(models::tiny_test_disk(), cffs::core::CffsConfig::cffs());
        let ops = random_trace(55, 200);
        replay(&fs, &ops).expect("replay");
        fs.sync().expect("sync");
        fs.now().as_nanos()
    };
    assert_eq!(run(), run());
}

#[test]
fn link_then_unlink_keeps_data_until_last_name() {
    for fs in all_test_filesystems() {
        let label = fs.label().to_string();
        let root = fs.root();
        let f = fs.create(root, "orig").unwrap();
        fs.write(f, 0, &[42u8; 5000]).unwrap();
        let f = fs.link(f, root, "second").unwrap();
        fs.unlink(root, "orig").unwrap();
        let att = fs.getattr(f).unwrap();
        assert_eq!(att.nlink, 1, "{label}");
        let mut buf = vec![0u8; 5000];
        assert_eq!(fs.read(f, 0, &mut buf).unwrap(), 5000, "{label}");
        assert!(buf.iter().all(|&b| b == 42), "{label}");
        fs.unlink(root, "second").unwrap();
        assert!(fs.getattr(f).is_err(), "{label}");
    }
}

#[test]
fn explicit_op_sequence_with_replacement_renames() {
    let ops = vec![
        Op::Mkdir { path: "/a".into() },
        Op::Write { path: "/a/x".into(), data: vec![1; 100] },
        Op::Write { path: "/a/y".into(), data: vec![2; 200] },
        Op::Rename { from: "/a/x".into(), to: "/a/y".into() },
        Op::Write { path: "/a/z".into(), data: vec![3; 9000] },
        Op::Rename { from: "/a/z".into(), to: "/b".into() },
        Op::Truncate { path: "/b".into(), size: 4096 },
    ];
    let oracle = ModelFs::new();
    replay(&oracle, &ops).expect("oracle");
    let want = snapshot(&oracle).expect("oracle snapshot");
    for fs in all_test_filesystems() {
        let label = fs.label().to_string();
        replay(fs.as_ref(), &ops).expect("replay");
        assert_eq!(snapshot(fs.as_ref()).expect("snapshot"), want, "{label}");
    }
}
