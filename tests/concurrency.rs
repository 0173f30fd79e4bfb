//! Concurrency: N client threads over one shared `Cffs`.
//!
//! What sharing one instance between threads must guarantee, checked end
//! to end:
//!
//! * a multi-threaded run over disjoint per-thread directory sets leaves
//!   an fsck-clean image, and its op tally is exactly the sum of the
//!   equivalent single-threaded sessions (nothing lost, nothing doubled);
//! * threads hammering the *same* directories never corrupt entries or
//!   tear file contents;
//! * online relocation racing foreground writes preserves block-level
//!   atomicity — every block is wholly one writer's payload.

use cffs::core::{fsck, Cffs, CffsConfig, MkfsParams};
use cffs::prelude::FsResult;
use cffs::workloads::concurrent::{self, ConcurrentParams};
use cffs_disksim::models;
use cffs_disksim::Disk;
use cffs_fslib::FileSystem;

fn fresh() -> Cffs {
    cffs::core::mkfs::mkfs(Disk::new(models::tiny_test_disk()), MkfsParams::tiny(), CffsConfig::cffs())
        .expect("mkfs")
}

fn assert_fsck_clean(fs: &Cffs, context: &str) {
    Cffs::sync(fs).expect("sync");
    let mut img = fs.crash_image();
    let report = fsck::fsck(&mut img, false).expect("fsck runs");
    assert!(report.clean(), "{context}: fsck found {:?}", report.errors);
}

#[test]
fn disjoint_cg_stress_is_fsck_clean_and_ops_sum_to_single_thread() {
    let p = ConcurrentParams {
        nthreads: 4,
        dirs_per_thread: 2,
        files_per_dir: 24,
        file_size: 4096,
        shared_dirs: 0,
        shared_files_per_thread: 0,
        read_rounds: 2,
        seed: 7,
    };
    let fs = fresh();
    let r = concurrent::run(&fs, &p).expect("concurrent run");
    assert_eq!(r.nthreads, 4);
    assert_fsck_clean(&fs, "4-thread disjoint stress");

    // The same four sessions, replayed one at a time on fresh instances:
    // thread t's session is seeded from `seed ^ t`, so a 1-thread run
    // with `seed ^ t` reproduces its op stream exactly.
    let mut sequential_total = 0u64;
    for t in 0..4u64 {
        let solo = ConcurrentParams { nthreads: 1, seed: p.seed ^ t, ..p };
        let sfs = fresh();
        let sr = concurrent::run(&sfs, &solo).expect("solo run");
        assert_fsck_clean(&sfs, "solo session");
        sequential_total += sr.total_ops();
    }
    assert_eq!(
        r.total_ops(),
        sequential_total,
        "4-thread op tally must equal the sum of its single-thread sessions"
    );
    assert!(r.per_thread_ops.iter().all(|&o| o > 0), "every thread did work");
}

#[test]
fn shared_directory_contention_keeps_entries_and_contents_intact() {
    let p = ConcurrentParams {
        nthreads: 4,
        dirs_per_thread: 1,
        files_per_dir: 4,
        file_size: 4096,
        shared_dirs: 2,
        shared_files_per_thread: 12,
        read_rounds: 1,
        seed: 99,
    };
    let fs = fresh();
    concurrent::run(&fs, &p).expect("contended run");
    assert_fsck_clean(&fs, "shared-directory contention");

    let root = Cffs::root(&fs);
    for s in 0..p.shared_dirs {
        let dir = Cffs::lookup(&fs, root, &format!("shared{s}")).expect("shared dir survives");
        let entries = Cffs::readdir(&fs, dir).expect("readdir");
        assert_eq!(
            entries.len(),
            p.nthreads * p.shared_files_per_thread,
            "shared{s}: every thread's files present exactly once"
        );
        // Every file reads back as its writer's fill byte, full length:
        // racing creates never cross-wired name → inode → data.
        let mut buf = vec![0u8; p.file_size];
        for t in 0..p.nthreads {
            for f in 0..p.shared_files_per_thread {
                let ino = Cffs::lookup(&fs, dir, &format!("t{t}_s{f}")).expect("entry resolves");
                let n = Cffs::read(&fs, ino, 0, &mut buf).expect("read");
                assert_eq!(n, p.file_size);
                assert!(
                    buf.iter().all(|&b| b == t as u8),
                    "shared{s}/t{t}_s{f}: content belongs to thread {t}"
                );
            }
        }
    }
}

#[test]
fn relocation_racing_foreground_writes_is_block_atomic() {
    const NFILES: usize = 6;
    const BLOCKS_PER_FILE: u64 = 3;
    const BLOCK: usize = 4096;

    let fs = fresh();
    let root = Cffs::root(&fs);
    let dir = Cffs::mkdir(&fs, root, "hot").expect("mkdir");
    let mut inos = Vec::new();
    for i in 0..NFILES {
        let ino = Cffs::create(&fs, dir, &format!("f{i}")).expect("create");
        for lbn in 0..BLOCKS_PER_FILE {
            // Fill byte 1: the pre-race generation.
            Cffs::write(&fs, ino, lbn * BLOCK as u64, &vec![1u8; BLOCK]).expect("write");
        }
        inos.push(ino);
    }
    Cffs::sync(&fs).expect("sync");

    // Writer thread: rewrites whole blocks with generation bytes 2..=9,
    // deterministic order. Relocator thread: carves fresh groups and
    // moves the same blocks, concurrently. The op-stripe lock must make
    // each write and each relocation atomic at block granularity.
    std::thread::scope(|scope| {
        let writer = {
            let inos = inos.clone();
            let fs = &fs;
            scope.spawn(move || -> FsResult<()> {
                for generation in 2u8..=9 {
                    for (i, &ino) in inos.iter().enumerate() {
                        let lbn = (i as u64 + generation as u64) % BLOCKS_PER_FILE;
                        Cffs::write(fs, ino, lbn * BLOCK as u64, &vec![generation; BLOCK])?;
                    }
                }
                Ok(())
            })
        };
        let relocator = {
            let inos = inos.clone();
            let fs = &fs;
            scope.spawn(move || -> FsResult<()> {
                for _round in 0..4 {
                    let Some(group) = fs.carve_group_for(dir)? else { break };
                    for &ino in &inos {
                        for lbn in 0..BLOCKS_PER_FILE {
                            fs.relocate_block_into(ino, lbn, group)?;
                        }
                    }
                }
                Ok(())
            })
        };
        writer.join().expect("writer panicked").expect("writer ops");
        relocator.join().expect("relocator panicked").expect("relocate ops");
    });

    assert_fsck_clean(&fs, "relocation vs foreground writes");
    // Block atomicity: every block is uniformly one generation byte —
    // a mixed block would mean a relocation copied half a write.
    let mut buf = vec![0u8; BLOCK];
    for &ino in &inos {
        for lbn in 0..BLOCKS_PER_FILE {
            let n = Cffs::read(&fs, ino, lbn * BLOCK as u64, &mut buf).expect("read");
            assert_eq!(n, BLOCK);
            let first = buf[0];
            assert!((1..=9).contains(&first), "generation byte in range");
            assert!(
                buf.iter().all(|&b| b == first),
                "ino {ino} lbn {lbn}: torn block (starts {first}, mixed)"
            );
        }
    }
}

#[test]
fn concurrent_trait_object_is_usable() {
    // Threaded harness code holds the file system as
    // `&(dyn FileSystem + Sync)`: two threads, released together, drive
    // one object through the trait, each under its own directory.
    let fs = fresh();
    let dynfs: &(dyn FileSystem + Sync) = &fs;
    let root = dynfs.root();
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for t in 0..2u8 {
            let start = &start;
            s.spawn(move || {
                start.wait();
                let d = dynfs.mkdir(root, &format!("x{t}")).unwrap();
                let ino = dynfs.create(d, "f").unwrap();
                dynfs.write(ino, 0, &[t; 5]).unwrap();
                let mut buf = [0u8; 5];
                assert_eq!(dynfs.read(ino, 0, &mut buf).unwrap(), 5);
                assert_eq!(buf, [t; 5]);
            });
        }
    });
    dynfs.sync().unwrap();
    for t in 0..2u8 {
        let d = dynfs.lookup(root, &format!("x{t}")).unwrap();
        assert_eq!(dynfs.getattr(dynfs.lookup(d, "f").unwrap()).unwrap().size, 5);
    }
    assert_fsck_clean(&fs, "two threads through dyn FileSystem + Sync");
}

#[test]
fn dcache_shared_directory_churn_stays_coherent() {
    // Same shared-directory hammering, but with the namespace cache on
    // and deliberately undersized (eviction churns while four threads
    // create, probe, unlink and recreate the same names). A stale
    // positive entry shows up as a wrong-content read, a stale negative
    // entry as a NotFound for a file that exists at the end.
    const NTHREADS: usize = 4;
    const FILES: usize = 24;
    const BLOCK: usize = 4096;
    let fs = cffs::core::mkfs::mkfs(
        Disk::new(models::tiny_test_disk()),
        MkfsParams::tiny(),
        CffsConfig::cffs().with_dcache(32),
    )
    .expect("mkfs");
    let root = Cffs::root(&fs);
    let dir = Cffs::mkdir(&fs, root, "shared").expect("mkdir");

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..NTHREADS)
            .map(|t| {
                let fs = &fs;
                scope.spawn(move || -> FsResult<()> {
                    for f in 0..FILES {
                        let ino = Cffs::create(fs, dir, &format!("t{t}_f{f}"))?;
                        Cffs::write(fs, ino, 0, &vec![t as u8; BLOCK])?;
                        // Probe every thread's copy of this slot: misses
                        // seed negative entries that racing creates must
                        // kill. A probed name can be unlinked between the
                        // lookup and the getattr, so a failure there is a
                        // legal race, not an error.
                        for other in 0..NTHREADS {
                            if let Ok(ino) = Cffs::lookup(fs, dir, &format!("t{other}_f{f}")) {
                                let _ = Cffs::getattr(fs, ino);
                            }
                        }
                        if f % 2 == 1 {
                            Cffs::unlink(fs, dir, &format!("t{t}_f{f}"))?;
                            let ino = Cffs::create(fs, dir, &format!("t{t}_f{f}"))?;
                            Cffs::write(fs, ino, 0, &vec![t as u8; BLOCK])?;
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker panicked").expect("worker ops");
        }
    });

    assert_fsck_clean(&fs, "dcache shared-directory churn");
    let entries = Cffs::readdir(&fs, dir).expect("readdir");
    assert_eq!(entries.len(), NTHREADS * FILES, "every name present exactly once");
    let mut buf = vec![0u8; BLOCK];
    for t in 0..NTHREADS {
        for f in 0..FILES {
            let ino = Cffs::lookup(&fs, dir, &format!("t{t}_f{f}")).expect("entry resolves");
            let n = Cffs::read(&fs, ino, 0, &mut buf).expect("read");
            assert_eq!(n, BLOCK);
            assert!(
                buf.iter().all(|&b| b == t as u8),
                "shared/t{t}_f{f}: content belongs to thread {t}"
            );
        }
    }
    let o = Cffs::obs(&fs);
    assert!(o.get(cffs_obs::Ctr::DcacheHits) > 0, "the cache was exercised");
    assert!(o.get(cffs_obs::Ctr::DcacheEvictions) > 0, "capacity pressure was real");
}

/// A `Block` handed to one thread is a snapshot: another thread's
/// `modify_block` of the same block copies on write, so the reader's
/// handle keeps the old bytes while a fresh read sees the new ones. The
/// barriers force read → modify → re-check, round after round; the
/// threads only record what they saw (a panic between two barriers would
/// strand the other thread) and the checks run after the join.
#[test]
fn block_handle_held_by_a_reader_survives_a_concurrent_modify() {
    use cffs::cache::{BufferCache, CacheConfig};
    use cffs_disksim::{Driver, DriverConfig};
    use std::sync::Barrier;

    const ROUNDS: u8 = 50;
    let drv = Driver::new(Disk::new(models::tiny_test_disk()), DriverConfig::default());
    let cache = BufferCache::new(CacheConfig::default());
    cache.modify_block(&drv, 9, false, false, |d| d.fill(0)).expect("seed block");
    let (read_done, write_done) = (Barrier::new(2), Barrier::new(2));
    let filled = |data: &[u8], byte: u8| data.iter().all(|&b| b == byte);

    let (reader_saw, writer_saw) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            (0..ROUNDS)
                .map(|round| {
                    let held = cache.read_block(&drv, 9).expect("read");
                    let before = filled(&held, round);
                    read_done.wait();
                    write_done.wait();
                    let fresh = cache.read_block(&drv, 9).expect("re-read");
                    (before, filled(&held, round), filled(&fresh, round + 1))
                })
                .collect::<Vec<_>>()
        });
        let writer = s.spawn(|| {
            (0..ROUNDS)
                .map(|round| {
                    read_done.wait();
                    let current = cache
                        .modify_block(&drv, 9, false, true, |d| {
                            let current = filled(d, round);
                            d.fill(round + 1);
                            current
                        })
                        .expect("modify");
                    write_done.wait();
                    current
                })
                .collect::<Vec<_>>()
        });
        (reader.join().expect("reader panicked"), writer.join().expect("writer panicked"))
    });
    for (round, (&(before, snapshot, fresh), &current)) in reader_saw.iter().zip(&writer_saw).enumerate() {
        assert!(before, "round {round}: the read saw the current bytes");
        assert!(current, "round {round}: the writer modified the current bytes");
        assert!(snapshot, "round {round}: the held handle kept the old bytes");
        assert!(fresh, "round {round}: a fresh read saw the new bytes");
    }
}
