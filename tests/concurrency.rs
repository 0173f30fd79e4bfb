//! Concurrency: N client threads over one shared `Cffs`.
//!
//! What sharing one instance between threads must guarantee, checked end
//! to end. Every test spawns its own threads and lets them race: the
//! multi-client driver runs its clients one step at a time, so it would
//! hide the interleavings these tests are after.
//!
//! * a multi-threaded run over disjoint per-thread directory sets leaves
//!   an fsck-clean image, and its op tally is exactly the sum of the
//!   equivalent single-threaded sessions (nothing lost, nothing doubled);
//! * threads hammering the *same* directories never corrupt entries or
//!   tear file contents;
//! * online relocation racing foreground writes preserves block-level
//!   atomicity — every block is wholly one writer's payload;
//! * delayed write-back racing eviction loses no update;
//! * an entry point that does another's work takes the file system's
//!   one lock once: none deadlocks by locking it again.

use cffs::core::{fsck, Cffs, CffsConfig, MkfsParams};
use cffs::prelude::FsResult;
use cffs_disksim::models;
use cffs_disksim::Disk;
use cffs_fslib::path::{read_file, resolve, write_file};
use cffs_fslib::FileSystem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Client `t`'s seeded session over its own directories `/t{t}_d*`:
/// create and write every file, read each back (checking its bytes) and
/// stat it for `rounds` rounds, overwrite a seeded eighth by full path
/// and unlink a seeded quarter. Returns the operations it completed.
fn disjoint_session(fs: &Cffs, t: usize, dirs: usize, files: usize, seed: u64) -> FsResult<u64> {
    const SIZE: usize = 4096;
    const ROUNDS: usize = 2;
    let mut rng = StdRng::seed_from_u64(seed ^ t as u64);
    let payload = vec![t as u8; SIZE];
    let root = Cffs::root(fs);
    let mut ops = 0u64;
    let mut own = Vec::with_capacity(dirs);
    for d in 0..dirs {
        own.push(Cffs::mkdir(fs, root, &format!("t{t}_d{d}"))?);
        ops += 1;
    }
    // Interleave across the client's directories so consecutive ops hit
    // different cylinder groups.
    for f in 0..files {
        for &dir in &own {
            let ino = Cffs::create(fs, dir, &format!("f{f}"))?;
            Cffs::write(fs, ino, 0, &payload)?;
            ops += 2;
        }
    }
    let mut buf = vec![0u8; SIZE];
    for _round in 0..ROUNDS {
        for &dir in &own {
            for f in 0..files {
                let ino = Cffs::lookup(fs, dir, &format!("f{f}"))?;
                assert_eq!(Cffs::read(fs, ino, 0, &mut buf)?, SIZE);
                assert!(buf == payload, "t{t}: f{f} content belongs to its writer");
                Cffs::getattr(fs, ino)?;
                ops += 3;
            }
        }
    }
    for d in 0..dirs {
        for f in 0..files {
            if rng.gen_range(0..8u64) == 0 {
                let ino = resolve(fs, &format!("/t{t}_d{d}/f{f}"))?;
                Cffs::write(fs, ino, 0, &payload)?;
                ops += 2;
            }
        }
    }
    for &dir in &own {
        for f in 0..files {
            if rng.gen_range(0..4u64) == 0 {
                Cffs::unlink(fs, dir, &format!("f{f}"))?;
                ops += 1;
            }
        }
    }
    Ok(ops)
}

#[test]
fn disjoint_cg_stress_is_fsck_clean_and_ops_sum_to_single_thread() {
    const NTHREADS: usize = 4;
    const DIRS: usize = 2;
    const FILES: usize = 24;
    const SEED: u64 = 7;
    let fs = fresh();
    let per_thread_ops: Vec<u64> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..NTHREADS)
            .map(|t| {
                let fs = &fs;
                scope.spawn(move || disjoint_session(fs, t, DIRS, FILES, SEED))
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("worker panicked").expect("worker ops")).collect()
    });
    assert_eq!(per_thread_ops.len(), NTHREADS);
    assert_fsck_clean(&fs, "4-thread disjoint stress");

    // The same four sessions, replayed one at a time on fresh instances:
    // session t is seeded from `SEED ^ t` whatever thread runs it.
    let mut sequential_total = 0u64;
    for t in 0..NTHREADS {
        let sfs = fresh();
        sequential_total += disjoint_session(&sfs, t, DIRS, FILES, SEED).expect("solo session");
        assert_fsck_clean(&sfs, "solo session");
    }
    assert_eq!(
        per_thread_ops.iter().sum::<u64>(),
        sequential_total,
        "4-thread op tally must equal the sum of its single-thread sessions"
    );
    assert!(per_thread_ops.iter().all(|&o| o > 0), "every thread did work");
}

#[test]
fn shared_directory_contention_keeps_entries_and_contents_intact() {
    const NTHREADS: usize = 4;
    const SHARED: usize = 2;
    const FILES: usize = 12;
    const SIZE: usize = 4096;
    let fs = fresh();
    let root = Cffs::root(&fs);
    let dirs: Vec<_> =
        (0..SHARED).map(|s| Cffs::mkdir(&fs, root, &format!("shared{s}")).expect("mkdir")).collect();
    // Every thread creates its own (thread-unique) names in every shared
    // directory, then re-reads and re-lists, so the per-directory op
    // stripe and the shared CG state genuinely collide. Files go through
    // the path helpers: racing threads resolve "/sharedN" concurrently
    // while siblings insert into it.
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..NTHREADS)
            .map(|t| {
                let (fs, dirs) = (&fs, &dirs);
                scope.spawn(move || -> FsResult<()> {
                    let payload = vec![t as u8; SIZE];
                    for (s, &dir) in dirs.iter().enumerate() {
                        for f in 0..FILES {
                            write_file(fs, &format!("/shared{s}/t{t}_s{f}"), &payload)?;
                        }
                        for f in 0..FILES {
                            let data = read_file(fs, &format!("/shared{s}/t{t}_s{f}"))?;
                            assert_eq!(data.len(), SIZE, "shared{s}/t{t}_s{f}: read back whole");
                        }
                        Cffs::readdir(fs, dir)?;
                    }
                    Ok(())
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker panicked").expect("worker ops");
        }
    });
    assert_fsck_clean(&fs, "shared-directory contention");

    for (s, &dir) in dirs.iter().enumerate() {
        let entries = Cffs::readdir(&fs, dir).expect("readdir");
        assert_eq!(
            entries.len(),
            NTHREADS * FILES,
            "shared{s}: every thread's files present exactly once"
        );
        // Every file reads back as its writer's fill byte, full length:
        // racing creates never cross-wired name → inode → data.
        let mut buf = vec![0u8; SIZE];
        for t in 0..NTHREADS {
            for f in 0..FILES {
                let ino = Cffs::lookup(&fs, dir, &format!("t{t}_s{f}")).expect("entry resolves");
                let n = Cffs::read(&fs, ino, 0, &mut buf).expect("read");
                assert_eq!(n, SIZE);
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
    // moves the same blocks, concurrently. The file system's one lock
    // must make each write and each relocation atomic at block granularity.
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

/// Write-back racing eviction must lose no update. Four threads fill
/// disjoint directories of a bare file system whose buffer cache is far
/// smaller than the data, so delayed write-back batches and evictions
/// interleave across threads; then the cache is dropped and every entry
/// is walked and read back from the platter. A write-back batch that
/// runs outside the cache's locks lets a concurrent eviction re-read a
/// block before its write lands (or overwrite a newer write with an
/// older one): a directory then reads back short, or a file with
/// another generation's bytes.
#[test]
fn write_back_racing_eviction_loses_no_update() {
    use cffs_fslib::MetadataMode;
    const NTHREADS: usize = 4;
    const NDIRS: usize = 64;
    const FILES: usize = 16;
    const SIZE: usize = 4096;
    const BIG: usize = 256 * 1024;
    const TRIALS: usize = 5;
    let fill = |d: usize, f: usize| ((d * 31 + f) & 0xff) as u8;
    let variants = [
        CffsConfig::conventional(),
        CffsConfig::grouping_only(),
        CffsConfig::cffs(),
        CffsConfig::ffs(),
        CffsConfig::embedded_only(),
    ];
    for (v, base) in variants.into_iter().enumerate() {
        for trial in 0..TRIALS {
            let mut cfg = base.clone().with_mode(MetadataMode::Delayed);
            cfg.cache.nbufs = 256;
            let label = format!("{} trial {trial}", cfg.label);
            let fs = cffs::core::mkfs::mkfs(Disk::new(models::tiny_test_disk()), MkfsParams::default(), cfg)
                .expect("mkfs");
            let root = Cffs::root(&fs);
            let dirs: Vec<_> =
                (0..NDIRS).map(|d| Cffs::mkdir(&fs, root, &format!("p{d}")).expect("mkdir")).collect();
            Cffs::sync(&fs).expect("sync");
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..NTHREADS)
                    .map(|t| {
                        let (fs, dirs) = (&fs, &dirs);
                        scope.spawn(move || -> FsResult<()> {
                            for d in (t..NDIRS).step_by(NTHREADS) {
                                for f in 0..FILES {
                                    let ino = Cffs::create(fs, dirs[d], &format!("f{f}"))?;
                                    Cffs::write(fs, ino, 0, &vec![fill(d, f); SIZE])?;
                                }
                                if d % 4 == v % 4 {
                                    let big = Cffs::create(fs, dirs[d], "big")?;
                                    let payload: Vec<u8> = (0..BIG).map(|i| (i % 251) as u8).collect();
                                    Cffs::write(fs, big, 0, &payload)?;
                                }
                            }
                            Ok(())
                        })
                    })
                    .collect();
                for w in workers {
                    w.join().expect("worker panicked").unwrap_or_else(|e| panic!("{label}: {e:?}"));
                }
            });
            Cffs::drop_caches(&fs).expect("drop caches");

            let mut buf = vec![0u8; BIG];
            for (d, &dir) in dirs.iter().enumerate() {
                let mut names: Vec<String> =
                    Cffs::readdir(&fs, dir).expect("readdir").into_iter().map(|e| e.name).collect();
                names.sort();
                let mut want: Vec<String> = (0..FILES).map(|f| format!("f{f}")).collect();
                if d % 4 == v % 4 {
                    want.push("big".to_string());
                }
                want.sort();
                assert_eq!(names, want, "{label}: /p{d} lost entries");
                for f in 0..FILES {
                    let ino = Cffs::lookup(&fs, dir, &format!("f{f}")).expect("entry resolves");
                    let n = Cffs::read(&fs, ino, 0, &mut buf).expect("read");
                    assert!(
                        n == SIZE && buf[..n].iter().all(|&b| b == fill(d, f)),
                        "{label}: /p{d}/f{f} read back {n} bytes of the wrong contents"
                    );
                }
                if d % 4 == v % 4 {
                    let ino = Cffs::lookup(&fs, dir, "big").expect("big resolves");
                    let n = Cffs::read(&fs, ino, 0, &mut buf).expect("read big");
                    assert!(
                        n == BIG && buf.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8),
                        "{label}: /p{d}/big read back {n} bytes of the wrong contents"
                    );
                }
            }
            assert_fsck_clean(&fs, &label);
        }
    }
}

/// Every public entry point that does another's work takes the file
/// system's one lock once: `unmount` and `drop_caches` sync,
/// `relocate_block_into` claims a group slot, rename, link, mkdir/rmdir
/// and truncate run allocation and cache internals, and the regrouper
/// plans and relocates a churned image. A path that took the lock again
/// would deadlock, so each step runs on a worker thread that reports it
/// before starting, and the test waits for each report with a timeout: a
/// re-locking path fails within seconds, naming its step, instead of
/// hanging the suite.
#[test]
fn nested_entry_points_take_the_lock_once() {
    use cffs::prelude::MetadataMode;
    use cffs_regroup::RegroupConfig;
    use cffs_workloads::aging::{age_adversarial, AdversarialParams};
    use std::sync::mpsc::{channel, RecvTimeoutError};
    use std::time::Duration;

    let (tx, rx) = channel::<&'static str>();
    let worker = std::thread::spawn(move || {
        let step = |name| tx.send(name).expect("the test is listening");
        let fs = fresh();
        let root = fs.root();
        step("mkdir");
        let a = fs.mkdir(root, "a").expect("mkdir a");
        let b = fs.mkdir(root, "b").expect("mkdir b");
        let f = fs.create(a, "f").expect("create");
        fs.write(f, 0, &[7u8; 6000]).expect("write");
        step("link");
        let f = fs.link(f, b, "alias").expect("link");
        step("rename within one directory");
        fs.rename(a, "f", a, "g").expect("rename within a");
        step("rename across two directories");
        fs.rename(a, "g", b, "h").expect("rename a -> b");
        step("mkdir and rmdir");
        fs.mkdir(a, "sub").expect("mkdir sub");
        fs.rmdir(a, "sub").expect("rmdir sub");
        step("truncate");
        fs.truncate(f, 100).expect("truncate");
        step("relocate_block_into");
        let r = fs.create(a, "r").expect("create r");
        fs.write(r, 0, &[1u8; 4096]).expect("write r");
        let group = fs.carve_group_for(a).expect("carve").expect("grouping is on");
        assert!(fs.relocate_block_into(r, 0, group).expect("relocate").is_some(), "block moved");
        step("drop_caches");
        fs.drop_caches().expect("drop_caches");
        step("unmount");
        fs.unmount().expect("unmount");
        step("regroup a churned image");
        let mut fs = cffs::build::on_disk(
            models::tiny_test_disk(),
            CffsConfig::cffs().with_mode(MetadataMode::Delayed),
        );
        let churn = AdversarialParams { rounds: 2, storm_files: 60, ndirs: 4, seed: 42 };
        age_adversarial(&mut fs, churn, |_, _| Ok(())).expect("aging");
        let out = cffs_regroup::run(&mut fs, &RegroupConfig::exhaustive()).expect("regroup");
        assert!(out.blocks_moved > 0, "the churned image had blocks to move");
        step("done");
    });
    // A deadlocked worker cannot be joined: on a timeout the test fails
    // and leaves it blocked. Otherwise it is joined, so its panic shows.
    let mut last = "mount";
    loop {
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok("done") => break,
            Ok(step) => last = step,
            Err(RecvTimeoutError::Timeout) => panic!("`{last}` did not finish in 30 s: it locked again"),
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    if let Err(cause) = worker.join() {
        eprintln!("the worker failed during `{last}`");
        std::panic::resume_unwind(cause);
    }
}
