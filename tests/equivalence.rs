//! Cross-implementation equivalence: every file system must produce the
//! same logical state as the in-memory oracle for the same operation
//! trace. This is the strongest correctness check in the suite — it is
//! blind to layout, so embedded inodes, grouping, renumbering and
//! degrouping all have to preserve semantics exactly.

use cffs::build;
use cffs::obs::Ctr;
use cffs::prelude::*;
use cffs_disksim::models;
use cffs_fslib::model::ModelFs;
use cffs_fslib::BLOCK_SIZE;
use cffs_workloads::trace::{random_trace, replay, snapshot, Op};
use proptest::prelude::*;

/// A freshly formatted configuration on the tiny test disk.
fn subject(cfg: CffsConfig) -> Cffs {
    cffs::core::mkfs::mkfs(
        cffs_disksim::Disk::new(models::tiny_test_disk()),
        cffs::core::MkfsParams::tiny(),
        cfg,
    )
    .expect("mkfs")
}

/// Sync, then check the image: the errors the checker reports.
fn fsck_errors(fs: &Cffs) -> Vec<String> {
    fs.sync().expect("sync");
    cffs::core::fsck(&mut fs.crash_image(), false).expect("fsck").errors
}

fn all_test_filesystems() -> Vec<Cffs> {
    [
        CffsConfig::ffs(),
        CffsConfig::conventional(),
        CffsConfig::embedded_only(),
        CffsConfig::grouping_only(),
        CffsConfig::cffs(),
    ]
    .into_iter()
    .map(subject)
    .collect()
}

/// [`all_test_filesystems`] plus the two C-FFS settings under which the
/// data path's C-FFS steps run: sequential read-ahead, and a 4-block group
/// that small writes outgrow (degrouping).
fn data_path_filesystems() -> Vec<Cffs> {
    let mut v = all_test_filesystems();
    let mut prefetch = CffsConfig::cffs();
    prefetch.prefetch_blocks = 8;
    prefetch.label = "C-FFS prefetch 8".into();
    let mut small_groups = CffsConfig::cffs();
    small_groups.group_blocks = 4;
    small_groups.label = "C-FFS group 4".into();
    v.push(subject(prefetch));
    v.push(subject(small_groups));
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
            replay(&fs, &ops).unwrap_or_else(|e| panic!("{label} seed {seed}: {e}"));
            let got = snapshot(&fs).expect("snapshot");
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
        let fs = subject(CffsConfig::ffs());
        replay(&fs, &ops).expect("replay");
        let disk = fs.unmount().expect("unmount");
        let fs2 = Cffs::mount(disk, CffsConfig::ffs()).expect("remount");
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

/// One step of a byte-range script against three files, `/d/a`, `/d/b`
/// and `/d/c`.
#[derive(Debug, Clone)]
enum RangeOp {
    Write { file: usize, off: u64, len: usize, byte: u8 },
    Read { file: usize, off: u64, len: usize },
    Truncate { file: usize, size: u64 },
    DropCaches,
}

/// Bytes a `Write` stores: they depend on the absolute offset, so a write
/// landing one byte off shows up on read-back.
fn payload(off: u64, len: usize, byte: u8) -> Vec<u8> {
    (0..len as u64).map(|i| byte ^ ((off + i) % 251) as u8).collect()
}

/// The files the script works on.
fn range_files(fs: &dyn FileSystem) -> [Ino; 3] {
    let d = fs.mkdir(fs.root(), "d").expect("mkdir");
    ["a", "b", "c"].map(|name| fs.create(d, name).expect("create"))
}

/// Run `op`; a read returns the bytes read.
fn run_range_op(fs: &dyn FileSystem, files: &[Ino; 3], op: &RangeOp) -> Vec<u8> {
    match *op {
        RangeOp::Write { file, off, len, byte } => {
            let n = fs.write(files[file], off, &payload(off, len, byte)).expect("write");
            assert_eq!(n, len, "short write");
            Vec::new()
        }
        RangeOp::Read { file, off, len } => {
            let mut buf = vec![0xEE; len];
            let n = fs.read(files[file], off, &mut buf).expect("read");
            buf.truncate(n);
            buf
        }
        RangeOp::Truncate { file, size } => {
            fs.truncate(files[file], size).expect("truncate");
            Vec::new()
        }
        RangeOp::DropCaches => {
            fs.drop_caches().expect("drop caches");
            Vec::new()
        }
    }
}

/// A fixed script over the data path: writes across block edges, lbn 12
/// and lbn 1 036, holes, partial overwrites, shrinking and extending
/// truncates, a write that outgrows the file's group, cold reads
/// (sequential, so read-ahead runs), and cold partial overwrites of a
/// small grouped file.
fn fixed_range_script() -> Vec<RangeOp> {
    use RangeOp::*;
    let b = BLOCK_SIZE as u64;
    let mut ops = vec![
        Write { file: 0, off: 0, len: 10_000, byte: 1 },
        Write { file: 2, off: 0, len: 3000, byte: 8 },
        Write { file: 1, off: b - 1, len: 4098, byte: 2 },
        Write { file: 0, off: 12 * b - 1, len: 3, byte: 3 },
        Write { file: 0, off: 1036 * b - 1, len: 5000, byte: 4 },
        Truncate { file: 1, size: 6000 },
        Truncate { file: 1, size: 20_000 },
        Write { file: 0, off: 100, len: 50, byte: 5 },
        Write { file: 1, off: 4 * b + 7, len: 100, byte: 6 },
        DropCaches,
        Read { file: 0, off: 0, len: 16_384 },
        Read { file: 0, off: 12 * b - 100, len: 8192 },
        Read { file: 0, off: 1036 * b - 2, len: 8192 },
        Read { file: 1, off: 0, len: 20_000 },
        Truncate { file: 0, size: 12 * b + 10 },
        Write { file: 1, off: 16 * b, len: 70_000, byte: 7 },
        DropCaches,
    ];
    ops.extend((0..18).map(|i| Read { file: 1, off: i * 2 * b, len: 2 * b as usize }));
    ops.extend([
        DropCaches,
        Write { file: 2, off: 10, len: 20, byte: 9 },
        Write { file: 2, off: 3000, len: 2000, byte: 10 },
    ]);
    ops
}

/// Simulated time and cache/disk counters after [`fixed_range_script`]:
/// `(label, now ns, cache lookups, physical hits, logical hits, group
/// reads, disk requests)`. Moving a charge or a cache call on the data
/// path moves one of these; a change meant to do so updates them.
const PINNED_RANGE_SCRIPT: [(&str, u64, u64, u64, u64, u64, u64); 7] = [
    ("FFS", 443_287_033, 368, 198, 2, 0, 76),
    ("conventional", 469_444_440, 400, 230, 2, 0, 76),
    ("embedded inodes", 424_999_996, 412, 240, 2, 0, 76),
    ("explicit grouping", 537_037_032, 420, 245, 2, 2, 78),
    ("C-FFS", 481_481_477, 432, 256, 2, 2, 77),
    ("C-FFS prefetch 8", 470_370_366, 483, 327, 2, 9, 64),
    ("C-FFS group 4", 468_287_032, 419, 249, 2, 3, 77),
];

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

    // And agree with the numbers pinned above, so a charge that moves the
    // same way in both runs is caught too.
    let got: Vec<_> = data_path_filesystems().iter().map(|fs| range_script_numbers(fs)).collect();
    assert_eq!(got, pinned_range_script(), "simulated time or cache traffic moved: {got:#?}");

    // The same script on a synchronous-metadata C-FFS splits each op's
    // latency into queue, service and op time exactly as pinned: the
    // split is taken on the thread that issued the disk request.
    let fs = subject(CffsConfig::cffs().with_mode(MetadataMode::Synchronous));
    let files = range_files(&fs);
    for op in fixed_range_script() {
        run_range_op(&fs, &files, &op);
    }
    fs.sync().expect("sync");
    let obs = fs.obs();
    let attr = [Ctr::AttrQueueNs, Ctr::AttrServiceNs, Ctr::AttrOpNs].map(|c| obs.get(c));
    assert_eq!(attr, PINNED_SYNC_ATTR, "queue / service / op attribution moved");
}

/// Run [`fixed_range_script`] and a sync on `fs`; return the
/// [`PINNED_RANGE_SCRIPT`] row it produced.
fn range_script_numbers(fs: &dyn FileSystem) -> (String, u64, u64, u64, u64, u64, u64) {
    let files = range_files(fs);
    for op in fixed_range_script() {
        run_range_op(fs, &files, &op);
    }
    fs.sync().expect("sync");
    let io = fs.io_stats();
    let c = io.cache;
    let disk = io.disk.reads + io.disk.writes;
    (fs.label().to_string(), fs.now().as_nanos(), c.lookups, c.phys_hits, c.logical_hits, c.group_reads, disk)
}

fn pinned_range_script() -> Vec<(String, u64, u64, u64, u64, u64, u64)> {
    PINNED_RANGE_SCRIPT.iter().map(|&(l, t, a, b, c, d, e)| (l.to_string(), t, a, b, c, d, e)).collect()
}

/// Sampling only reads the registries: with a 1 ms sim-cadence feed tap
/// and a flight recorder armed on one registry, sharing its pacer at
/// different intervals, the range script still lands on the pinned
/// simulated ns and cache traffic exactly.
#[test]
fn deterministic_simulated_time_with_feed_and_flight_armed() {
    use cffs::obs::{feed, flight};
    let dir = std::env::temp_dir().join(format!("cffs-equiv-sampled-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let got: Vec<_> = data_path_filesystems()
        .iter()
        .map(|fs| {
            let obs = fs.obs();
            let sink = feed::FeedSink::create(dir.join("feed.jsonl")).expect("create feed");
            let tap = feed::attach(&sink, &obs, fs.label(), feed::Cadence::Sim(1_000_000));
            let recorder = flight::arm(&dir, &obs, &[], fs.label());
            let row = range_script_numbers(fs);
            drop((tap, recorder));
            let frames = feed::parse_feed(&std::fs::read_to_string(sink.path()).unwrap()).unwrap().frames;
            assert!(frames.len() > 20, "{}: the tap cut {} frames", row.0, frames.len());
            row
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(got, pinned_range_script(), "sampling moved simulated time: {got:#?}");
}

/// `(attr_queue_ns, attr_service_ns, attr_op_ns)` after
/// [`fixed_range_script`] and a sync on a synchronous-metadata C-FFS.
const PINNED_SYNC_ATTR: [u64; 3] = [2_338_000, 471_782_477, 7_105_000];

/// Byte offsets on and around what the data path treats specially: every
/// block edge of the first 24 blocks (4096·k − 1, + 0, + 1), and the first
/// block mapped through the single-indirect (lbn 12) and double-indirect
/// (lbn 1 036) pointer blocks.
fn arb_offset() -> impl Strategy<Value = u64> {
    let b = BLOCK_SIZE as u64;
    prop_oneof![
        3 => (0u64..24, 0u64..3).prop_map(move |(k, d)| (k * b + d).saturating_sub(1)),
        2 => (prop::sample::select(vec![12 * b, 1036 * b]), 0u64..3)
            .prop_map(|(base, d)| base + d - 1),
        1 => 0u64..100_000,
    ]
}

fn arb_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        2 => prop::sample::select(vec![0usize, 1, 4095, 4096, 4097, 8193]),
        3 => 1usize..12_000,
    ]
}

fn arb_range_op() -> impl Strategy<Value = RangeOp> {
    prop_oneof![
        4 => (0usize..3, arb_offset(), arb_len(), any::<u8>())
            .prop_map(|(file, off, len, byte)| RangeOp::Write { file, off, len, byte }),
        3 => (0usize..3, arb_offset(), arb_len())
            .prop_map(|(file, off, len)| RangeOp::Read { file, off, len }),
        2 => (0usize..3, arb_offset()).prop_map(|(file, size)| RangeOp::Truncate { file, size }),
        1 => Just(RangeOp::DropCaches),
    ]
}

/// The file's size, then what it holds within one block either side of
/// each of `points`.
fn around(fs: &dyn FileSystem, file: Ino, points: &[u64]) -> (u64, Vec<u8>) {
    let mut out = Vec::new();
    for &p in points {
        let mut buf = vec![0xEE; 2 * BLOCK_SIZE + 2];
        let n = fs.read(file, p.saturating_sub(BLOCK_SIZE as u64 + 1), &mut buf).expect("read");
        out.extend_from_slice(&buf[..n]);
    }
    (fs.getattr(file).expect("getattr").size, out)
}

/// Panic naming the first byte where `got` and `want` differ, if any.
fn assert_same_bytes(got: &[u8], want: &[u8], what: std::fmt::Arguments) {
    if got != want {
        let at = got.iter().zip(want).position(|(a, b)| a != b);
        panic!("{what}: {} vs {} bytes, first difference at {at:?}", got.len(), want.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Byte-range writes, reads and truncates read back exactly what the
    /// reference model holds, on every file system and after every op,
    /// and leave an fsck-clean image.
    #[test]
    fn byte_ranges_match_model(ops in prop::collection::vec(arb_range_op(), 1..30)) {
        let model = ModelFs::new();
        let model_files = range_files(&model);
        for fs in data_path_filesystems() {
            let label = fs.label().to_string();
            let files = range_files(&fs);
            for op in &ops {
                let got = run_range_op(&fs, &files, op);
                let want = run_range_op(&model, &model_files, op);
                assert_same_bytes(&got, &want, format_args!("{label}: {op:?}"));
                let (file, points) = match *op {
                    RangeOp::Write { file, off, len, .. } => (file, vec![off, off + len as u64]),
                    RangeOp::Truncate { file, size } => (file, vec![size]),
                    RangeOp::Read { file, off, .. } => (file, vec![off]),
                    RangeOp::DropCaches => continue,
                };
                let (size, got) = around(&fs, files[file], &points);
                let (model_size, want) = around(&model, model_files[file], &points);
                prop_assert_eq!(size, model_size, "{}: size after {:?}", label, op);
                assert_same_bytes(&got, &want, format_args!("{label}: after {op:?}"));
            }
            for (&f, &m) in files.iter().zip(&model_files) {
                let got = cffs_fslib::path::read_all(&fs, f).expect("read back");
                let want = cffs_fslib::path::read_all(&model, m).expect("model");
                assert_same_bytes(&got, &want, format_args!("{label}: whole file {f}"));
            }
            let errors = fsck_errors(&fs);
            prop_assert!(errors.is_empty(), "{}: {:?}", label, errors);
            // Undo this file system's ops on the model before the next one.
            for &m in &model_files {
                model.truncate(m, 0).expect("reset model");
            }
        }
    }
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
        replay(&fs, &ops).expect("replay");
        assert_eq!(snapshot(&fs).expect("snapshot"), want, "{label}");
    }
}
