//! Fault-injection smoke for the flight recorder.
//!
//! Builds a tiny C-FFS with a black box armed (`--flight DIR`), drives
//! enough traffic to populate the capture window, then corrupts the
//! crash image and runs `fsck` over it. The unclean verdict must flush
//! every armed recorder with reason `fsck_failure`, leaving a
//! `FLIGHT_*.jsonl` dump for `cffs-inspect postmortem` — the round trip
//! `ci.sh` asserts.
//!
//! Usage: `flight_fault_smoke --flight DIR`

use cffs::core::{fsck, mkfs, CffsConfig, MkfsParams};
use cffs_disksim::models;
use cffs_disksim::Disk;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = cffs_bench::experiments::parse(&[], &argv);
    args.expect("usage: flight_fault_smoke --flight DIR").wire_telemetry();

    let fs = mkfs::mkfs(Disk::new(models::tiny_test_disk()), MkfsParams::tiny(), CffsConfig::cffs())
        .expect("mkfs");
    let root = fs.root();
    for d in 0..3 {
        let dir = fs.mkdir(root, &format!("d{d}")).expect("mkdir");
        for f in 0..8 {
            let ino = fs.create(dir, &format!("f{f}")).expect("create");
            fs.write(ino, 0, &vec![0x42u8 ^ f as u8; 3000]).expect("write");
            let mut buf = vec![0u8; 3000];
            fs.read(ino, 0, &mut buf).expect("read");
        }
    }
    fs.sync().expect("sync");

    // Fault injection: scribble over a band of sectors in the metadata
    // region of a crash-consistent copy. The live mount (and its armed
    // recorder) stays untouched; fsck judges the corrupted copy.
    let mut img = fs.crash_image();
    let junk = [0xA5u8; 512];
    for lba in 16..144 {
        img.raw_write(lba, &junk);
    }
    match fsck::fsck(&mut img, false) {
        Ok(report) if report.clean() => {
            eprintln!("error: injected corruption left the image fsck-clean");
            std::process::exit(1);
        }
        Ok(report) => println!("fsck flagged {} errors on the corrupted image", report.errors.len()),
        Err(e) => println!("fsck refused the corrupted image outright: {e}"),
    }
    // Exit without unmounting: a clean drop would cut a final "detach"
    // dump over the `fsck_failure` one, but the point of this smoke is
    // to leave the failure capture as the last word — exactly what an
    // operator aborting after a bad fsck would see.
    std::process::exit(0);
}
