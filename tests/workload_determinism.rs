//! Byte-stable timelines for the seeded workloads.
//!
//! Every workload payload is a pure function of `(seed, serial)`, so two
//! runs with equal parameters must agree on the *entire* simulated
//! timeline to the nanosecond — same bytes, same block layout, same disk
//! requests. These regression tests pin that property for PostMark, the
//! software-development suite, and the adversarial aging workload on a
//! real C-FFS instance (the oracle-level determinism is covered by each
//! workload's unit tests), and check that changing the seed actually
//! changes the stream.

use cffs::build;
use cffs::core::CffsConfig;
use cffs_disksim::models;
use cffs_workloads::aging::{age_adversarial, AdversarialParams};
use cffs_workloads::appdev::{self, DevTreeParams};
use cffs_workloads::postmark::{self, PostmarkParams};

fn tiny_cffs() -> cffs::core::Cffs {
    build::on_disk(models::tiny_test_disk(), CffsConfig::cffs())
}

#[test]
fn postmark_timeline_is_byte_stable() {
    let run = |seed: u64| {
        let fs = tiny_cffs();
        postmark::run(&fs, PostmarkParams { seed, ..PostmarkParams::small() })
            .expect("postmark");
        fs.sync().expect("sync");
        fs.now().as_nanos()
    };
    assert_eq!(run(7), run(7), "equal seeds must replay the same timeline");
    assert_ne!(run(7), run(8), "the seed must actually steer the stream");
}

#[test]
fn appdev_timeline_is_byte_stable() {
    let run = |seed: u64| {
        let fs = tiny_cffs();
        appdev::run(&fs, DevTreeParams { seed, ..DevTreeParams::small() }).expect("appdev");
        fs.sync().expect("sync");
        fs.now().as_nanos()
    };
    assert_eq!(run(3), run(3), "equal seeds must replay the same timeline");
    assert_ne!(run(3), run(4), "the seed must actually steer the stream");
}

#[test]
fn adversarial_aging_timeline_is_byte_stable() {
    let params = AdversarialParams { rounds: 2, storm_files: 40, ndirs: 4, seed: 5 };
    let run = |params: AdversarialParams| {
        let mut fs = tiny_cffs();
        age_adversarial(&mut fs, params, |_, _| Ok(())).expect("aging");
        fs.sync().expect("sync");
        fs.now().as_nanos()
    };
    assert_eq!(run(params), run(params));
    assert_ne!(run(params), run(AdversarialParams { seed: 6, ..params }));
}
