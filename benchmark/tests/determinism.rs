//! Same seed → identical op stream, simulated metrics and counts, at
//! reduced scale; different seed → different stream. Every workload also
//! passes its own post-run durability checks here (`fingerprint` asserts
//! that no op and no check failed).

use cffs_benchmark::run::{fingerprint, WORKLOADS};

#[test]
fn same_seed_repeats_exactly_and_another_seed_differs() {
    for workload in WORKLOADS {
        let a = fingerprint(workload, 1997).expect("known workload");
        let b = fingerprint(workload, 1997).expect("known workload");
        assert_eq!(
            a.stream, b.stream,
            "{workload}: op stream differs between two runs of one seed"
        );
        assert_eq!(
            a.sim, b.sim,
            "{workload}: simulated metrics differ between two runs of one seed"
        );
        assert_eq!(
            a.counts, b.counts,
            "{workload}: counts differ between two runs of one seed"
        );
        let other = fingerprint(workload, 2718).expect("known workload");
        assert_ne!(
            other.stream, a.stream,
            "{workload}: seeds 1997 and 2718 gave the same stream"
        );
    }
}

#[test]
fn an_unknown_workload_is_an_error() {
    assert!(fingerprint("no_such_workload", 1).is_err());
}
