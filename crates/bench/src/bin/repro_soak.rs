//! Soak driver: open-ended churn to watch live with `cffs-top`.
//! Usage: repro_soak [--rounds N] [--dirs N] [--files N] [--seed N]
//!                   [--feed PATH] [--flight DIR] [--host-ms N]
//!
//! Runs the [`cffs_workloads::soak`] workload on a fresh C-FFS image.
//! With `--feed`, telemetry streams to PATH — at the deterministic
//! simulated cadence by default, or sampled every N wall-clock
//! milliseconds with `--host-ms` (the mode to pair with
//! `cffs-top --follow PATH` in a second terminal).
//!
//! Unlike the repro_* experiments this emits no BENCH payload: the soak
//! produces activity to watch, not a number to gate on.

use cffs::build;
use cffs_core::CffsConfig;
use cffs_disksim::models;
use cffs_fslib::MetadataMode;
use cffs_workloads::soak::{self, SoakParams};

fn arg(args: &[String], name: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.parse().unwrap_or_else(|_| panic!("{name} needs a number")))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    cffs_bench::wire_telemetry(&args);
    let p = SoakParams {
        rounds: arg(&args, "--rounds").unwrap_or(8) as usize,
        ndirs: arg(&args, "--dirs").unwrap_or(6) as usize,
        files_per_dir: arg(&args, "--files").unwrap_or(24) as usize,
        seed: arg(&args, "--seed").unwrap_or(1997),
        ..SoakParams::default()
    };
    let fs = build::on_disk(
        models::tiny_test_disk(),
        CffsConfig::cffs().with_mode(MetadataMode::Delayed),
    );
    let obs = fs.obs();
    let _feed = match arg(&args, "--host-ms") {
        Some(ms) => cffs_obs::feed::tap_global(
            &obs,
            "soak",
            cffs_obs::feed::Cadence::Host(std::time::Duration::from_millis(ms)),
        ),
        None => cffs_obs::feed::tap_global_sim(&obs, "soak"),
    };
    let r = soak::run(&fs, &p, |i| {
        eprintln!("soak: round {}/{} done", i + 1, p.rounds);
    })
    .expect("soak run");
    println!(
        "soak: {} rounds, {} ops, {} bytes, {} simulated",
        r.rounds,
        r.ops,
        r.bytes,
        cffs_disksim::SimDuration::from_nanos(fs.now().as_nanos()),
    );
}
