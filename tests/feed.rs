//! Telemetry feed integration tests: schema validity end-to-end, and
//! the determinism contract — a seeded run's feed *renders* (via the
//! `cffs-top` engine) byte-identically across runs, single- and
//! multi-threaded. The feed files themselves carry host-time
//! `lock_wait_ns_*` deltas, so only the rendering (which skips them) is
//! the deterministic artifact.

use cffs::build;
use cffs::feedview::FeedView;
use cffs::obs::feed::{self, Cadence};
use cffs::prelude::*;
use cffs_core::CffsConfig;
use cffs_disksim::models;
use cffs_workloads::concurrent::{self, ConcurrentParams, Window};
use cffs_workloads::soak::{self, SoakParams};

fn tmp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("cffs-feedtest-{tag}-{}.jsonl", std::process::id()))
}

/// Replay a feed through the `cffs-top` rendering engine in headless
/// (deterministic) mode, concatenating every frame's dashboard.
fn render_feed(text: &str) -> String {
    let frames = feed::parse_feed(text).expect("every frame validates").frames;
    assert!(!frames.is_empty(), "feed has frames");
    let mut view = FeedView::new(false);
    let mut out = String::new();
    for f in &frames {
        view.push(f);
        out.push_str(&view.render());
        out.push_str("---\n");
    }
    out
}

/// One seeded single-threaded producer run: soak churn on a fresh C-FFS
/// with a simulated-cadence tap (frames cut at deterministic clock
/// points). Returns the feed text.
fn sim_producer(tag: &str, seed: u64) -> String {
    let path = tmp(tag);
    let sink = feed::FeedSink::create(&path).expect("create feed");
    let fs = build::on_disk(
        models::tiny_test_disk(),
        CffsConfig::cffs().with_mode(MetadataMode::Delayed),
    );
    let obs = fs.obs();
    {
        let _tap = feed::attach(&sink, &obs, "soak", Cadence::Sim(feed::SIM_INTERVAL_DEFAULT_NS));
        let p = SoakParams { rounds: 2, ndirs: 3, files_per_dir: 10, seed, ..SoakParams::default() };
        soak::run(&fs, &p, |_| {}).expect("soak");
    }
    let text = std::fs::read_to_string(&path).expect("read feed");
    std::fs::remove_file(&path).ok();
    text
}

#[test]
fn single_threaded_feed_rendering_is_byte_deterministic() {
    let a = sim_producer("sim-a", 1997);
    let b = sim_producer("sim-b", 1997);
    let (ra, rb) = (render_feed(&a), render_feed(&b));
    assert!(
        ra == rb,
        "same seed must render byte-identically;\nfirst divergence at byte {}",
        ra.bytes().zip(rb.bytes()).position(|(x, y)| x != y).unwrap_or(ra.len().min(rb.len()))
    );
    // The run did real work and the frames show it.
    assert!(ra.contains("stage=soak"), "{ra}");
    assert!(ra.contains("cg heatmap"), "{ra}");
    let frames = feed::parse_feed(&a).unwrap().frames;
    assert!(frames.len() >= 3, "sim cadence cut several frames, got {}", frames.len());
    // A different seed produces a different feed (the determinism above
    // is not vacuous).
    let c = sim_producer("sim-c", 4242);
    assert!(render_feed(&c) != ra, "different seeds must differ");
}

/// One seeded multi-threaded producer run: the E14 concurrent workload
/// with a manual-cadence tap cutting one frame per quiescent phase
/// barrier. Returns the feed text.
fn concurrent_producer(tag: &str, seed: u64) -> String {
    let path = tmp(tag);
    let sink = feed::FeedSink::create(&path).expect("create feed");
    let fs = build::on_disk(
        models::tiny_test_disk(),
        CffsConfig::cffs().with_mode(MetadataMode::Delayed),
    );
    let obs = cffs_core::Cffs::obs(&fs);
    {
        let tap = feed::attach(&sink, &obs, "concurrent", Cadence::Manual);
        // One directory per client. The driver runs its clients on one
        // clock-ordered schedule, so every frame — barrier timestamps
        // included — is a function of the seed.
        let p = ConcurrentParams {
            nthreads: 4,
            ndirs: 4,
            files_per_dir: 16,
            file_size: 4096,
            window: Window::Warm { rounds: 2 },
            seed,
        };
        concurrent::run_with_phase_hook(&fs, &p, |phase| tap.frame(phase))
            .expect("concurrent run");
    }
    let text = std::fs::read_to_string(&path).expect("read feed");
    std::fs::remove_file(&path).ok();
    text
}

#[test]
fn concurrent_feed_rendering_is_byte_deterministic() {
    let a = concurrent_producer("conc-a", 7);
    let b = concurrent_producer("conc-b", 7);
    let (ra, rb) = (render_feed(&a), render_feed(&b));
    if ra != rb {
        std::fs::write("/tmp/feed-a.jsonl", &a).ok();
        std::fs::write("/tmp/feed-b.jsonl", &b).ok();
        for (la, lb) in ra.lines().zip(rb.lines()) {
            if la != lb {
                panic!(
                    "multi-client producer must render byte-identically;\n  a: {la}\n  b: {lb}"
                );
            }
        }
        panic!("renderings differ in length: {} vs {}", ra.len(), rb.len());
    }
    // Every client context's slot shows up in the per-thread panel
    // (slots 1..=4; slot 0 is the caller's setup/sync work).
    for t in 1..=4 {
        assert!(ra.contains(&format!("t{t}:")), "thread slot {t} missing:\n{ra}");
    }
    // One frame per phase barrier plus the detach frame.
    let frames = feed::parse_feed(&a).unwrap().frames;
    assert_eq!(frames.len(), 5, "setup/populate/warm/churn + detach");
    let stages: Vec<&str> =
        frames.iter().filter_map(|f| f.get("stage").and_then(|s| s.as_str())).collect();
    assert_eq!(stages, ["setup", "populate", "warm", "churn", "churn"]);
}

#[test]
fn feed_frames_validate_against_the_shared_schema_checker() {
    // parse_feed already validates; this pins the specific shape a
    // downstream consumer greps for.
    let text = sim_producer("schema", 11);
    let frames = feed::parse_feed(&text).unwrap().frames;
    let last = frames.last().unwrap();
    assert!(last.get("seq").and_then(|s| s.as_u64()).unwrap() as usize == frames.len() - 1);
    let cgs = last.get("cgs").and_then(|c| c.as_arr()).unwrap();
    assert!(!cgs.is_empty(), "mounted C-FFS configures the per-CG table");
    let used: u64 =
        cgs.iter().filter_map(|c| c.get("used").and_then(|u| u.as_u64())).sum();
    assert!(used > 0, "soak left blocks allocated");
}
