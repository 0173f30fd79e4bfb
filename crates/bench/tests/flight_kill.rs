//! A run killed with SIGKILL mid-flight leaves a flight dump that reads
//! back whole, yields a diagnosis, and stays bounded.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use cffs_obs::feed::{parse_feed, Records};
use cffs_obs::flight::{postmortem, render_postmortem, FLIGHT_FRAMES};
use cffs_obs::json::Json;

/// The dump's complete records so far (a torn last line is skipped).
fn records(path: &Path) -> Records {
    std::fs::read_to_string(path)
        .map(|text| parse_feed(&text).expect("every complete line validates"))
        .unwrap_or_default()
}

/// A child process, SIGKILLed and reaped on drop, so a failed assertion
/// leaves no run behind either.
struct Child(std::process::Child);

impl Drop for Child {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn kill_9_leaves_a_valid_bounded_flight_dump() {
    let dir = std::env::temp_dir().join(format!("cffs-flight-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create output dir");
    let mut child = Child(
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["soak", "--rounds", "100000", "--flight"])
            .arg(dir.join("flight"))
            .env("BENCH_OUT_DIR", &dir)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn repro soak"),
    );
    let path = dir.join("flight").join("FLIGHT_C-FFS.jsonl");
    // Wait until the dump holds at least three frames and the recorder
    // has cut two windows' worth, so the kill lands on a file that has
    // been compacted at least once.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let frames = records(&path).frames;
        let last_seq = frames
            .last()
            .and_then(|f| f.get("seq"))
            .and_then(Json::as_u64);
        if frames.len() >= 3 && last_seq >= Some(2 * FLIGHT_FRAMES as u64) {
            break;
        }
        if let Some(status) = child.0.try_wait().expect("poll repro soak") {
            panic!("repro soak exited ({status}) before its dump held enough frames");
        }
        if Instant::now() > deadline {
            panic!(
                "repro soak cut too few frames in time: {} so far",
                frames.len()
            );
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(child);

    let dump = records(&path);
    assert!(dump.frames.len() >= 3, "{} frames", dump.frames.len());
    assert!(
        dump.frames.len() <= 2 * FLIGHT_FRAMES,
        "{} frames: the file is not bounded",
        dump.frames.len()
    );
    let report = postmortem(&dump).expect("a head opens the file");
    let Some(Json::Arr(diagnosis)) = report.get("diagnosis") else {
        panic!("no diagnosis")
    };
    assert!(!diagnosis.is_empty(), "{}", render_postmortem(&report));
    std::fs::remove_dir_all(&dir).ok();
}
