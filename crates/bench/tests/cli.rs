//! The `repro` command line: a bad one is refused with exit code 2 and
//! the usage text before any file system is built or any file written;
//! a good one runs and writes its payload.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty output directory for one test.
fn out_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cffs-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create output dir");
    dir
}

fn repro(dir: &Path, args: &[String]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("BENCH_OUT_DIR", dir)
        .current_dir(dir)
        .output()
        .expect("spawn repro")
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

#[test]
fn bad_command_lines_exit_2_and_write_nothing() {
    let dir = out_dir("bad");
    let feed = dir.join("feed.jsonl").display().to_string();
    let flight = dir.join("flight").display().to_string();
    // A tiny smallfile run with every sink armed: were the bad part
    // ignored, it would leave BENCH, FOLD, feed and flight files behind.
    let tiny = strings(&[
        "smallfile",
        "--files",
        "6",
        "--dirs",
        "2",
        "--mode",
        "sync",
        "--feed",
        &feed,
        "--flight",
        &flight,
    ]);
    let bad: &[&[&str]] = &[
        &["--file", "60"],       // misspelled flag
        &["--order", "dirmjor"], // misspelled word
        &["--mode", "sycn"],
        &["--seed", "x"], // malformed number
        &["--seed", "-1"],
        &["60"],     // stray positional
        &["--size"], // missing value
    ];
    let mut lines: Vec<Vec<String>> =
        bad.iter().map(|b| [tiny.clone(), strings(b)].concat()).collect();
    lines.push(vec![]); // no experiment
    lines.push(strings(&["nosuch"]));
    lines.push(strings(&["all", "--quick", "--files", "6"])); // a flag of another experiment
    for line in lines {
        let out = repro(&dir, &line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line:?}: {stderr}");
        assert!(stderr.contains("usage: repro <experiment> [flags]"), "{line:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{line:?} printed a report");
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        assert!(left.is_empty(), "{line:?} wrote {left:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_good_command_line_runs_and_writes_its_payload() {
    let dir = out_dir("good");
    let out = repro(&dir, &strings(&["fig2", "--samples", "20"]));
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("64 KB"));
    let payload = std::fs::read_to_string(dir.join("BENCH_FIG2.json")).expect("payload written");
    assert!(payload.contains("\"experiment\": \"fig2\""), "{payload}");
    std::fs::remove_dir_all(&dir).ok();
}
