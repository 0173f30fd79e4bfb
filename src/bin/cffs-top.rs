//! `cffs-top` — a terminal dashboard for the live telemetry feed.
//!
//! Usage:
//!   cffs-top --follow <feed.jsonl> [--interval-ms N] [--headless] [--frames N] [--no-color]
//!   cffs-top --replay <feed.jsonl> [--interval-ms N] [--headless] [--frames N] [--no-color]
//!
//! `--follow` tails a feed file a `repro` run is writing (start one
//! with `--feed <path>`, e.g. `repro aging_regroup --feed /tmp/feed.jsonl`)
//! and redraws the dashboard as frames land. The sink appends one whole
//! line per frame and the parser skips a last line still missing its
//! `\n`, so a poll always reads a complete prefix of frames.
//!
//! `--replay` steps through a recorded feed of a finished run frame by
//! frame. Replaying a seeded
//! single-threaded run renders byte-identically across machines (with
//! `--headless`, which disables ANSI styling and screen clears).
//!
//! `--headless` prints each frame's dashboard as plain text separated by
//! `---` lines and finishes with a `rendered N frames` trailer; the ci.sh
//! smoke and the determinism tests drive this mode. `--frames N` stops
//! after N frames (both modes). `--interval-ms` sets the replay step
//! delay / follow poll period (default 200; ignored when headless
//! replaying).

use cffs::obs::feed;
use cffs::obs::json::Json;
use cffs::feedview::FeedView;

fn usage() -> ! {
    eprintln!(
        "usage: cffs-top (--follow|--replay) <feed.jsonl> \
         [--interval-ms N] [--headless] [--frames N] [--no-color]"
    );
    std::process::exit(2);
}

/// Value of `--<name> <v>` in `args`, if present.
fn arg(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let follow = arg(&args, "--follow");
    let replay = arg(&args, "--replay");
    let headless = args.iter().any(|a| a == "--headless");
    let color = !headless && !args.iter().any(|a| a == "--no-color");
    let max_frames: Option<u64> = arg(&args, "--frames").map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("cffs-top: --frames wants a number, got {v:?}");
            std::process::exit(2);
        })
    });
    let interval = std::time::Duration::from_millis(
        arg(&args, "--interval-ms").and_then(|v| v.parse().ok()).unwrap_or(200),
    );
    let (path, live) = match (follow, replay) {
        (Some(p), None) => (p, true),
        (None, Some(p)) => (p, false),
        _ => usage(),
    };

    let mut view = FeedView::new(color);
    let mut shown = 0u64;
    let show = |view: &FeedView| {
        if headless {
            emit(&format!("{}---\n", view.render()));
        } else {
            // Clear screen + home, then the dashboard.
            emit(&format!("\x1b[2J\x1b[H{}", view.render()));
        }
    };

    if !live {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cffs-top: cannot read {path}: {e}");
            std::process::exit(1);
        });
        let frames = parse_or_die(&text, &path);
        for frame in &frames {
            if max_frames.is_some_and(|m| shown >= m) {
                break;
            }
            view.push(frame);
            shown += 1;
            show(&view);
            if !headless {
                std::thread::sleep(interval);
            }
        }
    } else {
        // Tail the file: each poll parses a complete prefix of an
        // append-only file, so rendering resumes where the last poll ended.
        let mut seen = 0usize;
        loop {
            if max_frames.is_some_and(|m| shown >= m) {
                break;
            }
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("cffs-top: cannot read {path}: {e}");
                std::process::exit(1);
            });
            let frames = parse_or_die(&text, &path);
            let mut progressed = false;
            for frame in frames.iter().skip(seen) {
                if max_frames.is_some_and(|m| shown >= m) {
                    break;
                }
                view.push(frame);
                shown += 1;
                progressed = true;
                if headless {
                    show(&view);
                }
            }
            seen = view.frames_seen() as usize;
            if !headless && progressed {
                show(&view);
            }
            std::thread::sleep(interval);
        }
    }
    if headless {
        emit(&format!("rendered {shown} frames\n"));
    }
}

/// Write to stdout, exiting quietly when the reader is gone (a replay
/// piped into `head` must not panic on the broken pipe).
fn emit(s: &str) {
    use std::io::Write as _;
    let mut out = std::io::stdout();
    if out.write_all(s.as_bytes()).and_then(|()| out.flush()).is_err() {
        std::process::exit(0);
    }
}

fn parse_or_die(text: &str, path: &str) -> Vec<Json> {
    feed::parse_feed(text).map(|r| r.frames).unwrap_or_else(|e| {
        eprintln!("cffs-top: {path}: {e}");
        std::process::exit(1);
    })
}
