//! Report formatting shared by all experiments, and the one writer of
//! their artifacts (`BENCH_*.json`, `FOLD_*.txt`).

use cffs_obs::json::{Json, ToJson};
use cffs_workloads::PhaseResult;

/// Format a phase-result table: one row per (fs, phase), with simulated
/// time, rate, and physical disk requests.
pub fn phase_table(rows: &[PhaseResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<18} {:>10} {:>12} {:>12} {:>10} {:>12}\n",
        "file system", "phase", "elapsed", "files/s", "MB/s", "disk reqs"
    ));
    out.push_str(&"-".repeat(80));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:>10} {:>12} {:>12.1} {:>10.2} {:>12}\n",
            r.fs,
            r.phase,
            format!("{}", r.elapsed),
            r.items_per_sec(),
            r.mb_per_sec(),
            r.disk_requests(),
        ));
    }
    out
}

/// The row of file system `fs`'s `phase`.
pub fn row<'a>(rows: &'a [PhaseResult], fs: &str, phase: &str) -> &'a PhaseResult {
    rows.iter().find(|r| r.fs == fs && r.phase == phase).expect("row present")
}

/// Speedup of `new` over `base` by elapsed time, as a factor.
pub fn speedup(base: &PhaseResult, new: &PhaseResult) -> f64 {
    base.elapsed.as_secs_f64() / new.elapsed.as_secs_f64()
}

/// A section header line.
pub fn header(title: &str) -> String {
    format!("\n==== {title} ====\n\n")
}

/// JSON array of phase rows (each with its full counter snapshot delta).
pub fn rows_json(rows: &[PhaseResult]) -> Json {
    Json::Arr(rows.iter().map(|r| r.to_json()).collect())
}

/// Write a named artifact into `BENCH_OUT_DIR` atomically
/// ([`cffs_obs::write_atomic`]), so a crash mid-write can never leave a
/// half-written file that poisons `bench_gate` baselines or fold
/// consumers, and two concurrent writers of one artifact never tear it.
pub fn write_artifact(name: &str, content: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| ".".to_string());
    std::fs::create_dir_all(&dir)?;
    let path = std::path::Path::new(&dir).join(name);
    cffs_obs::write_atomic(&path, content.as_bytes())?;
    Ok(path)
}

/// Write an artifact and report its path on stdout. Failing to persist
/// it is a hard error: CI gates consume these files, so degrading to a
/// notice would let a mis-set `BENCH_OUT_DIR` silently skip the perf
/// gate. The text report has already been printed by the time this runs,
/// so nothing is lost — the run just refuses to claim success.
pub fn emit_artifact(name: &str, content: &str) {
    match write_artifact(name, content) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!(
                "error: cannot write {name}: {e}\n\
                 (point BENCH_OUT_DIR at a writable directory)"
            );
            // Salvage the run's telemetry before dying: each flight
            // recorder (if `--flight` armed any) appends the final frame
            // and head this exit would otherwise lose. No-op when none.
            cffs_obs::flight::dump_all("bench_write_failure");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cffs_disksim::SimDuration;
    use cffs_fslib::IoStats;

    fn row(fs: &str, phase: &str, secs: f64) -> PhaseResult {
        PhaseResult {
            fs: fs.into(),
            phase: phase.into(),
            start_ns: 0,
            elapsed: SimDuration::from_secs_f64(secs),
            items: 100,
            bytes: 102_400,
            io: IoStats::default(),
            counters: None,
            host_ns: 0,
        }
    }

    #[test]
    fn speedup_is_ratio_of_times() {
        let base = row("conventional", "read", 10.0);
        let new = row("C-FFS", "read", 2.0);
        assert!((speedup(&base, &new) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn table_has_header_and_rows() {
        let t = phase_table(&[row("a", "create", 1.0), row("b", "create", 2.0)]);
        assert!(t.contains("file system"));
        assert_eq!(t.lines().count(), 4);
    }

    /// Tests below mutate the process-wide `BENCH_OUT_DIR`; serialize them.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn write_artifact_creates_missing_output_dir() {
        let _guard = ENV_LOCK.lock().unwrap();
        // A nested, not-yet-existing BENCH_OUT_DIR must be created rather
        // than failing the write.
        let dir = std::env::temp_dir()
            .join(format!("cffs-bench-test-{}", std::process::id()))
            .join("nested");
        std::env::set_var("BENCH_OUT_DIR", &dir);
        let path = write_artifact("BENCH_REPORT_TEST.json", "1\n").expect("write succeeds");
        std::env::remove_var("BENCH_OUT_DIR");
        assert!(path.starts_with(&dir));
        let body = std::fs::read_to_string(&path).expect("file exists");
        assert_eq!(body.trim(), "1");
        std::fs::remove_dir_all(dir.parent().unwrap()).ok();
    }

    #[test]
    fn write_artifact_is_atomic_no_tmp_left_behind() {
        let _guard = ENV_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join(format!("cffs-bench-atomic-{}", std::process::id()));
        std::env::set_var("BENCH_OUT_DIR", &dir);
        let path = write_artifact("BENCH_ATOMIC_TEST.json", "7\n").expect("write succeeds");
        let fold = write_artifact("FOLD_TEST.txt", "run;idle 10\n").expect("write succeeds");
        std::env::remove_var("BENCH_OUT_DIR");
        assert_eq!(std::fs::read_to_string(&path).unwrap().trim(), "7");
        assert_eq!(std::fs::read_to_string(&fold).unwrap(), "run;idle 10\n");
        // The temp staging files were renamed away, not left to be
        // mistaken for real artifacts.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_writers_of_same_artifact_never_tear() {
        let _guard = ENV_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join(format!("cffs-bench-race-{}", std::process::id()));
        std::env::set_var("BENCH_OUT_DIR", &dir);
        // Two payloads, same artifact name, distinguishable and large
        // enough that a stolen half-written staging file would show as a
        // mixed or truncated body.
        let a = "A".repeat(64 * 1024) + "\n";
        let b = "B".repeat(64 * 1024) + "\n";
        std::thread::scope(|s| {
            let ha = s.spawn(|| {
                for _ in 0..50 {
                    write_artifact("RACE_TEST.json", &a).expect("writer A");
                }
            });
            let hb = s.spawn(|| {
                for _ in 0..50 {
                    write_artifact("RACE_TEST.json", &b).expect("writer B");
                }
            });
            ha.join().unwrap();
            hb.join().unwrap();
        });
        std::env::remove_var("BENCH_OUT_DIR");
        // Last-writer-wins is fine; a torn mix of both writers is not.
        let body = std::fs::read_to_string(dir.join("RACE_TEST.json")).unwrap();
        assert!(
            body == a || body == b,
            "artifact must be exactly one writer's content (got {} bytes, first byte {:?})",
            body.len(),
            body.as_bytes().first(),
        );
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "staging files renamed away: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_artifact_surfaces_unwritable_output_dir() {
        let _guard = ENV_LOCK.lock().unwrap();
        // BENCH_OUT_DIR nested under a regular file cannot be created;
        // the error must surface (emit_artifact turns it into exit(1)).
        let file = std::env::temp_dir().join(format!("cffs-bench-block-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let dir = file.join("nested");
        std::env::set_var("BENCH_OUT_DIR", &dir);
        let res = write_artifact("BENCH_REPORT_TEST.json", "1\n");
        std::env::remove_var("BENCH_OUT_DIR");
        assert!(res.is_err(), "writing under a regular file must fail");
        std::fs::remove_file(&file).ok();
    }
}
