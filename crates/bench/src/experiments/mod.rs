//! One module per reproduced table/figure, and the registry that runs
//! them. Each module exposes a `report` function returning the text
//! report and the `BENCH_*.json` payload; [`REGISTRY`] names each
//! experiment, its flags with their defaults, and the entry that calls
//! `report` and writes the payload. The `repro <experiment> [flags]`
//! binary is [`launch`] plus the [`usage`] text on a bad command line.
//!
//! | module | experiment | paper artifact |
//! |---|---|---|
//! | [`table1`] | E1 | Table 1: 1996 drive characteristics |
//! | [`fig2`] | E2 | Figure 2: access time vs request size |
//! | [`table2`] | E3 | Table 2: testbed drive (Seagate ST31200) |
//! | [`smallfile`] | E4/E5 | small-file benchmark, sync + soft updates |
//! | [`filesize`] | E6 | throughput vs file size |
//! | [`aging`] | E7 | performance after aging vs utilization |
//! | [`diskreqs`] | E8 | disk-request and sync-write accounting |
//! | [`apps`] | E9 | software-development application suite |
//! | [`dirsize`] | E10 | directory growth and inode-capacity trade |
//! | [`ablation`] | E11 (extra) | design-choice sweeps: group size, read threshold, scheduler, cache size, access order, prefetch |
//! | [`postmark`] | E12 (extra) | PostMark-style server workload |
//! | [`aging_regroup`] | E13 (extra) | online regrouping after adversarial aging |
//! | [`concurrent`] | E14 (extra) | multi-threaded scaling on disjoint cylinder groups |
//! | [`namei`] | E15 (extra) | million-file deep-tree name resolution, namespace cache vs scan |
//! | [`volume`] | E16 (extra) | scale-out volume sets: multi-disk striping, sharded metadata, multi-client sessions |

use crate::report::emit_artifact;
use cffs_fslib::MetadataMode;
use cffs_obs::json::Json;
use cffs_workloads::appdev::DevTreeParams;
use cffs_workloads::concurrent::{ConcurrentParams, Window};
use cffs_workloads::namei::NameiParams;
use cffs_workloads::postmark::PostmarkParams;
use cffs_workloads::smallfile::{Assignment, SmallFileParams};
use std::collections::HashMap;

pub mod ablation;
pub mod aging;
pub mod aging_regroup;
pub mod apps;
pub mod concurrent;
pub mod dirsize;
pub mod diskreqs;
pub mod fig2;
pub mod filesize;
pub mod namei;
pub mod postmark;
pub mod smallfile;
pub mod table1;
pub mod table2;
pub mod volume;

/// What a flag's value must be; [`parse`] checks it before anything runs.
#[derive(Clone, Copy)]
enum Kind {
    /// A non-negative integer.
    Num,
    /// One of these words.
    Word(&'static [&'static str]),
    /// A path, shown in the usage as the placeholder given.
    Path(&'static str),
    /// Takes no value: on when given.
    Switch,
}

/// One flag: its name as typed, what its value must be, and its default
/// (`None`: unset unless given).
pub struct Flag(&'static str, Kind, Option<&'static str>);

const fn num(name: &'static str, default: &'static str) -> Flag {
    Flag(name, Kind::Num, Some(default))
}

const MODE: Flag = Flag("--mode", Kind::Word(&["sync", "softdep", "both"]), Some("both"));
const SEED: Flag = num("--seed", "1997");

/// Flags every experiment takes: `--feed PATH` streams a live JSONL
/// telemetry feed to PATH; `--flight DIR` arms the flight recorder, which
/// keeps its black boxes under DIR (see [`Args::wire_telemetry`]).
const TELEMETRY: &[Flag] =
    &[Flag("--feed", Kind::Path("PATH"), None), Flag("--flight", Kind::Path("DIR"), None)];

/// One experiment: its name on the command line (`repro <name>`), one
/// line on what it regenerates, its flags besides [`TELEMETRY`], and the
/// function that runs it (prints the report and writes its artifacts).
pub struct Experiment {
    /// The name on the command line.
    pub name: &'static str,
    about: &'static str,
    flags: &'static [Flag],
    run: fn(&Args),
}

/// Every experiment, in the order `repro all` runs the paper's. This is
/// the one place a flag's default is written down.
pub const REGISTRY: &[Experiment] = &[
    Experiment {
        name: "table1",
        about: "E1: Table 1 — characteristics of three 1996 disk drives",
        flags: &[],
        run: |_| show("TABLE1", table1::report()),
    },
    Experiment {
        name: "fig2",
        about: "E2: Figure 2 — average access time vs request size",
        flags: &[num("--samples", "500")],
        run: |a| show("FIG2", fig2::report(a.num("--samples"))),
    },
    Experiment {
        name: "table2",
        about: "E3: Table 2 — the testbed drive (Seagate ST31200)",
        flags: &[],
        run: |_| show("TABLE2", table2::report()),
    },
    Experiment {
        name: "smallfile",
        about: "E4/E5: the small-file micro-benchmark (paper Section 4.2)",
        flags: &[
            MODE,
            num("--files", "10000"),
            num("--size", "1024"),
            num("--dirs", "100"),
            Flag("--order", Kind::Word(&["roundrobin", "dirmajor"]), Some("roundrobin")),
            SEED,
        ],
        run: run_smallfile,
    },
    Experiment {
        name: "filesize",
        about: "E6: throughput vs file size — where the grouping advantage decays",
        flags: &[],
        run: |_| show("FILESIZE", filesize::report()),
    },
    Experiment {
        name: "aging",
        about: "E7: file-system aging ([Herrin93] program) — performance vs utilization",
        flags: &[num("--ops", "20000")],
        run: |a| show("AGING", aging::report(a.num("--ops"))),
    },
    Experiment {
        name: "diskreqs",
        about: "E8: disk-request accounting, the paper's claims read out of the counters",
        flags: &[num("--files", "10000")],
        run: |a| {
            let params = SmallFileParams { nfiles: a.num("--files"), ..SmallFileParams::default() };
            show("DISKREQS", diskreqs::report(params))
        },
    },
    Experiment {
        name: "apps",
        about: "E9: the software-development application suite (paper: \"10-300%\")",
        flags: &[MODE, num("--seed", "3")],
        run: |a| {
            let params = DevTreeParams { seed: a.num("--seed"), ..DevTreeParams::default() };
            for (mode, m) in a.modes() {
                show(&format!("APPS_{m}"), apps::report(mode, params));
            }
        },
    },
    Experiment {
        name: "dirsize",
        about: "E10: directory growth vs static inode preallocation",
        flags: &[],
        run: |_| show("DIRSIZE", dirsize::report()),
    },
    Experiment {
        name: "ablation",
        about: "E11: one-knob sweeps of the C-FFS design choices",
        flags: &[],
        run: |_| show("ABLATION", ablation::report()),
    },
    Experiment {
        name: "postmark",
        about: "E12: PostMark-style server workload on all five file systems",
        flags: &[MODE, num("--transactions", "10000"), SEED],
        run: |a| {
            let params = PostmarkParams {
                transactions: a.num("--transactions"),
                seed: a.num("--seed"),
                ..PostmarkParams::default()
            };
            for (mode, m) in a.modes() {
                show(&format!("POSTMARK_{m}"), postmark::report(mode, params));
            }
        },
    },
    Experiment {
        name: "aging_regroup",
        about: "E13: online regrouping after adversarial aging (recovery >= 0.90 of fresh)",
        flags: &[SEED],
        run: |a| show("AGING_REGROUP", aging_regroup::report(a.num("--seed"))),
    },
    Experiment {
        name: "concurrent",
        about: "E14: scaling on disjoint cylinder groups at 1, 2 and 4 threads (>= 2.5x)",
        flags: &[SEED, num("--dirs", "4"), num("--files", "24"), num("--rounds", "20")],
        run: |a| {
            let p = ConcurrentParams {
                files_per_dir: a.num("--files"),
                window: Window::Warm { rounds: a.num("--rounds") },
                seed: a.num("--seed"),
                ..ConcurrentParams::default()
            };
            show("CONCURRENT", concurrent::report(a.num("--dirs"), p))
        },
    },
    Experiment {
        name: "namei",
        about: "E15: million-file namei with and without the namespace cache",
        flags: &[
            SEED,
            num("--branches", "64"),
            num("--dirs", "64"),
            num("--files", "256"),
            num("--sample", "4096"),
            num("--rounds", "3"),
        ],
        run: |a| {
            let p = NameiParams {
                branches: a.num("--branches"),
                dirs_per_branch: a.num("--dirs"),
                files_per_dir: a.num("--files"),
                file_size: 0,
                sample: a.num("--sample"),
                rounds: a.num("--rounds"),
                seed: a.num("--seed"),
            };
            show("NAMEI", namei::report(p))
        },
    },
    Experiment {
        name: "volume",
        about: "E16: scale-out volume sets of 1, 2, 4 and 8 disks (4 volumes >= 3.0x)",
        flags: &[
            SEED,
            num("--sessions", "2000"),
            num("--dirs", "64"),
            num("--files", "16"),
            num("--ops", "8"),
            num("--threads", "4"),
        ],
        run: |a| {
            let p = ConcurrentParams {
                nthreads: a.num("--threads"),
                ndirs: a.num("--dirs"),
                files_per_dir: a.num("--files"),
                file_size: 4096,
                window: Window::Zipf { sessions: a.num("--sessions"), ops: a.num("--ops") },
                seed: a.num("--seed"),
            };
            show("VOLUME", volume::report(p))
        },
    },
    Experiment {
        name: "soak",
        about: "open-ended churn to watch live with cffs-top --follow (no BENCH payload); \
                --feed streams frames on the simulated clock",
        flags: &[num("--rounds", "8"), num("--dirs", "6"), num("--files", "24"), SEED],
        run: run_soak,
    },
    Experiment {
        name: "all",
        about: "E1-E12 in one combined report (the source of EXPERIMENTS.md); \
                --quick scales the workloads down",
        flags: &[Flag("--quick", Kind::Switch, None)],
        run: run_all,
    },
];

/// A parsed command line: each flag that is given or has a default,
/// with its value.
pub struct Args(HashMap<&'static str, String>);

impl Args {
    fn get(&self, flag: &str) -> Option<&str> {
        self.0.get(flag).map(String::as_str)
    }

    /// A numeric flag's value; [`parse`] has checked that it is one.
    fn num<T: std::str::FromStr>(&self, flag: &str) -> T {
        let v = self.get(flag).and_then(|v| v.parse().ok());
        v.unwrap_or_else(|| panic!("{flag} is not a numeric flag of this experiment"))
    }

    /// The metadata modes `--mode` selects, each with its BENCH suffix.
    fn modes(&self) -> Vec<(MetadataMode, &'static str)> {
        let mode = self.get("--mode");
        [(MetadataMode::Synchronous, "sync", "SYNC"), (MetadataMode::Delayed, "softdep", "SOFTDEP")]
            .into_iter()
            .filter(|&(_, word, _)| mode == Some("both") || mode == Some(word))
            .map(|(m, _, suffix)| (m, suffix))
            .collect()
    }

    /// Arm the process-global telemetry sinks: `--feed` streams the feed
    /// (watch it with `cffs-top --follow PATH`); with `--flight`, every
    /// stack mounted afterwards appends a cumulative frame per cut to a
    /// bounded black box under DIR, `FLIGHT_<label>.jsonl`, and a head
    /// (final counters, SLO table, last op spans) on panic, fsck
    /// failure, bench-writer death and unmount (`cffs-inspect
    /// postmortem` reads the dumps).
    pub fn wire_telemetry(&self) {
        if let Some(path) = self.get("--feed") {
            cffs_obs::feed::set_global(path).expect("create telemetry feed");
        }
        if let Some(dir) = self.get("--flight") {
            cffs_obs::flight::set_global(dir).expect("create flight directory");
        }
    }
}

/// Parse `argv` against `flags` plus [`TELEMETRY`]. An unknown flag, a
/// missing or malformed value, or a word outside its flag's set is an
/// error.
pub fn parse(flags: &'static [Flag], argv: &[String]) -> Result<Args, String> {
    let known = || flags.iter().chain(TELEMETRY);
    let mut vals: HashMap<_, _> = known().filter_map(|f| Some((f.0, f.2?.to_string()))).collect();
    let mut argv = argv.iter();
    while let Some(arg) = argv.next() {
        let flag = known().find(|f| f.0 == arg).ok_or(format!("unknown flag {arg:?}"))?;
        let val = match flag.1 {
            Kind::Switch => String::new(),
            kind => {
                let v = argv.next().ok_or(format!("{arg} needs a value"))?;
                let ok = match kind {
                    Kind::Num => v.parse::<u64>().is_ok(),
                    Kind::Word(words) => words.contains(&v.as_str()),
                    _ => true,
                };
                if !ok {
                    return Err(format!("bad value {v:?} for {arg}"));
                }
                v.clone()
            }
        };
        vals.insert(flag.0, val);
    }
    Ok(Args(vals))
}

/// Run a `repro` command line (the arguments after the program name):
/// look the experiment up, parse its flags, arm telemetry, run it. A bad
/// command line is returned as an error before anything is built or
/// written.
pub fn launch(argv: &[String]) -> Result<(), String> {
    let (name, rest) = argv.split_first().ok_or("no experiment given")?;
    let exp = REGISTRY.iter().find(|e| e.name == name);
    let exp = exp.ok_or(format!("unknown experiment {name:?}"))?;
    let args = parse(exp.flags, rest)?;
    args.wire_telemetry();
    (exp.run)(&args);
    Ok(())
}

/// The usage text, generated from [`REGISTRY`].
pub fn usage() -> String {
    let flag = |f: &Flag| {
        let val = match f.1 {
            Kind::Num => " N".to_string(),
            Kind::Word(words) => format!(" {}", words.join("|")),
            Kind::Path(placeholder) => format!(" {placeholder}"),
            Kind::Switch => String::new(),
        };
        let default = f.2.map(|d| format!(" (default {d})")).unwrap_or_default();
        format!("{}{val}{default}", f.0)
    };
    let mut out = String::from("usage: repro <experiment> [flags]\n");
    let global: Vec<String> = TELEMETRY.iter().map(flag).collect();
    out.push_str(&format!("every experiment also takes {}\n", global.join(", ")));
    for e in REGISTRY {
        out.push_str(&format!("\n  {:<15}{}\n", e.name, e.about));
        for f in e.flags {
            out.push_str(&format!("{:17}{}\n", "", flag(f)));
        }
    }
    out
}

/// Print a report and write its payload to `BENCH_<name>.json`.
fn show(name: &str, (text, json): (String, Json)) {
    print!("{text}");
    emit_artifact(&format!("BENCH_{name}.json"), &(json.to_string_pretty() + "\n"));
}

/// The default value of one of another experiment's flags.
fn default_of(experiment: &str, flag: &str) -> usize {
    let exp = REGISTRY.iter().find(|e| e.name == experiment).expect("registered experiment");
    parse(exp.flags, &[]).expect("defaults parse").num(flag)
}

fn run_smallfile(a: &Args) {
    let params = SmallFileParams {
        nfiles: a.num("--files"),
        file_size: a.num("--size"),
        ndirs: a.num("--dirs"),
        order: match a.get("--order") {
            Some("dirmajor") => Assignment::DirMajor,
            _ => Assignment::RoundRobin,
        },
        seed: a.num("--seed"),
    };
    for (mode, m) in a.modes() {
        let bench = format!("SMALLFILE_{m}");
        let (text, json, fold) = smallfile::report(mode, params);
        show(&bench, (text, json));
        // Collapsed-stack fold of the C-FFS run (phase;op;queue|service),
        // renderable by any flamegraph tool.
        emit_artifact(&format!("FOLD_{bench}.txt"), &fold.collapse());
    }
}

/// Runs the [`cffs_workloads::soak`] workload on a fresh C-FFS image.
/// With `--feed`, telemetry streams at the deterministic simulated
/// cadence, to pair with `cffs-top --follow PATH` in a second terminal.
/// It produces activity to watch, not a number to gate on, so it writes
/// no BENCH payload.
fn run_soak(a: &Args) {
    let p = cffs_workloads::soak::SoakParams {
        rounds: a.num("--rounds"),
        ndirs: a.num("--dirs"),
        files_per_dir: a.num("--files"),
        seed: a.num("--seed"),
        ..Default::default()
    };
    let fs = cffs::build::on_disk(
        cffs_disksim::models::tiny_test_disk(),
        cffs_core::CffsConfig::cffs().with_mode(MetadataMode::Delayed),
    );
    let _feed = cffs_obs::feed::tap_global_sim(&fs.obs(), "soak");
    let r = cffs_workloads::soak::run(&fs, &p, |i| {
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

/// Every paper reproduction (E1–E12) in one report. `--quick` scales the
/// workloads down (1/10 of the files, fewer aging ops) for a fast smoke
/// run; without it, each runs at its own default scale. Writes no FOLD
/// artifact.
fn run_all(a: &Args) {
    let quick = a.get("--quick").is_some();
    let sf = if quick {
        SmallFileParams { nfiles: 1000, ndirs: 50, ..SmallFileParams::default() }
    } else {
        SmallFileParams::default()
    };
    let (aging_ops, fig2_samples) = if quick {
        (5_000, 100)
    } else {
        (default_of("aging", "--ops"), default_of("fig2", "--samples"))
    };
    let pm = if quick {
        PostmarkParams { nfiles: 500, transactions: 1000, ..PostmarkParams::default() }
    } else {
        PostmarkParams::default()
    };
    let smallfile = |mode| {
        let (text, json, _) = smallfile::report(mode, sf);
        (text, json)
    };

    println!("C-FFS reproduction — full experiment suite");
    println!("==========================================");
    println!("\n==== E1: Table 1 — 1996 drive characteristics ====\n");
    show("TABLE1", table1::report());
    println!("\n==== E2: Figure 2 — access time vs request size ====\n");
    show("FIG2", fig2::report(fig2_samples));
    println!("\n==== E3: Table 2 — testbed drive ====\n");
    show("TABLE2", table2::report());
    show("SMALLFILE_SYNC", smallfile(MetadataMode::Synchronous)); // E4
    show("SMALLFILE_SOFTDEP", smallfile(MetadataMode::Delayed)); // E5
    show("FILESIZE", filesize::report()); // E6
    show("AGING", aging::report(aging_ops)); // E7
    show("DISKREQS", diskreqs::report(sf)); // E8
    show("APPS_SYNC", apps::report(MetadataMode::Synchronous, DevTreeParams::default())); // E9
    show("APPS_SOFTDEP", apps::report(MetadataMode::Delayed, DevTreeParams::default())); // E9
    show("DIRSIZE", dirsize::report()); // E10
    show("ABLATION", ablation::report()); // E11 (extra)
    show("POSTMARK_SYNC", postmark::report(MetadataMode::Synchronous, pm)); // E12 (extra)
    show("POSTMARK_SOFTDEP", postmark::report(MetadataMode::Delayed, pm)); // E12 (extra)
}
