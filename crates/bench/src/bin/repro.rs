//! `repro <experiment> [flags]`: regenerate one paper table or figure
//! (`repro all`: the whole suite). The experiments, their flags and their
//! defaults are `cffs_bench::experiments::REGISTRY`. Each prints its text
//! report and writes `BENCH_<NAME>.json` into `BENCH_OUT_DIR` (default:
//! the current directory). A bad command line prints the usage to stderr
//! and exits 2 before anything runs.

use cffs_bench::experiments::{launch, usage};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = launch(&argv) {
        eprintln!("repro: {e}\n\n{}", usage());
        std::process::exit(2);
    }
}
