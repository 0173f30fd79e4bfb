#!/bin/sh
# Offline CI gate: build, test, lint. No network access is assumed or
# required — the workspace has no external dependencies (rand/proptest are
# vendored path crates), so --offline must always succeed.
set -eu

cd "$(dirname "$0")"

echo "== one surface (one file system, one FS trait, one helper set, shared borrows, one block map, one file engine, one fsck report, one disk lock, one sampler, reads share the platter's blocks, no path keys, one run per miss, one cache budget, one cache lock, one file-system lock, one set of I/O books, one positioning model, one repro launcher, one multi-client driver, no one-value settings, no hashing on the per-call path) =="
# The former second trait survives only as the alias line benchmark/
# still imports; the `_c` helper twins and the second model are gone; and
# nothing takes a file system by `&mut` through the trait (the handle-
# invalidating regroup entry points take `&mut Cffs` / `&mut F`).
SRC="crates src tests examples"
# Classic FFS is a configuration of the one file system (its inodes in
# per-CG tables), not a second implementation.
if [ -e crates/ffs ] || grep -rnE 'cffs_ffs|FfsOptions|ffs_on_disk|all_five|four_variants' $SRC; then
    echo "a second file system (crates/ffs or its API) is back"; exit 1
fi
if grep -rn 'ConcurrentFs' $SRC | grep -v '^crates/fslib/src/lib.rs:.*pub use vfs::FileSystem as ConcurrentFs;$'; then
    echo "ConcurrentFs named outside its one alias line"; exit 1
fi
if grep -rnE 'SharedModelFs|fn [a-z_]+_c\(' crates/fslib; then
    echo "a second model or a _c helper twin is back in crates/fslib"; exit 1
fi
if grep -rnE '&mut \(impl FileSystem|&mut dyn FileSystem|&mut impl FileSystem' $SRC; then
    echo "a FileSystem is taken by &mut: every trait method is &self"; exit 1
fi
# The inode's pointer tree has one owner, cffs_fslib::bmap: the file
# system and its checker map, free and walk blocks through it.
if grep -rnE 'NDIRECT|PTRS_PER_BLOCK|\.d?indirect\b' crates/core/src; then
    echo "pointer-tree format spelled out outside cffs_fslib::bmap"; exit 1
fi
# The byte-range data path and the directory-block walk have one owner,
# cffs_fslib::file: the file system does not spell out the per-block
# loop, the read-before-partial-overwrite rule or the directory-hole check.
if grep -rnE 'hole in directory|read_first|in_blk' crates/core/src; then
    echo "data path spelled out outside cffs_fslib::file"; exit 1
fi
# The checker fills the one report, cffs_fslib::fsck's.
if [ "$(grep -rn 'pub struct FsckReport' crates | wc -l)" -gt 1 ]; then
    echo "FsckReport defined more than once under crates/"; exit 1
fi
# Callers service their own disk requests under the disk lock: no driver
# thread, queue or reply channel, and no span hand-off between threads.
if grep -rnE 'mpsc|Condvar|thread::Builder|JoinHandle' crates/disksim/src; then
    echo "a driver thread or queue is back in crates/disksim"; exit 1
fi
if grep -rnE 'adopt_span|end_adopt|fold_attr|SpanCtx|AttrDelta' $SRC; then
    echo "the span hand-off between threads is back"; exit 1
fi
# The feed and the flight recorder are one sampler: one frame table and
# validator, one pacer atomic, one slow path off the clock. The recorder
# is a feed tap on a bounded sink: no tap, ring or parser of its own.
if grep -rnE 'feed_due_ns|flight_due_ns|FLIGHT_FRAME_FIELDS|validate_flight_frame' crates/obs; then
    echo "a second sampling pacer, frame table or frame validator is back in crates/obs"; exit 1
fi
if grep -rnE 'struct Flight\b|FlightState|fn parse_flight|FLIGHT_EVENTS|fn harvest' crates/obs; then
    echo "a second telemetry tap, ring or parser (the old flight recorder) is back in crates/obs"; exit 1
fi
if [ "$(grep -rn 'fn sim_fire' crates/obs | wc -l)" -gt 1 ]; then
    echo "sim_fire defined more than once under crates/obs"; exit 1
fi
# Reads share the platter's blocks: the sector store's chunks are the
# cache's `Block`s, so a miss or group read installs a handle on the
# platter's chunk, and write-backs hand the driver the cache's handles. No
# block copy in the cache, no staging buffer in the driver, no free-list
# buffer taken by a group read, no boxed byte chunk in the store
# (non-test lines: before the file's first #[cfg(test)]).
nontest() { awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ":" $0 }' "$1"; }
if nontest crates/cache/src/bufcache.rs | grep -E 'copy_of|\.to_vec\(\)'; then
    echo "a staging copy is back in the buffer cache"; exit 1
fi
if nontest crates/disksim/src/driver.rs | grep -E 'vec!\[0u8; total\]|Vec::with_capacity\(total\)'; then
    echo "a staging buffer is back in the driver"; exit 1
fi
GROUP=$(nontest crates/cache/src/bufcache.rs | awk '/pub fn read_group\(/ { f = 1 } f { print } f && /:    }$/ { exit }')
if [ -z "$GROUP" ] || printf '%s\n' "$GROUP" | grep -E 'spare|take_spare'; then
    echo "read_group is missing or fills free-list buffers instead of taking the platter's blocks"; exit 1
fi
if nontest crates/disksim/src/store.rs | grep -E 'Box<\[u8; *CHUNK_SIZE\]>'; then
    echo "the sector store keeps boxed byte chunks instead of the cache's Block"; exit 1
fi
# Name resolution builds no string: the volume skeleton is keyed by
# (parent index, name), not by path. Retiring a dead inode does not scan
# the cache's logical index: freeing its blocks already unbound them.
if grep -rnE 'by_path|fn join\(' crates/volume/src; then
    echo "a path-string key is back in crates/volume"; exit 1
fi
RETIRE=$(awk '/fn retire_ino\(/ { f = 1 } f { print } f && /^    }$/ { exit }' crates/core/src/fs/namespace.rs)
if [ -z "$RETIRE" ] || printf '%s\n' "$RETIRE" | grep -n 'purge_ino' | grep -v 'dc\.purge_ino'; then
    echo "retire_ino is missing or calls BufferCache::purge_ino again"; exit 1
fi
# A grouped miss fetches the live run around its block, planned on the
# stack: the whole-group plan is gone.
if grep -rn 'live_runs(' crates/core/src; then
    echo "the whole-group read plan (live_runs) is back in crates/core"; exit 1
fi
# The buffer cache's shards partition its eviction, not its capacity:
# one cache-wide budget, no per-shard share of `nbufs` carved out again.
for f in crates/cache/src/*.rs; do
    if nontest "$f" | grep -E 'nbufs / n\b|per_shard'; then
        echo "a per-shard capacity division is back in crates/cache"; exit 1
    fi
done
# The buffer cache is one mutex over one plain state struct, held for a
# whole call: no second lock, no published atomics, no shard-lock
# hand-off and no lock-per-frame recursive flush.
if [ "$(nontest crates/cache/src/bufcache.rs | grep -c 'Mutex<')" -ne 1 ] \
    || nontest crates/cache/src/bufcache.rs | grep -E 'atomic::|Atomic(U|I|Bool|Ptr)|\bHeld\b|shard_held|flush_from'; then
    echo "the buffer cache has a second lock, atomics, a shard-lock hand-off or a recursive flush"; exit 1
fi
# The file system is one mutex over one plain state struct (cache,
# inode slots, CG headers, group index, namespace hints), taken once per
# entry point: no op stripes, no per-structure locks, no atomics.
CORE_NONTEST=$(for f in $(find crates/core/src -name '*.rs' | sort); do nontest "$f"; done)
if [ "$(printf '%s\n' "$CORE_NONTEST" | grep -c 'Mutex<')" -ne 1 ] \
    || printf '%s\n' "$CORE_NONTEST" | grep -E 'AtomicU32|\b(op_stripes|OP_STRIPES|op_lock[0-9]*|lock_meta|lock_cg|lock_groups|lock_ns)\b'; then
    echo "the file system has a second lock, an op stripe, a per-structure lock or an atomic"; exit 1
fi
# I/O is counted once, in the Obs registry: IoStats is a view of its
# counters, so no layer keeps a stat struct of its own, or resets one.
if grep -rnE 'fn (reset_io_stats|reset_stats|disk_stats)\b|[a-z_]+: *(Mutex<)?(Cache|Driver|Disk)Stats\b' \
    crates/disksim/src crates/cache/src crates/core/src crates/volume/src; then
    echo "a second set of I/O books (a stat struct field or a reset) is back"; exit 1
fi
# Seek, rotation and transfer are computed once, by DiskModel::position:
# the drive services media requests through it, the scheduler predicts
# with it and the file system places synchronous entries with its
# earliest_sector, so neither the driver nor the file system spells out a
# seek curve, a platter angle or a sector's cylinder.
if grep -nE 'sector_angle\(|seek_time\(' crates/disksim/src/driver.rs \
    || grep -rnE 'sector_angle\(|seek_time\(|lba_to_chs\(' crates/core/src; then
    echo "the driver or the file system computes positioning itself instead of DiskModel"; exit 1
fi
# Every experiment runs through the one registry-driven `repro` binary:
# no per-experiment launcher, and no doc or script names one.
if ls crates/bench/src/bin/repro_*.rs 2>/dev/null \
    || grep -rn 'repro_[a-z]' ci.sh README.md DESIGN.md EXPERIMENTS.md crates src tests; then
    echo "a per-experiment repro launcher (or a mention of one) is back"; exit 1
fi
# E14 and E16 run on one multi-client driver, workloads::concurrent, and
# its one clock-ordered schedule: no second (free-running) driver. Its
# clients are contexts on the calling thread, not threads handed turns.
if [ -e crates/workloads/src/multiclient.rs ] || grep -rnE 'multiclient::|MulticlientParams' $SRC; then
    echo "a second multi-client driver (workloads::multiclient) is back"; exit 1
fi
if grep -rnE 'Condvar|thread::scope|thread::spawn|fn fan_out|struct Seat' crates/workloads/src; then
    echo "a thread or a turn hand-off is back in crates/workloads"; exit 1
fi
# A setting that only ever takes one value is a constant: the SLO
# objectives are one table, signals have floors only, feeds run on the
# simulated clock, and the autotrigger's policy is fixed.
if grep -rnE 'fn (set_slo|arm_default_slos|set_signal_ceiling)\b|Cadence::Host|AutotriggerConfig|"--host-ms"' $SRC; then
    echo "a one-value setting (SLO registry, signal ceiling, host feed cadence or AutotriggerConfig) is back"; exit 1
fi
# The warm path pays no hashing for its bookkeeping: per-context obs
# state is a short table searched by uid, the namespace hints and the
# sector store's chunk map (hashed on every disk request) are keyed by
# the integer hasher, and a clock move is one visit to the context's
# clock (Obs::advance_clock_ns), not a read and a separate write.
if grep -rnE 'HashMap<u64, ThreadTls>|RefCell<std::collections::HashMap' crates/obs/src \
    || grep -rnE '(parent_of|last_read): HashMap<' crates/core/src \
    || grep -nE '\bHashMap\b' crates/disksim/src/store.rs; then
    echo "a SipHash map is back on the per-call path (obs context table, NsState or the sector store)"; exit 1
fi
ADVANCE=$(awk '/pub fn advance\(/ { f = 1 } f { print } f && /^    }$/ { exit }' crates/disksim/src/driver.rs)
if [ -z "$ADVANCE" ] || printf '%s\n' "$ADVANCE" | grep -n 'set_clock_ns('; then
    echo "Driver::advance is missing or moves the clock with a separate read and set_clock_ns"; exit 1
fi
# Non-test lines per crate (printed, not gated): what every deletion PR
# quotes. Lines of each source file before its first #[cfg(test)].
find crates/*/src crates/*/benches src -name '*.rs' 2>/dev/null | sort | xargs awk '
    FNR == 1 { t = 0 }
    /#\[cfg\(test\)\]/ { t = 1 }
    !t { split(FILENAME, p, "/"); n[p[1] == "crates" ? p[2] : "(root)"]++; total++ }
    END { for (k in n) printf "%s %d\n", k, n[k]; printf "total %d\n", total }' | sort | tr '\n' ' '
echo

echo "== build (release, all targets) =="
cargo build --release --workspace --all-targets --offline

echo "== test =="
cargo test --workspace --offline -q

echo "== test (release, 8 test threads: concurrency suite under real parallelism) =="
cargo test --release --workspace --offline -q -- --test-threads=8

echo "== clippy (-D warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== benchmark package (offline build + its own tests) =="
# benchmark/ is a package of its own and calls this workspace's public
# functions (benchmark/README.md lists them): a signature drift fails
# here, not in the bench pipeline. Same target directory as run.sh.
cargo build --release --offline --manifest-path benchmark/Cargo.toml --target-dir target/benchmark
cargo test --offline -q --manifest-path benchmark/Cargo.toml --target-dir target/benchmark

echo "== bench smoke (repro smallfile, aging_regroup, concurrent, namei, volume; reduced scale) =="
BENCH_TMP=$(mktemp -d)
BENCH_OUT_DIR="$BENCH_TMP/out" cargo run --release --offline -p cffs-bench \
    --bin repro -- smallfile --files 60 --dirs 3 --mode sync --seed 1997 \
    --flight "$BENCH_TMP/flight" > /dev/null
BENCH_OUT_DIR="$BENCH_TMP/out" cargo run --release --offline -p cffs-bench \
    --bin repro -- aging_regroup --feed "$BENCH_TMP/feed.jsonl" > /dev/null
# Reduced scale must match the checked-in BENCH_CONCURRENT baseline
# invocation exactly (the scaling ratio is scale-sensitive).
BENCH_OUT_DIR="$BENCH_TMP/out" cargo run --release --offline -p cffs-bench \
    --bin repro -- concurrent --dirs 2 --files 12 --rounds 8 > /dev/null
# Reduced scale must match the checked-in BENCH_NAMEI baseline invocation
# exactly. Keep --files at 256: the p99 speedup the gate enforces needs
# multi-block leaf directories to measure anything.
BENCH_OUT_DIR="$BENCH_TMP/out" cargo run --release --offline -p cffs-bench \
    --bin repro -- namei --branches 4 --dirs 4 --files 256 --sample 1024 --rounds 3 \
    > /dev/null
# Reduced scale must match the checked-in BENCH_VOLUME baseline invocation
# exactly (the volume scaling ratio is scale-sensitive). The four clients
# are contexts on one thread, taking their steps in clock order, so the
# ratio and every row's elapsed_ns repeat exactly run to run. Records a
# live per-volume feed for the schema smoke below.
BENCH_OUT_DIR="$BENCH_TMP/out" cargo run --release --offline -p cffs-bench \
    --bin repro -- volume --seed 1997 --sessions 480 --dirs 64 --files 16 \
    --ops 6 --threads 4 --feed "$BENCH_TMP/feed_volume.jsonl" > /dev/null
cargo run --release --offline -p cffs-bench --bin bench_schema_check -- \
    "$BENCH_TMP"/out/BENCH_*.json

echo "== telemetry feed smoke (frame schema + cffs-top headless replay) =="
# The aging_regroup smoke above recorded a live feed; every frame must
# validate, and the dashboard must replay it headless.
cargo run --release --offline -p cffs-bench --bin bench_schema_check -- \
    --feed "$BENCH_TMP/feed.jsonl"
# The repro volume smoke recorded a feed with per-volume rows; every
# frame (including its volumes array) must validate too.
cargo run --release --offline -p cffs-bench --bin bench_schema_check -- \
    --feed "$BENCH_TMP/feed_volume.jsonl"
# The smallfile smoke's flight dumps are read by the same parser and
# validator: frames and heads.
cargo run --release --offline -p cffs-bench --bin bench_schema_check -- \
    --feed "$BENCH_TMP"/flight/FLIGHT_*.jsonl
cargo run --release --offline --bin cffs-top -- \
    --replay "$BENCH_TMP/feed.jsonl" --headless --frames 5 \
    | grep -q '^rendered 5 frames$' \
    || { echo "cffs-top headless replay smoke failed"; exit 1; }

echo "== flight recorder + postmortem smoke (black box, fault injection) =="
# The smallfile smoke above armed a black box; its finished run must have
# left a schema-valid dump whose last frame matches the final counter
# snapshot (the postmortem's consistency check).
for dump in "$BENCH_TMP"/flight/FLIGHT_*.jsonl; do
    cargo run --release --offline --bin cffs-inspect -- postmortem "$dump" \
        | grep -q 'internally consistent' \
        || { echo "postmortem of $dump not consistent"; exit 1; }
done
# Fault injection: corrupt an image under an armed recorder; the unclean
# fsck verdict must flush the black box with reason fsck_failure, and the
# postmortem of that dump must carry a non-empty diagnosis.
cargo run --release --offline -p cffs-bench --bin flight_fault_smoke -- \
    --flight "$BENCH_TMP/flight_fault" > /dev/null
cargo run --release --offline --bin cffs-inspect -- postmortem \
    "$BENCH_TMP"/flight_fault/FLIGHT_*.jsonl > "$BENCH_TMP/postmortem.txt"
grep -q 'reason: fsck_failure' "$BENCH_TMP/postmortem.txt" \
    || { echo "fault-injected dump did not capture the fsck failure"; exit 1; }
grep -q '^  - ' "$BENCH_TMP/postmortem.txt" \
    || { echo "postmortem produced an empty diagnosis"; exit 1; }

echo "== cffs-inspect diff (deterministic regression attribution) =="
# Byte-determinism on the checked-in baselines: two invocations of the
# same comparison must agree exactly.
cargo run --release --offline --bin cffs-inspect -- diff --json \
    crates/bench/baselines/BENCH_SMALLFILE_SYNC.json \
    crates/bench/baselines/BENCH_AGING_REGROUP.json > "$BENCH_TMP/diff_a.json"
cargo run --release --offline --bin cffs-inspect -- diff --json \
    crates/bench/baselines/BENCH_SMALLFILE_SYNC.json \
    crates/bench/baselines/BENCH_AGING_REGROUP.json > "$BENCH_TMP/diff_b.json"
cmp -s "$BENCH_TMP/diff_a.json" "$BENCH_TMP/diff_b.json" \
    || { echo "cffs-inspect diff is not deterministic"; exit 1; }
# Attribution: a perturbed smallfile run (different scale, same rows)
# against the ci run must attribute at least one moved metric.
BENCH_OUT_DIR="$BENCH_TMP/out2" cargo run --release --offline -p cffs-bench \
    --bin repro -- smallfile --files 72 --dirs 3 --mode sync --seed 1997 \
    > /dev/null
cargo run --release --offline --bin cffs-inspect -- diff --json \
    "$BENCH_TMP/out/BENCH_SMALLFILE_SYNC.json" \
    "$BENCH_TMP/out2/BENCH_SMALLFILE_SYNC.json" > "$BENCH_TMP/diff_c.json"
grep -q '"total_attributions": 0,' "$BENCH_TMP/diff_c.json" \
    && { echo "diff of two different-scale runs attributed nothing"; exit 1; }

echo "== baselines reproduce exactly (cffs-inspect diff attributes nothing) =="
# Simulated time is a function of the seed, so each smoke run above must
# reproduce its checked-in baseline exactly: a baseline that drifted
# inside the gate's band would otherwise go unnoticed. Regenerate with
# the smoke step's flags (see the perf gate below) when a change moves it.
for name in SMALLFILE_SYNC AGING_REGROUP CONCURRENT NAMEI VOLUME; do
    cargo run --release --offline --bin cffs-inspect -- diff --json \
        "crates/bench/baselines/BENCH_$name.json" "$BENCH_TMP/out/BENCH_$name.json" \
        > "$BENCH_TMP/diff_$name.json"
    grep -q '"total_attributions": 0,' "$BENCH_TMP/diff_$name.json" \
        || { echo "BENCH_$name does not reproduce its baseline (cffs-inspect diff attributes moves)"; exit 1; }
done

echo "== profiler smoke (flamegraph fold + smallfile FOLD artifact) =="
# The fold must be non-empty, every line must be `stack weight`, and the
# smallfile smoke above must have left a per-phase FOLD artifact behind.
FOLD="$BENCH_TMP/fold.txt"
cargo run --release --offline --bin cffs-inspect -- flamegraph --demo > "$FOLD"
awk 'BEGIN { n = 0 }
     !/^[^ ]+ [0-9]+$/ { print "malformed fold line: " $0; exit 1 }
     { n += 1 }
     END { if (n == 0) { print "empty fold"; exit 1 } }' "$FOLD"
awk 'BEGIN { n = 0 }
     !/^[^ ]+ [0-9]+$/ { print "malformed fold line: " $0; exit 1 }
     { n += 1 }
     END { if (n == 0) { print "empty fold"; exit 1 } }' \
    "$BENCH_TMP/out/FOLD_SMALLFILE_SYNC.txt"
cargo run --release --offline --bin cffs-inspect -- flamegraph --svg-ready --demo \
    | grep -q '^<svg ' || { echo "flamegraph --svg-ready did not emit SVG"; exit 1; }

echo "== bench perf gate (p90 latency + group-fetch utilization vs baselines) =="
# Simulated time is deterministic, so unchanged code reproduces the
# baselines exactly (the step above checks it); the gate adds the
# absolute floors and writes each check's verdict to a GATE_REPORT.
# Refresh with: BENCH_OUT_DIR=crates/bench/baselines target/release/repro
# <experiment> and the smoke step's flags for it
cargo run --release --offline -p cffs-bench --bin bench_gate -- \
    "$BENCH_TMP/out/BENCH_SMALLFILE_SYNC.json" \
    crates/bench/baselines/BENCH_SMALLFILE_SYNC.json --tolerance-pct 25
cargo run --release --offline -p cffs-bench --bin bench_gate -- \
    "$BENCH_TMP/out/BENCH_AGING_REGROUP.json" \
    crates/bench/baselines/BENCH_AGING_REGROUP.json --tolerance-pct 25
# Concurrent scaling: relative band vs baseline plus the absolute
# >= 2.5x acceptance floor enforced inside bench_gate.
cargo run --release --offline -p cffs-bench --bin bench_gate -- \
    "$BENCH_TMP/out/BENCH_CONCURRENT.json" \
    crates/bench/baselines/BENCH_CONCURRENT.json --tolerance-pct 25
# Namei: relative band vs baseline plus the absolute >= 0.90 warm hit
# rate and >= 5x p99 speedup floors enforced inside bench_gate.
cargo run --release --offline -p cffs-bench --bin bench_gate -- \
    "$BENCH_TMP/out/BENCH_NAMEI.json" \
    crates/bench/baselines/BENCH_NAMEI.json --tolerance-pct 25
# Volume scaling: relative band vs baseline plus the absolute >= 3.0x
# 4-volume acceptance floor enforced inside bench_gate. The run is a
# function of the seed, so a failure here is the code's, not the host's.
cargo run --release --offline -p cffs-bench --bin bench_gate -- \
    "$BENCH_TMP/out/BENCH_VOLUME.json" \
    crates/bench/baselines/BENCH_VOLUME.json --tolerance-pct 25
# Every gate run above must have left its machine-readable verdict next
# to the payload it judged.
for name in SMALLFILE_SYNC AGING_REGROUP CONCURRENT NAMEI VOLUME; do
    test -s "$BENCH_TMP/out/GATE_REPORT_BENCH_$name.json" \
        || { echo "bench_gate left no GATE_REPORT for $name"; exit 1; }
done
rm -rf "$BENCH_TMP"

echo "== ci.sh: all green =="
