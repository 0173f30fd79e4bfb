//! Quickstart: format a C-FFS on the paper's testbed disk, do ordinary
//! file work through the `FileSystem` trait, and read the simulated-time
//! and I/O accounting back out.
//!
//! Run with: `cargo run --release --example quickstart`

use cffs::build;
use cffs::prelude::*;

fn main() -> FsResult<()> {
    // A fresh C-FFS (embedded inodes + explicit grouping) on a simulated
    // Seagate ST31200 — the paper's testbed drive.
    let fs = build::cffs_on_testbed();
    let root = fs.root();

    // Plain VFS calls...
    let src = fs.mkdir(root, "src")?;
    let main_c = fs.create(src, "main.c")?;
    fs.write(main_c, 0, b"int main(void) { return 0; }\n")?;

    // ...or path helpers.
    path::mkdir_p(&fs, "/src/include")?;
    path::write_file(&fs, "/src/include/util.h", b"#pragma once\n")?;
    path::write_file(&fs, "/src/README", b"hello from 1997\n")?;

    // Everything a directory names tends to live in one 64 KB group:
    fs.sync()?;
    println!("files under /src:");
    for e in fs.readdir(src)? {
        let a = fs.getattr(e.ino)?;
        println!("  {:<12} {:>6} bytes  ino {:#x}", e.name, a.size, e.ino);
    }

    // Cold-read the tree (drop caches = remount) and look at the cost.
    fs.drop_caches()?;
    let (io0, t0) = (fs.io_stats(), fs.now());
    let text = path::read_file(&fs, "/src/main.c")?;
    let _ = path::read_file(&fs, "/src/include/util.h")?;
    let _ = path::read_file(&fs, "/src/README")?;
    let t1 = fs.now();

    let io = fs.io_stats().delta_since(&io0);
    println!("\nread back {:?}...", String::from_utf8_lossy(&text[..12]));
    println!("cold read of 3 small files took {} simulated", t1 - t0);
    println!(
        "disk requests: {} (group reads: {}, blocks via group fetch: {})",
        io.disk.total_requests(),
        io.cache.group_reads,
        io.cache.group_read_blocks
    );
    println!(
        "cache: {} lookups, {} physical hits, {} back-bindings",
        io.cache.lookups, io.cache.phys_hits, io.cache.backbinds
    );

    let st = fs.statfs()?;
    println!(
        "\nstatfs: {} of {} blocks free, {} reserved as group slack",
        st.free_blocks, st.total_blocks, st.group_slack_blocks
    );
    Ok(())
}
