//! E2 — Figure 2: average access time as a function of request size.
//!
//! The paper plots, for the three Table 1 drives, how the average time to
//! service a request grows with its size. The crossover logic behind
//! C-FFS lives in this curve: going from 4 KB to 64 KB multiplies the data
//! moved by 16 while the service time grows far less, because positioning
//! dominates small requests.
//!
//! Measured, not computed: each point issues random-position reads on a
//! fresh simulated drive (on-board cache disabled — random positions defeat
//! it anyway, and the paper's curve is about mechanics).

use cffs_disksim::cache::OnboardCacheConfig;
use cffs_disksim::{models, Disk, SimTime};
use cffs_obs::json::{Json, ToJson};
use cffs_obs::{obj, StatsSnapshot};

/// Sizes plotted, in KB.
pub const SIZES_KB: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// One measured point: average access time (ms) of `n` random reads of
/// `size` bytes, plus the disk's counter snapshot for the run.
pub fn point(model: cffs_disksim::DiskModel, size: usize, n: usize) -> (f64, StatsSnapshot) {
    let mut model = model;
    model.cache = OnboardCacheConfig::disabled();
    let name = model.name.clone();
    let mut disk = Disk::new(model);
    let cap = disk.capacity_sectors();
    let sectors = (size / cffs_disksim::SECTOR_SIZE) as u64;
    let mut buf = vec![0u8; size];
    let mut t = SimTime::ZERO;
    // Deterministic quasi-random positions (golden-ratio stride).
    let mut pos = 0u64;
    let stride = (cap as f64 * 0.618_033_988_75) as u64 | 1;
    let t0 = t;
    for _ in 0..n {
        pos = (pos + stride) % (cap - sectors);
        t = disk.read(t, pos, &mut buf);
    }
    let snap = disk.obs().snapshot(&name, (t - t0).as_nanos());
    ((t - t0).as_millis_f64() / n as f64, snap)
}

/// Run the figure once, rendering the table and the JSON payload.
pub fn report(samples: usize) -> (String, Json) {
    let mut points: Vec<Json> = Vec::new();
    let drives = models::table1_drives();
    let mut out = String::new();
    out.push_str(&format!("{:<10}", "size"));
    for d in &drives {
        out.push_str(&format!("{:>24}", d.name));
    }
    out.push('\n');
    out.push_str(&format!("{:<10}", ""));
    for _ in &drives {
        out.push_str(&format!("{:>14} {:>9}", "ms/req", "MB/s"));
    }
    out.push('\n');
    out.push_str(&"-".repeat(10 + drives.len() * 24));
    out.push('\n');
    for kb in SIZES_KB {
        out.push_str(&format!("{:<10}", format!("{kb} KB")));
        for d in &drives {
            let (ms, snap) = point(d.clone(), kb * 1024, samples);
            let mbps = kb as f64 / 1024.0 / (ms / 1000.0);
            points.push(obj![
                ("drive", d.name.to_json()),
                ("size_kb", kb.to_json()),
                ("ms_per_req", ms.to_json()),
                ("mb_per_sec", mbps.to_json()),
                ("counters", snap.to_json()),
            ]);
            out.push_str(&format!("{ms:>14.2} {mbps:>9.2}"));
        }
        out.push('\n');
    }
    // The argument in one number: 4 KB → 64 KB on the first drive.
    let d = &drives[0];
    let t4 = point(d.clone(), 4 * 1024, samples).0;
    let t64 = point(d.clone(), 64 * 1024, samples).0;
    out.push_str(&format!(
        "\n16x the data (4 KB -> 64 KB) costs only {:.2}x the time on the {} —\n\
         adjacency converts positioning time into useful transfer.\n",
        t64 / t4,
        d.name
    ));
    let json = obj![
        ("experiment", "fig2".to_json()),
        ("samples", samples.to_json()),
        ("points", Json::Arr(points)),
    ];
    (out, json)
}
