//! E3 — Table 2: the testbed disk (Seagate ST31200).
//!
//! Every file-system experiment in the paper (and in this reproduction)
//! runs on this drive. "The disk driver ... supports scatter/gather I/O
//! and uses a C-LOOK scheduling algorithm. The disk prefetches sequential
//! disk data into its on-board cache" — both are modeled (see
//! `cffs_disksim::driver` and `cffs_disksim::cache`).

use cffs_disksim::models;
use cffs_obs::json::{Json, ToJson};
use cffs_obs::{obj, Obs};

/// Render the table, plus its JSON payload (the testbed model itself;
/// the counter snapshot is all-zero because a spec table does no I/O).
pub fn report() -> (String, Json) {
    let d = models::seagate_st31200();
    let spts: Vec<u32> = d.geometry.zones.iter().map(|z| z.sectors_per_track).collect();
    let mut out = String::new();
    let mut push = |k: &str, v: String| out.push_str(&format!("{k:<28}{v}\n"));
    push("Drive", d.name.clone());
    push("Formatted capacity", format!("{:.2} GB", d.capacity_bytes() as f64 / 1e9));
    push("Cylinders", format!("{}", d.geometry.total_cylinders()));
    push("Data surfaces", format!("{}", d.geometry.heads));
    push("Rotation speed", format!("{} RPM", d.rpm));
    push("Revolution time", format!("{:.2} ms", d.revolution().as_millis_f64()));
    push(
        "Sectors per track",
        format!("{}-{}", spts.iter().min().unwrap(), spts.iter().max().unwrap()),
    );
    push(
        "Media transfer rate",
        format!(
            "{:.1}-{:.1} MB/s",
            d.media_rate_at(d.geometry.total_cylinders() - 1),
            d.media_rate_at(0)
        ),
    );
    push("Track-to-track seek", format!("{:.1} ms", d.seek.single().as_millis_f64()));
    push("Average seek", format!("{:.1} ms", d.seek.average().as_millis_f64()));
    push("Maximum seek", format!("{:.1} ms", d.seek.full_stroke().as_millis_f64()));
    push("Head switch", format!("{:.2} ms", d.head_switch.as_millis_f64()));
    push("Controller overhead", format!("{:.2} ms", d.controller_overhead.as_millis_f64()));
    push("Bus bandwidth", format!("{:.0} MB/s", d.bus_mb_per_s));
    push(
        "On-board cache",
        format!(
            "{} KB, {} segments, read-ahead {} KB",
            d.cache.segments as u64 * d.cache.segment_sectors * 512 / 1024,
            d.cache.segments,
            d.cache.read_ahead * 512 / 1024
        ),
    );
    push("Driver scheduling", "C-LOOK, scatter/gather".to_string());
    let json = obj![
        ("experiment", "table2".to_json()),
        ("drive", d.to_json()),
        ("counters", Obs::new().snapshot("static-table", 0).to_json()),
    ];
    (out, json)
}
