//! E1 — Table 1: characteristics of three modern (1996) disk drives.
//!
//! The paper uses this table to argue that per-byte costs (bandwidth)
//! improve much faster than per-request costs (seek + rotation). The
//! printed figures come straight from the drive models; the seek figures
//! visible in the paper's text (0.6/1.0 ms single, 8.7/8.0/7.9 ms average,
//! 16.5/19.0/18.0 ms maximum) are reproduced exactly.

use cffs_disksim::models;
use cffs_disksim::DiskModel;
use cffs_obs::json::{Json, ToJson};
use cffs_obs::{obj, Obs};

fn row(label: &str, f: impl Fn(&DiskModel) -> String, drives: &[DiskModel]) -> String {
    let mut s = format!("{label:<28}");
    for d in drives {
        s.push_str(&format!("{:>22}", f(d)));
    }
    s.push('\n');
    s
}

/// Render the table, plus its JSON payload (the drive models themselves;
/// the counter snapshot is all-zero because a spec table does no I/O).
pub fn report() -> (String, Json) {
    let drives = models::table1_drives();
    let mut out = String::new();
    out.push_str(&row("", |d| d.name.clone(), &drives));
    out.push_str(&"-".repeat(28 + drives.len() * 22));
    out.push('\n');
    out.push_str(&row(
        "Formatted capacity",
        |d| format!("{:.2} GB", d.capacity_bytes() as f64 / 1e9),
        &drives,
    ));
    out.push_str(&row("Rotation speed", |d| format!("{} RPM", d.rpm), &drives));
    out.push_str(&row(
        "Revolution time",
        |d| format!("{:.2} ms", d.revolution().as_millis_f64()),
        &drives,
    ));
    out.push_str(&row(
        "Sectors per track",
        |d| {
            let spts: Vec<u32> = d.geometry.zones.iter().map(|z| z.sectors_per_track).collect();
            format!("{}-{}", spts.iter().min().unwrap(), spts.iter().max().unwrap())
        },
        &drives,
    ));
    out.push_str(&row(
        "Media transfer rate",
        |d| {
            let outer = d.media_rate_at(0);
            let inner = d.media_rate_at(d.geometry.total_cylinders() - 1);
            format!("{inner:.1}-{outer:.1} MB/s")
        },
        &drives,
    ));
    out.push_str(&row(
        "Seek < 1 cylinder",
        |d| format!("{:.1} ms", d.seek.single().as_millis_f64()),
        &drives,
    ));
    out.push_str(&row(
        "Average seek",
        |d| format!("{:.1} ms", d.seek.average().as_millis_f64()),
        &drives,
    ));
    out.push_str(&row(
        "Maximum seek",
        |d| format!("{:.1} ms", d.seek.full_stroke().as_millis_f64()),
        &drives,
    ));
    out.push_str(&row("Bus bandwidth", |d| format!("{:.0} MB/s", d.bus_mb_per_s), &drives));

    // The paper's trend point: HP C2247 (1992) vs HP C3653 (1996).
    let old = models::hp_c2247();
    let new = models::hp_c3653();
    let spt_ratio = new.geometry.zones[0].sectors_per_track as f64
        / old.geometry.zones[0].sectors_per_track as f64;
    let access_old = old.seek.average().as_millis_f64() + old.revolution().as_millis_f64() / 2.0;
    let access_new = new.seek.average().as_millis_f64() + new.revolution().as_millis_f64() / 2.0;
    out.push_str(&format!(
        "\nTrend (paper, Section 2): the {} records {:.1}x the sectors per track of the\n\
         {} of a few years earlier, while the older drive's average access time\n\
         was only {:.0}% higher ({:.1} ms vs {:.1} ms) — bandwidth improves much faster\n\
         than access time.\n",
        new.name,
        spt_ratio,
        old.name,
        (access_old / access_new - 1.0) * 100.0,
        access_old,
        access_new,
    ));
    let json = obj![
        ("experiment", "table1".to_json()),
        ("drives", Json::Arr(drives.iter().map(|d| d.to_json()).collect())),
        ("counters", Obs::new().snapshot("static-table", 0).to_json()),
    ];
    (out, json)
}
