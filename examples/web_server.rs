//! Application-directed grouping — the paper's Section 6 future work:
//!
//! > "one application-specific approach is to group files that make up a
//! > single hypertext document [Kaashoek96]. We are investigating
//! > extensions to the file system interface to allow this information to
//! > be passed to the file system."
//!
//! Nineties web sites segregated content by *type*: `/html/*.html`,
//! `/img/*.gif`. Name-space grouping therefore co-locates all pages with
//! each other and all images with each other — but a browser fetches one
//! *document*: a page plus its own images, scattered across both trees.
//!
//! This example builds such a site, measures cold-cache "serve one
//! document" latency, then uses `Cffs::group_files` (the richer,
//! cross-directory form of the hint interface) to co-locate each document
//! and measures again.
//!
//! Run with: `cargo run --release --example web_server`

use cffs::build;
use cffs::core::Cffs;
use cffs::prelude::*;
use cffs_disksim::SimDuration;

const DOCS: usize = 24;
const IMAGES_PER_DOC: usize = 4;

fn build_site(fs: &Cffs) -> FsResult<(Ino, Ino)> {
    let root = fs.root();
    let html = fs.mkdir(root, "html")?;
    let img = fs.mkdir(root, "img")?;
    // Type-major creation: first all pages, then all images — so the name
    // space groups pages with pages and images with images.
    for d in 0..DOCS {
        let page = fs.create(html, &format!("page{d:02}.html"))?;
        fs.write(page, 0, format!("<html>doc {d}</html>").repeat(50).as_bytes())?;
    }
    for d in 0..DOCS {
        for i in 0..IMAGES_PER_DOC {
            let gif = fs.create(img, &format!("doc{d:02}_img{i}.gif"))?;
            fs.write(gif, 0, &vec![(d * 7 + i) as u8; 2500])?;
        }
    }
    fs.sync()?;
    Ok((html, img))
}

/// Serve every document from a cold cache (a busy server whose working
/// set long outgrew memory: every document fetch starts cold); return the
/// mean per-document latency and total disk requests.
fn serve_all(fs: &Cffs, html: Ino, img: Ino) -> FsResult<(SimDuration, u64)> {
    let mut total = SimDuration::ZERO;
    let mut reqs = 0u64;
    for d in 0..DOCS {
        fs.drop_caches()?;
        let (io0, t0) = (fs.io_stats(), fs.now());
        let page = fs.lookup(html, &format!("page{d:02}.html"))?;
        let _ = path::read_all(fs, page)?;
        for i in 0..IMAGES_PER_DOC {
            let gif = fs.lookup(img, &format!("doc{d:02}_img{i}.gif"))?;
            let _ = path::read_all(fs, gif)?;
        }
        total += fs.now() - t0;
        reqs += fs.io_stats().delta_since(&io0).disk.total_requests();
    }
    Ok((SimDuration::from_nanos(total.as_nanos() / DOCS as u64), reqs))
}

fn main() -> FsResult<()> {
    let fs = build::cffs_on_testbed();
    let (html, img) = build_site(&fs)?;

    let (before, reqs_before) = serve_all(&fs, html, img)?;

    // The server knows which files form one document; tell the file system.
    for d in 0..DOCS {
        let mut doc = vec![fs.lookup(html, &format!("page{d:02}.html"))?];
        for i in 0..IMAGES_PER_DOC {
            doc.push(fs.lookup(img, &format!("doc{d:02}_img{i}.gif"))?);
        }
        // Anchor each document's group at the html directory.
        fs.group_files(html, &doc)?;
    }
    fs.sync()?;

    let (after, reqs_after) = serve_all(&fs, html, img)?;

    println!("cold-serving one hypertext document (1 page + {IMAGES_PER_DOC} images), {DOCS} documents:");
    println!("  name-space grouping only: {before} per document ({reqs_before} disk requests)");
    println!("  with document hints:      {after} per document ({reqs_after} disk requests)");
    println!("  speedup: {:.2}x", before.as_secs_f64() / after.as_secs_f64());
    Ok(())
}
