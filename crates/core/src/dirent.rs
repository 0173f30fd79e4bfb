//! C-FFS directory blocks with embedded inodes.
//!
//! Entry layout (8-byte aligned, never crossing a 512-byte chunk):
//!
//! ```text
//! +--------+---------+-------+----------+------------------+-------------+
//! | reclen | namelen | flags | ext_slot | name (pad to 8)  | inode 128 B |
//! |  u16   |   u8    |  u8   |   u32    |                  | (embedded   |
//! |        |         |       |          |                  |  entries)   |
//! +--------+---------+-------+----------+------------------+-------------+
//! ```
//!
//! * `flags == 0`: free space (reclen reclaimable).
//! * `EMBEDDED` entries carry the file's inode image immediately after the
//!   padded name. Entry + inode share one 512-byte chunk, i.e. one disk
//!   sector — the disk's sector-write atomicity therefore updates name and
//!   inode together, the property Section 3 of the paper builds on.
//! * External entries (multi-link files, or every file when embedding is
//!   disabled) store a slot index into the external inode file instead.
//!
//! With embedding, a short-named file costs 144 bytes of directory space
//! versus 16 conventional — the directory-size growth the paper's
//! "Directory sizes" discussion weighs against the access savings.
//!
//! A decoded [`CEntry`] carries no name: [`find`], [`entry_at`] and
//! [`remove_at`] — the lookup, embedded-inode and unlink paths — check
//! that the name is UTF-8 but leave it in the block, so resolving a name
//! makes no heap request. Only [`list`] (readdir, fsck, relocation)
//! copies names out, pairing each entry with its own.
//!
//! An entry never leaves its chunk, so the operations on the entry at a
//! known offset ([`entry_at`], [`remove_at`]) walk that one chunk.

use cffs_fslib::codec::{get_u16, get_u32, put_u16, put_u32};
use cffs_fslib::inode::{Inode, INODE_SIZE};
use cffs_fslib::{FileKind, FsError, FsResult, BLOCK_SIZE};

/// Chunk size within which an entry must fit (one sector).
pub const DIRBLKSIZ: usize = 512;

/// Chunks in a directory block: the bits of a [`roomy_chunks`] mask.
const CHUNKS: usize = BLOCK_SIZE / DIRBLKSIZ;
const _: () = assert!(CHUNKS == u8::BITS as usize);

/// Fixed part of an entry before the name.
pub const ENTRY_HEADER: usize = 8;

const FLAG_USED: u8 = 0x01;
const FLAG_EMBEDDED: u8 = 0x02;
const FLAG_DIR: u8 = 0x04;

/// Where an entry keeps its inode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryLoc {
    /// Slot in the external inode file.
    External(u32),
    /// Inode image at this byte offset within the same block.
    Embedded(usize),
}

/// A decoded entry (its name stays in the block; see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CEntry {
    /// Byte offset of the entry within the block.
    pub offset: usize,
    /// Entry kind.
    pub kind: FileKind,
    /// Inode location.
    pub loc: EntryLoc,
    /// Generation stamp of an embedded inode (low 15 bits of the image's
    /// generation field; 0 for external entries).
    pub gen: u16,
}

fn pad8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

/// Bytes an external entry needs.
pub fn external_len(namelen: usize) -> usize {
    ENTRY_HEADER + pad8(namelen)
}

/// Bytes an embedded entry needs.
pub fn embedded_len(namelen: usize) -> usize {
    external_len(namelen) + INODE_SIZE
}

/// Offset of the inode image inside an embedded entry.
pub fn image_offset(entry_off: usize, namelen: usize) -> usize {
    entry_off + external_len(namelen)
}

/// Initialize an empty directory block.
pub fn init_block(buf: &mut [u8]) {
    buf[..BLOCK_SIZE].fill(0);
    for chunk in 0..CHUNKS {
        put_u16(buf, chunk * DIRBLKSIZ, DIRBLKSIZ as u16);
    }
}

fn kind_of(flags: u8) -> FileKind {
    if flags & FLAG_DIR != 0 {
        FileKind::Dir
    } else {
        FileKind::File
    }
}

/// Walk all records; `f(off, flags, namelen, reclen)`; return `false` from
/// `f` to stop early.
fn walk(buf: &[u8], mut f: impl FnMut(usize, u8, usize, usize) -> bool) -> FsResult<()> {
    for chunk in 0..CHUNKS {
        if !walk_chunk(buf, chunk, &mut f)? {
            break;
        }
    }
    Ok(())
}

/// Walk the records of chunk `chunk` as [`walk`] does; `Ok(false)` when
/// `f` stopped the walk.
fn walk_chunk(
    buf: &[u8],
    chunk: usize,
    f: &mut impl FnMut(usize, u8, usize, usize) -> bool,
) -> FsResult<bool> {
    note_walk();
    let base = chunk * DIRBLKSIZ;
    let mut off = base;
    while off < base + DIRBLKSIZ {
        let reclen = get_u16(buf, off) as usize;
        if reclen < ENTRY_HEADER || off + reclen > base + DIRBLKSIZ || !reclen.is_multiple_of(8) {
            return Err(FsError::Corrupt(format!("bad reclen {reclen} at offset {off}")));
        }
        let flags = buf[off + 3];
        let namelen = buf[off + 2] as usize;
        if used_len(flags, namelen) > reclen {
            return Err(FsError::Corrupt(format!("entry overflows reclen at {off}")));
        }
        if !f(off, flags, namelen, reclen) {
            return Ok(false);
        }
        off += reclen;
    }
    Ok(true)
}

/// Whether the record at `off` is a used entry named `name`.
fn named(buf: &[u8], off: usize, flags: u8, namelen: usize, name: &str) -> bool {
    flags & FLAG_USED != 0
        && namelen == name.len()
        && &buf[off + ENTRY_HEADER..off + ENTRY_HEADER + namelen] == name.as_bytes()
}

/// Decode the used entry at `off`, borrowing its name from the block.
fn decode(buf: &[u8], off: usize, flags: u8, namelen: usize) -> FsResult<(CEntry, &str)> {
    let name = std::str::from_utf8(&buf[off + ENTRY_HEADER..off + ENTRY_HEADER + namelen])
        .map_err(|_| FsError::Corrupt(format!("undecodable name at {off}")))?;
    let (loc, gen) = if flags & FLAG_EMBEDDED != 0 {
        let img = image_offset(off, namelen);
        let gen = (get_u32(buf, img + cffs_fslib::inode::GENERATION_OFFSET) & 0x7FFF) as u16;
        (EntryLoc::Embedded(img), gen)
    } else {
        (EntryLoc::External(get_u32(buf, off + 4)), 0)
    };
    Ok((CEntry { offset: off, kind: kind_of(flags), loc, gen }, name))
}

/// List used entries, each with an owned copy of its name.
pub fn list(buf: &[u8]) -> FsResult<Vec<(String, CEntry)>> {
    let mut out = Vec::new();
    let mut err = None;
    walk(buf, |off, flags, namelen, _| {
        if flags & FLAG_USED != 0 {
            match decode(buf, off, flags, namelen) {
                Ok((e, name)) => out.push((name.to_string(), e)),
                Err(e) => {
                    err = Some(e);
                    return false;
                }
            }
        }
        true
    })?;
    match err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Find a used entry by name.
pub fn find(buf: &[u8], name: &str) -> FsResult<Option<CEntry>> {
    let mut found = None;
    walk(buf, |off, flags, namelen, _| {
        if named(buf, off, flags, namelen, name) {
            found = Some(decode(buf, off, flags, namelen).map(|(e, _)| e));
            return false;
        }
        true
    })?;
    found.transpose()
}

/// [`find`] and [`roomy_chunks`] in one walk: the entry named `name`,
/// and the chunks an entry of `len` bytes would fit in — the whole mask,
/// meaningful when the name is absent (the walk stops where it is found).
pub fn find_room(buf: &[u8], name: &str, len: usize) -> FsResult<(Option<CEntry>, u8)> {
    let (mut found, mut roomy) = (None, 0u8);
    walk(buf, |off, flags, namelen, reclen| {
        if named(buf, off, flags, namelen, name) {
            found = Some(decode(buf, off, flags, namelen).map(|(e, _)| e));
            return false;
        }
        if reclen - used_len(flags, namelen) >= len {
            roomy |= 1 << (off / DIRBLKSIZ);
        }
        true
    })?;
    Ok((found.transpose()?, roomy))
}

/// A used record found at a known offset (see [`used_at`]).
struct Used {
    /// The record before it in its chunk, if any.
    prev: Option<usize>,
    flags: u8,
    namelen: usize,
    reclen: usize,
}

/// The record that starts at `off`, if it is a used entry. Walks only the
/// chunk that holds `off`, since no entry crosses a chunk.
fn used_at(buf: &[u8], off: usize) -> FsResult<Option<Used>> {
    if off >= BLOCK_SIZE {
        return Ok(None);
    }
    let (mut hit, mut prev) = (None, None);
    walk_chunk(buf, off / DIRBLKSIZ, &mut |o, flags, namelen, reclen| {
        if o == off {
            if flags & FLAG_USED != 0 {
                hit = Some(Used { prev, flags, namelen, reclen });
            }
            return false;
        }
        prev = Some(o);
        o < off
    })?;
    Ok(hit)
}

/// Decode and validate the entry starting at `off` (an inode-number
/// dereference). Fails with [`FsError::StaleHandle`] if no entry starts
/// there or it is free, and with [`FsError::Corrupt`] if the used entry
/// there does not decode.
pub fn entry_at(buf: &[u8], off: usize) -> FsResult<CEntry> {
    let u = used_at(buf, off)?.ok_or(FsError::StaleHandle)?;
    decode(buf, off, u.flags, u.namelen).map(|(e, _)| e)
}

/// Bytes a record's entry occupies: 0 when it is free.
fn used_len(flags: u8, namelen: usize) -> usize {
    if flags & FLAG_USED == 0 {
        0
    } else if flags & FLAG_EMBEDDED != 0 {
        embedded_len(namelen)
    } else {
        external_len(namelen)
    }
}

/// The chunks of this block an entry of `len` bytes would fit in, as a
/// mask: bit `c` is the chunk at byte `c * DIRBLKSIZ` (a block has 8).
/// With `first_only`, just the lowest of them — the first fit — and the
/// chunks after it are not walked.
pub fn roomy_chunks(buf: &[u8], len: usize, first_only: bool) -> FsResult<u8> {
    let mut roomy = 0u8;
    for chunk in 0..CHUNKS {
        // A chunk's walk stops at its first record with room.
        let full = walk_chunk(buf, chunk, &mut |_, flags, namelen, reclen| {
            reclen - used_len(flags, namelen) < len
        })?;
        roomy |= u8::from(!full) << chunk;
        if first_only && roomy != 0 {
            break;
        }
    }
    Ok(roomy)
}

/// Find a slot of `need` bytes in a chunk of mask `chunks`, the first in
/// block order; returns the offset to write the new entry at, carving
/// slack or claiming a free record as needed.
fn claim(buf: &mut [u8], chunks: u8, need: usize) -> FsResult<Option<usize>> {
    let mut slot = None;
    for chunk in (0..CHUNKS).filter(|c| chunks >> c & 1 == 1) {
        walk_chunk(buf, chunk, &mut |off, flags, namelen, reclen| {
            let used = used_len(flags, namelen);
            if reclen - used >= need {
                slot = Some((off, used, reclen));
            }
            slot.is_none()
        })?;
        if slot.is_some() {
            break;
        }
    }
    let Some((off, used, reclen)) = slot else { return Ok(None) };
    if used == 0 {
        // Claim the free record whole.
        Ok(Some(off))
    } else {
        // Split the slack off the used entry.
        put_u16(buf, off, used as u16);
        put_u16(buf, off + used, (reclen - used) as u16);
        buf[off + used + 2] = 0;
        buf[off + used + 3] = 0;
        Ok(Some(off + used))
    }
}

fn write_header(buf: &mut [u8], off: usize, namelen: usize, flags: u8, ext_slot: u32, name: &str) {
    // reclen at `off` is already correct (claim left it there).
    buf[off + 2] = namelen as u8;
    buf[off + 3] = flags;
    put_u32(buf, off + 4, ext_slot);
    buf[off + ENTRY_HEADER..off + ENTRY_HEADER + namelen].copy_from_slice(name.as_bytes());
    // Zero name padding for determinism.
    let pad_end = off + external_len(namelen);
    buf[off + ENTRY_HEADER + namelen..pad_end].fill(0);
}

/// Insert an entry referencing an external inode slot, in the first chunk
/// of mask `chunks` with room (see [`roomy_chunks`]). Returns its offset,
/// or `None` if none of those chunks has room.
pub fn insert_external(
    buf: &mut [u8],
    chunks: u8,
    name: &str,
    slot: u32,
    kind: FileKind,
) -> FsResult<Option<usize>> {
    let Some(off) = claim(buf, chunks, external_len(name.len()))? else { return Ok(None) };
    let mut flags = FLAG_USED;
    if kind == FileKind::Dir {
        flags |= FLAG_DIR;
    }
    write_header(buf, off, name.len(), flags, slot, name);
    Ok(Some(off))
}

/// Insert an entry with an embedded inode image, in the first chunk of
/// mask `chunks` with room. Returns `(entry_offset, image_offset)`, or
/// `None` if none of those chunks has room.
pub fn insert_embedded(
    buf: &mut [u8],
    chunks: u8,
    name: &str,
    kind: FileKind,
    inode: &Inode,
) -> FsResult<Option<(usize, usize)>> {
    let Some(off) = claim(buf, chunks, embedded_len(name.len()))? else { return Ok(None) };
    let mut flags = FLAG_USED | FLAG_EMBEDDED;
    if kind == FileKind::Dir {
        flags |= FLAG_DIR;
    }
    write_header(buf, off, name.len(), flags, 0, name);
    let img = image_offset(off, name.len());
    inode.write_to(buf, img);
    Ok(Some((off, img)))
}

/// Rewrite an embedded entry as an external reference in place (inode
/// externalization for hard links). The entry keeps its offset and reclen;
/// the stale inode image bytes become slack.
///
/// # Panics
/// Panics if the entry at `off` is not a used, embedded entry — callers
/// must have just decoded it.
pub fn convert_to_external(buf: &mut [u8], off: usize, slot: u32) {
    let flags = buf[off + 3];
    assert!(
        flags & FLAG_USED != 0 && flags & FLAG_EMBEDDED != 0,
        "convert_to_external on a non-embedded entry"
    );
    buf[off + 3] = flags & !FLAG_EMBEDDED;
    put_u32(buf, off + 4, slot);
}

/// Remove the entry starting at `off` — one a scan has just found — and
/// return it: its space joins the record before it in its chunk, or
/// becomes a free record when it is the chunk's first. Walks that one
/// chunk; fails as [`entry_at`] does when no used entry starts at `off`.
pub fn remove_at(buf: &mut [u8], off: usize) -> FsResult<CEntry> {
    let u = used_at(buf, off)?.ok_or(FsError::StaleHandle)?;
    let (entry, _) = decode(buf, off, u.flags, u.namelen)?;
    match u.prev {
        Some(p) => {
            let p_reclen = get_u16(buf, p) as usize;
            put_u16(buf, p, (p_reclen + u.reclen) as u16);
        }
        None => {
            buf[off + 2] = 0;
            buf[off + 3] = 0;
        }
    }
    Ok(entry)
}

/// True if the block holds no used entries.
pub fn is_empty(buf: &[u8]) -> FsResult<bool> {
    let mut any = false;
    walk(buf, |_, flags, _, _| {
        if flags & FLAG_USED != 0 {
            any = true;
            return false;
        }
        true
    })?;
    Ok(!any)
}

/// Count one chunk walk (see [`walked_chunks`]); nothing outside tests.
#[cfg(not(test))]
fn note_walk() {}

#[cfg(test)]
thread_local! {
    /// Chunks walked on this thread.
    static WALKED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
fn note_walk() {
    WALKED.with(|w| w.set(w.get() + 1));
}

/// Chunk walks made on this thread so far: the work a directory
/// operation does, pinned by the file system's tests.
#[cfg(test)]
pub(crate) fn walked_chunks() -> u64 {
    WALKED.with(std::cell::Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn block() -> Vec<u8> {
        let mut b = vec![0u8; BLOCK_SIZE];
        init_block(&mut b);
        b
    }

    fn inode(size: u64) -> Inode {
        let mut i = Inode::new(FileKind::File);
        i.size = size;
        i.direct[0] = 4242;
        i
    }

    #[test]
    fn fresh_block_is_empty() {
        let b = block();
        assert!(is_empty(&b).unwrap());
        assert!(list(&b).unwrap().is_empty());
    }

    #[test]
    fn embedded_insert_find_read_inode() {
        let mut b = block();
        let ino = inode(777);
        let (off, img) = insert_embedded(&mut b, u8::MAX, "hello.c", FileKind::File, &ino)
            .unwrap()
            .unwrap();
        let e = find(&b, "hello.c").unwrap().unwrap();
        assert_eq!(e.offset, off);
        assert_eq!(e.loc, EntryLoc::Embedded(img));
        assert_eq!(Inode::read_from(&b, img), Some(ino));
    }

    #[test]
    fn embedded_entry_and_inode_share_a_sector() {
        let mut b = block();
        // Fill with entries of varying name lengths; every entry must sit
        // inside one 512-byte chunk.
        for i in 0..40 {
            let name = format!("{}{}", "x".repeat(1 + (i * 7) % 60), i);
            if let Some((off, img)) =
                insert_embedded(&mut b, u8::MAX, &name, FileKind::File, &inode(i as u64)).unwrap()
            {
                let end = img + INODE_SIZE;
                assert_eq!(off / DIRBLKSIZ, (end - 1) / DIRBLKSIZ, "entry '{name}' crosses a sector");
            }
        }
    }

    #[test]
    fn roomy_chunks_masks_and_chunk_restricted_inserts() {
        let mut b = block();
        let need = embedded_len(4);
        assert_eq!(roomy_chunks(&b, need, false).unwrap(), 0xFF);
        assert_eq!(roomy_chunks(&b, need, true).unwrap(), 0x01, "first fit is chunk 0");
        // Three short-named entries fill chunk 0.
        for i in 0..3 {
            let (off, _) = insert_embedded(&mut b, 0x01, &format!("a{i:03}"), FileKind::File, &inode(0))
                .unwrap()
                .unwrap();
            assert_eq!(off / DIRBLKSIZ, 0);
        }
        assert!(insert_embedded(&mut b, 0x01, "full", FileKind::File, &inode(0)).unwrap().is_none());
        assert_eq!(roomy_chunks(&b, need, false).unwrap(), 0xFE);
        assert_eq!(roomy_chunks(&b, need, true).unwrap(), 0x02);
        // A mask picks the chunk: the first of the mask's chunks with room.
        let (off, _) = insert_embedded(&mut b, 0b1010_0001, "b000", FileKind::File, &inode(0))
            .unwrap()
            .unwrap();
        assert_eq!(off, 5 * DIRBLKSIZ);
        let off = insert_external(&mut b, 1 << 7, "c000", 3, FileKind::File).unwrap().unwrap();
        assert_eq!(off, 7 * DIRBLKSIZ);
        assert_eq!(find(&b, "b000").unwrap().map(|e| e.offset), Some(5 * DIRBLKSIZ));
    }

    #[test]
    fn capacity_matches_paper_scale() {
        // Short names: 144-byte entries → 3 per chunk, 24 per 4 KB block.
        let mut b = block();
        let mut n = 0;
        while insert_embedded(&mut b, u8::MAX, &format!("f{n:03}"), FileKind::File, &inode(0))
            .unwrap()
            .is_some()
        {
            n += 1;
        }
        assert_eq!(n, 24);
    }

    #[test]
    fn external_entries_are_compact() {
        let mut b = block();
        let mut n = 0u32;
        while insert_external(&mut b, u8::MAX, &format!("f{n:04}"), n, FileKind::File)
            .unwrap()
            .is_some()
        {
            n += 1;
        }
        // 16-byte entries, 32 per chunk, 256 per block — FFS-like density.
        assert_eq!(n, 256);
    }

    #[test]
    fn mixed_entries_round_trip() {
        let mut b = block();
        insert_embedded(&mut b, u8::MAX, "emb", FileKind::File, &inode(1)).unwrap().unwrap();
        insert_external(&mut b, u8::MAX, "ext", 9, FileKind::Dir).unwrap().unwrap();
        let mut names: Vec<(String, FileKind)> =
            list(&b).unwrap().into_iter().map(|(name, e)| (name, e.kind)).collect();
        names.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(
            names,
            vec![("emb".to_string(), FileKind::File), ("ext".to_string(), FileKind::Dir)]
        );
        assert_eq!(find(&b, "ext").unwrap().unwrap().loc, EntryLoc::External(9));
    }

    #[test]
    fn remove_frees_space() {
        let mut b = block();
        for i in 0..24 {
            insert_embedded(&mut b, u8::MAX, &format!("f{i:03}"), FileKind::File, &inode(0))
                .unwrap()
                .unwrap();
        }
        assert!(insert_embedded(&mut b, u8::MAX, "extra", FileKind::File, &inode(0)).unwrap().is_none());
        let found = find(&b, "f005").unwrap().unwrap();
        assert_eq!(remove(&mut b, "f005").unwrap(), Some(found));
        assert!(find(&b, "f005").unwrap().is_none());
        assert!(insert_embedded(&mut b, u8::MAX, "extra", FileKind::File, &inode(0)).unwrap().is_some());
    }

    #[test]
    fn entry_at_validates_offsets() {
        let mut b = block();
        let (off, img) = insert_embedded(&mut b, u8::MAX, "real", FileKind::File, &inode(5)).unwrap().unwrap();
        let e = entry_at(&b, off).unwrap();
        assert_eq!((e.offset, e.kind, e.loc), (off, FileKind::File, EntryLoc::Embedded(img)));
        assert_eq!(find(&b, "real").unwrap(), Some(e));
        // Mid-entry offsets, offsets past every entry and free records
        // are stale.
        assert_eq!(entry_at(&b, off + 8).unwrap_err(), FsError::StaleHandle);
        assert_eq!(entry_at(&b, BLOCK_SIZE).unwrap_err(), FsError::StaleHandle);
        remove(&mut b, "real").unwrap();
        assert_eq!(entry_at(&b, off).unwrap_err(), FsError::StaleHandle);
    }

    #[test]
    fn entry_at_reports_an_undecodable_name_as_corrupt() {
        let mut b = block();
        let (off, _) = insert_embedded(&mut b, u8::MAX, "real", FileKind::File, &inode(5)).unwrap().unwrap();
        b[off + ENTRY_HEADER] = 0xFF;
        assert!(matches!(entry_at(&b, off), Err(FsError::Corrupt(_))));
        // The same bytes behind a free record are merely stale.
        b[off + 3] = 0;
        assert_eq!(entry_at(&b, off).unwrap_err(), FsError::StaleHandle);
    }

    #[test]
    fn convert_to_external_preserves_name_and_kind() {
        let mut b = block();
        let (off, _) = insert_embedded(&mut b, u8::MAX, "linked", FileKind::File, &inode(3)).unwrap().unwrap();
        convert_to_external(&mut b, off, 42);
        let e = find(&b, "linked").unwrap().unwrap();
        assert_eq!(e.loc, EntryLoc::External(42));
        assert_eq!(e.kind, FileKind::File);
        assert_eq!(e.offset, off);
    }

    #[test]
    fn update_inode_image_in_place() {
        let mut b = block();
        let (_, img) = insert_embedded(&mut b, u8::MAX, "grow", FileKind::File, &inode(0)).unwrap().unwrap();
        let mut ino2 = inode(8192);
        ino2.blocks = 2;
        ino2.write_to(&mut b, img);
        assert_eq!(find(&b, "grow").unwrap().unwrap().loc, EntryLoc::Embedded(img));
        assert_eq!(Inode::read_from(&b, img).unwrap().size, 8192);
    }

    #[test]
    fn corrupt_reclen_detected() {
        let mut b = block();
        insert_external(&mut b, u8::MAX, "x", 1, FileKind::File).unwrap().unwrap();
        put_u16(&mut b, 0, 12); // not a multiple of 8
        assert!(matches!(list(&b), Err(FsError::Corrupt(_))));
    }

    /// The block-wide [`entry_at`] that walked every record from byte 0:
    /// the oracle for the one-chunk walk.
    fn entry_at_oracle(buf: &[u8], off: usize) -> FsResult<CEntry> {
        let mut hit = None;
        walk(buf, |o, flags, namelen, _| {
            if o == off {
                if flags & FLAG_USED != 0 {
                    hit = Some(decode(buf, o, flags, namelen).map(|(e, _)| e));
                }
                return false;
            }
            o < off
        })?;
        hit.unwrap_or(Err(FsError::StaleHandle))
    }

    /// The name-based removal that walked the block looking for `name`:
    /// the oracle for [`remove_at`].
    fn remove_oracle(buf: &mut [u8], name: &str) -> FsResult<Option<CEntry>> {
        let mut target: Option<(usize, Option<usize>, u8, usize, usize)> = None;
        let mut prev: Option<usize> = None;
        walk(buf, |off, flags, namelen, reclen| {
            if off % DIRBLKSIZ == 0 {
                prev = None;
            }
            if named(buf, off, flags, namelen, name) {
                target = Some((off, prev, flags, namelen, reclen));
                return false;
            }
            prev = Some(off);
            true
        })?;
        let Some((off, prev, flags, namelen, reclen)) = target else { return Ok(None) };
        let (entry, _) = decode(buf, off, flags, namelen)?;
        match prev {
            Some(p) => {
                let p_reclen = get_u16(buf, p) as usize;
                put_u16(buf, p, (p_reclen + reclen) as u16);
            }
            None => {
                buf[off + 2] = 0;
                buf[off + 3] = 0;
            }
        }
        Ok(Some(entry))
    }

    /// Remove the entry named `name`, as the file system does: find it,
    /// then remove it at its offset.
    fn remove(buf: &mut [u8], name: &str) -> FsResult<Option<CEntry>> {
        match find(buf, name)? {
            Some(e) => remove_at(buf, e.offset).map(Some),
            None => Ok(None),
        }
    }

    /// A valid block from a random history of inserts (embedded or
    /// external, names of 1 to 60 bytes) and removals.
    fn random_block(ops: &[(bool, usize, usize, bool)]) -> Vec<u8> {
        let mut b = block();
        for &(add, i, len, emb) in ops {
            let name = format!("{}{i}", "n".repeat(len));
            if add {
                if find(&b, &name).unwrap().is_none() {
                    let _ = if emb {
                        insert_embedded(&mut b, u8::MAX, &name, FileKind::File, &inode(i as u64)).unwrap().map(|p| p.0)
                    } else {
                        insert_external(&mut b, u8::MAX, &name, i as u32, FileKind::File).unwrap()
                    };
                }
            } else {
                remove(&mut b, &name).unwrap();
            }
        }
        b
    }

    #[test]
    fn entry_and_removal_at_an_offset_walk_one_chunk() {
        let mut b = block();
        let (off, _) = insert_embedded(&mut b, 1 << 6, "walk", FileKind::File, &inode(1)).unwrap().unwrap();
        let before = walked_chunks();
        entry_at(&b, off).unwrap();
        remove_at(&mut b, off).unwrap();
        assert_eq!(walked_chunks() - before, 2, "one chunk each");
        assert_eq!(remove_at(&mut b, off).unwrap_err(), FsError::StaleHandle);
    }

    proptest! {
        #[test]
        fn chunk_walks_match_the_block_walks(
            ops in proptest::collection::vec((any::<bool>(), 0usize..40, 1usize..60, any::<bool>()), 0..160),
            probe in 0usize..BLOCK_SIZE + 64,
            need_len in 1usize..60,
        ) {
            let b = random_block(&ops);
            prop_assert_eq!(entry_at(&b, probe), entry_at_oracle(&b, probe));
            for (name, e) in list(&b).unwrap() {
                prop_assert_eq!(entry_at(&b, e.offset), entry_at_oracle(&b, e.offset));
                let (mut at, mut by_name) = (b.clone(), b.clone());
                prop_assert_eq!(remove_at(&mut at, e.offset).map(Some), remove_oracle(&mut by_name, &name));
                prop_assert_eq!(at, by_name, "{} removed differently", name);
                prop_assert_eq!(find_room(&b, &name, 8).unwrap().0, Some(e));
            }
            for need in [external_len(need_len), embedded_len(need_len)] {
                prop_assert_eq!(
                    find_room(&b, "absent", need).unwrap(),
                    (None, roomy_chunks(&b, need, false).unwrap())
                );
            }
        }

        #[test]
        fn random_ops_match_model(
            ops in proptest::collection::vec((0u8..3, 0usize..30, any::<bool>()), 0..120)
        ) {
            use std::collections::BTreeMap;
            let mut b = block();
            let mut model: BTreeMap<String, bool> = BTreeMap::new(); // name -> embedded?
            for (op, name_i, emb) in ops {
                let name = format!("n{name_i}");
                match op {
                    0 => {
                        if let std::collections::btree_map::Entry::Vacant(slot) =
                            model.entry(name.clone())
                        {
                            let ok = if emb {
                                insert_embedded(&mut b, u8::MAX, &name, FileKind::File, &inode(1))
                                    .unwrap().is_some()
                            } else {
                                insert_external(&mut b, u8::MAX, &name, 7, FileKind::File)
                                    .unwrap().is_some()
                            };
                            if ok { slot.insert(emb); }
                        }
                    }
                    1 => {
                        let got = remove(&mut b, &name).unwrap().is_some();
                        prop_assert_eq!(got, model.remove(&name).is_some());
                    }
                    _ => {
                        let got = find(&b, &name).unwrap();
                        match model.get(&name) {
                            Some(&emb) => {
                                let e = got.unwrap();
                                prop_assert_eq!(
                                    matches!(e.loc, EntryLoc::Embedded(_)), emb);
                            }
                            None => prop_assert!(got.is_none()),
                        }
                    }
                }
            }
            let listed: Vec<String> = {
                let mut v: Vec<String> =
                    list(&b).unwrap().into_iter().map(|(name, _)| name).collect();
                v.sort();
                v
            };
            let expect: Vec<String> = model.into_keys().collect();
            prop_assert_eq!(listed, expect);
        }
    }
}
