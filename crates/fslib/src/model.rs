//! `ModelFs`: the in-memory reference file system.
//!
//! A deliberately boring HashMap-of-Vec implementation of the
//! [`FileSystem`] trait. It performs no I/O, charges no time, and is simple
//! enough to be obviously correct — which is exactly what the property
//! tests need: every on-disk implementation is driven with the same random
//! operation sequence and must end in the same logical state as `ModelFs`.
//!
//! All state sits behind one mutex, taken once per operation: no sharding,
//! no parallelism, but the model is `Sync`, so threaded workloads and the
//! path helpers' race tests have an oracle that drags in no disk stack.

use crate::error::{check_name, FsError, FsResult};
use crate::vfs::{Attr, DirEntry, FileKind, FileSystem, Ino, IoStats, StatFs};
use cffs_disksim::SimTime;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, MutexGuard};

#[derive(Debug)]
enum Node {
    File { data: Vec<u8>, nlink: u32 },
    Dir { entries: BTreeMap<String, Ino> },
}

/// In-memory oracle file system.
#[derive(Debug)]
pub struct ModelFs(Mutex<State>);

#[derive(Debug)]
struct State {
    nodes: HashMap<Ino, Node>,
    next_ino: Ino,
}

const ROOT: Ino = 1;

impl ModelFs {
    /// Create an empty file system with just a root directory.
    pub fn new() -> Self {
        let mut nodes = HashMap::new();
        nodes.insert(ROOT, Node::Dir { entries: BTreeMap::new() });
        ModelFs(Mutex::new(State { nodes, next_ino: 2 }))
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.0.lock().expect("a thread panicked inside a model operation")
    }
}

impl State {
    fn dir_entries(&self, dir: Ino) -> FsResult<&BTreeMap<String, Ino>> {
        match self.nodes.get(&dir) {
            Some(Node::Dir { entries }) => Ok(entries),
            Some(Node::File { .. }) => Err(FsError::NotDir),
            None => Err(FsError::StaleHandle),
        }
    }

    fn dir_entries_mut(&mut self, dir: Ino) -> FsResult<&mut BTreeMap<String, Ino>> {
        match self.nodes.get_mut(&dir) {
            Some(Node::Dir { entries }) => Ok(entries),
            Some(Node::File { .. }) => Err(FsError::NotDir),
            None => Err(FsError::StaleHandle),
        }
    }

    fn alloc_ino(&mut self) -> Ino {
        let ino = self.next_ino;
        self.next_ino += 1;
        ino
    }

    fn drop_link(&mut self, ino: Ino) {
        let gone = match self.nodes.get_mut(&ino) {
            Some(Node::File { nlink, .. }) => {
                *nlink -= 1;
                *nlink == 0
            }
            _ => true,
        };
        if gone {
            self.nodes.remove(&ino);
        }
    }
}

impl Default for ModelFs {
    fn default() -> Self {
        Self::new()
    }
}

impl FileSystem for ModelFs {
    fn label(&self) -> &str {
        "model"
    }

    fn root(&self) -> Ino {
        ROOT
    }

    fn lookup(&self, dir: Ino, name: &str) -> FsResult<Ino> {
        let m = self.lock();
        check_name(name)?;
        m.dir_entries(dir)?.get(name).copied().ok_or(FsError::NotFound)
    }

    fn getattr(&self, ino: Ino) -> FsResult<Attr> {
        let m = self.lock();
        match m.nodes.get(&ino) {
            Some(Node::File { data, nlink }) => Ok(Attr {
                ino,
                kind: FileKind::File,
                size: data.len() as u64,
                nlink: *nlink,
                blocks: (data.len() as u64).div_ceil(crate::BLOCK_SIZE as u64),
            }),
            Some(Node::Dir { entries }) => Ok(Attr {
                ino,
                kind: FileKind::Dir,
                size: entries.len() as u64 * 16,
                nlink: 2 + entries
                    .values()
                    .filter(|i| matches!(m.nodes.get(i), Some(Node::Dir { .. })))
                    .count() as u32,
                blocks: 1,
            }),
            None => Err(FsError::StaleHandle),
        }
    }

    fn create(&self, dir: Ino, name: &str) -> FsResult<Ino> {
        let mut m = self.lock();
        check_name(name)?;
        if m.dir_entries(dir)?.contains_key(name) {
            return Err(FsError::Exists);
        }
        let ino = m.alloc_ino();
        m.nodes.insert(ino, Node::File { data: Vec::new(), nlink: 1 });
        m.dir_entries_mut(dir)?.insert(name.to_string(), ino);
        Ok(ino)
    }

    fn mkdir(&self, dir: Ino, name: &str) -> FsResult<Ino> {
        let mut m = self.lock();
        check_name(name)?;
        if m.dir_entries(dir)?.contains_key(name) {
            return Err(FsError::Exists);
        }
        let ino = m.alloc_ino();
        m.nodes.insert(ino, Node::Dir { entries: BTreeMap::new() });
        m.dir_entries_mut(dir)?.insert(name.to_string(), ino);
        Ok(ino)
    }

    fn unlink(&self, dir: Ino, name: &str) -> FsResult<()> {
        let mut m = self.lock();
        check_name(name)?;
        let &ino = m.dir_entries(dir)?.get(name).ok_or(FsError::NotFound)?;
        if matches!(m.nodes.get(&ino), Some(Node::Dir { .. })) {
            return Err(FsError::IsDir);
        }
        m.dir_entries_mut(dir)?.remove(name);
        m.drop_link(ino);
        Ok(())
    }

    fn rmdir(&self, dir: Ino, name: &str) -> FsResult<()> {
        let mut m = self.lock();
        check_name(name)?;
        let &ino = m.dir_entries(dir)?.get(name).ok_or(FsError::NotFound)?;
        match m.nodes.get(&ino) {
            Some(Node::Dir { entries }) if entries.is_empty() => {}
            Some(Node::Dir { .. }) => return Err(FsError::DirNotEmpty),
            _ => return Err(FsError::NotDir),
        }
        m.dir_entries_mut(dir)?.remove(name);
        m.nodes.remove(&ino);
        Ok(())
    }

    fn link(&self, target: Ino, dir: Ino, name: &str) -> FsResult<Ino> {
        let mut m = self.lock();
        check_name(name)?;
        match m.nodes.get(&target) {
            Some(Node::File { .. }) => {}
            Some(Node::Dir { .. }) => return Err(FsError::IsDir),
            None => return Err(FsError::StaleHandle),
        }
        if m.dir_entries(dir)?.contains_key(name) {
            return Err(FsError::Exists);
        }
        if let Some(Node::File { nlink, .. }) = m.nodes.get_mut(&target) {
            *nlink += 1;
        }
        m.dir_entries_mut(dir)?.insert(name.to_string(), target);
        Ok(target)
    }

    fn rename(&self, odir: Ino, oname: &str, ndir: Ino, nname: &str) -> FsResult<Ino> {
        let mut m = self.lock();
        check_name(oname)?;
        check_name(nname)?;
        let &ino = m.dir_entries(odir)?.get(oname).ok_or(FsError::NotFound)?;
        if odir == ndir && oname == nname {
            return Ok(ino);
        }
        let moving_dir = matches!(m.nodes.get(&ino), Some(Node::Dir { .. }));
        // Replacement semantics.
        if let Some(&existing) = m.dir_entries(ndir)?.get(nname) {
            if existing == ino {
                // Same object under both names (hard links): drop the old name.
                m.dir_entries_mut(odir)?.remove(oname);
                m.drop_link(ino);
                return Ok(ino);
            }
            match m.nodes.get(&existing) {
                Some(Node::Dir { entries }) => {
                    if !moving_dir {
                        return Err(FsError::IsDir);
                    }
                    if !entries.is_empty() {
                        return Err(FsError::DirNotEmpty);
                    }
                    m.nodes.remove(&existing);
                    m.dir_entries_mut(ndir)?.remove(nname);
                }
                Some(Node::File { .. }) => {
                    if moving_dir {
                        return Err(FsError::NotDir);
                    }
                    m.dir_entries_mut(ndir)?.remove(nname);
                    m.drop_link(existing);
                }
                None => return Err(FsError::StaleHandle),
            }
        }
        m.dir_entries_mut(odir)?.remove(oname);
        m.dir_entries_mut(ndir)?.insert(nname.to_string(), ino);
        Ok(ino)
    }

    fn read(&self, ino: Ino, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        let m = self.lock();
        match m.nodes.get(&ino) {
            Some(Node::File { data, .. }) => {
                let off = off as usize;
                if off >= data.len() {
                    return Ok(0);
                }
                let n = buf.len().min(data.len() - off);
                buf[..n].copy_from_slice(&data[off..off + n]);
                Ok(n)
            }
            Some(Node::Dir { .. }) => Err(FsError::IsDir),
            None => Err(FsError::StaleHandle),
        }
    }

    fn write(&self, ino: Ino, off: u64, data_in: &[u8]) -> FsResult<usize> {
        // An empty write changes nothing, not even the size: the on-disk
        // file systems return before looking at the inode.
        if data_in.is_empty() {
            return Ok(0);
        }
        let mut m = self.lock();
        match m.nodes.get_mut(&ino) {
            Some(Node::File { data, .. }) => {
                let off = off as usize;
                if off + data_in.len() > data.len() {
                    data.resize(off + data_in.len(), 0);
                }
                data[off..off + data_in.len()].copy_from_slice(data_in);
                Ok(data_in.len())
            }
            Some(Node::Dir { .. }) => Err(FsError::IsDir),
            None => Err(FsError::StaleHandle),
        }
    }

    fn truncate(&self, ino: Ino, size: u64) -> FsResult<()> {
        let mut m = self.lock();
        match m.nodes.get_mut(&ino) {
            Some(Node::File { data, .. }) => {
                data.resize(size as usize, 0);
                Ok(())
            }
            Some(Node::Dir { .. }) => Err(FsError::IsDir),
            None => Err(FsError::StaleHandle),
        }
    }

    fn readdir(&self, dir: Ino) -> FsResult<Vec<DirEntry>> {
        let m = self.lock();
        let entries = m.dir_entries(dir)?.clone();
        Ok(entries
            .into_iter()
            .map(|(name, ino)| {
                let kind = match m.nodes.get(&ino) {
                    Some(Node::Dir { .. }) => FileKind::Dir,
                    _ => FileKind::File,
                };
                DirEntry { name, ino, kind }
            })
            .collect())
    }

    fn sync(&self) -> FsResult<()> {
        Ok(())
    }

    fn statfs(&self) -> FsResult<StatFs> {
        Ok(StatFs {
            block_size: crate::BLOCK_SIZE as u32,
            total_blocks: u64::MAX,
            free_blocks: u64::MAX,
            group_slack_blocks: 0,
            total_inodes: u64::MAX,
            free_inodes: u64::MAX,
        })
    }

    fn now(&self) -> SimTime {
        SimTime::ZERO
    }

    fn io_stats(&self) -> IoStats {
        IoStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_lookup_read_write() {
        let fs = ModelFs::new();
        let root = fs.root();
        let f = fs.create(root, "a.txt").unwrap();
        assert_eq!(fs.lookup(root, "a.txt").unwrap(), f);
        fs.write(f, 0, b"hello").unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(fs.read(f, 0, &mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"hello");
        assert_eq!(fs.getattr(f).unwrap().size, 5);
    }

    #[test]
    fn sparse_write_zero_fills() {
        let fs = ModelFs::new();
        let f = fs.create(1, "s").unwrap();
        fs.write(f, 100, b"x").unwrap();
        let mut buf = [9u8; 101];
        assert_eq!(fs.read(f, 0, &mut buf).unwrap(), 101);
        assert!(buf[..100].iter().all(|&b| b == 0));
        assert_eq!(buf[100], b'x');
    }

    #[test]
    fn duplicate_create_fails() {
        let fs = ModelFs::new();
        fs.create(1, "x").unwrap();
        assert_eq!(fs.create(1, "x"), Err(FsError::Exists));
        assert_eq!(fs.mkdir(1, "x"), Err(FsError::Exists));
    }

    #[test]
    fn unlink_dir_fails_rmdir_file_fails() {
        let fs = ModelFs::new();
        let _d = fs.mkdir(1, "d").unwrap();
        let _f = fs.create(1, "f").unwrap();
        assert_eq!(fs.unlink(1, "d"), Err(FsError::IsDir));
        assert_eq!(fs.rmdir(1, "f"), Err(FsError::NotDir));
    }

    #[test]
    fn rmdir_nonempty_fails() {
        let fs = ModelFs::new();
        let d = fs.mkdir(1, "d").unwrap();
        fs.create(d, "f").unwrap();
        assert_eq!(fs.rmdir(1, "d"), Err(FsError::DirNotEmpty));
        fs.unlink(d, "f").unwrap();
        fs.rmdir(1, "d").unwrap();
    }

    #[test]
    fn hard_links_share_data() {
        let fs = ModelFs::new();
        let f = fs.create(1, "a").unwrap();
        fs.write(f, 0, b"shared").unwrap();
        let f2 = fs.link(f, 1, "b").unwrap();
        assert_eq!(f2, f);
        assert_eq!(fs.getattr(f).unwrap().nlink, 2);
        fs.unlink(1, "a").unwrap();
        let mut buf = [0u8; 6];
        assert_eq!(fs.read(f, 0, &mut buf).unwrap(), 6);
        assert_eq!(&buf, b"shared");
        fs.unlink(1, "b").unwrap();
        assert_eq!(fs.getattr(f), Err(FsError::StaleHandle));
    }

    #[test]
    fn rename_replaces_file() {
        let fs = ModelFs::new();
        let a = fs.create(1, "a").unwrap();
        fs.write(a, 0, b"A").unwrap();
        let b = fs.create(1, "b").unwrap();
        fs.write(b, 0, b"B").unwrap();
        let moved = fs.rename(1, "a", 1, "b").unwrap();
        assert_eq!(moved, a);
        assert_eq!(fs.lookup(1, "a"), Err(FsError::NotFound));
        assert_eq!(fs.lookup(1, "b").unwrap(), a);
        assert_eq!(fs.getattr(b), Err(FsError::StaleHandle));
    }

    #[test]
    fn rename_dir_over_nonempty_dir_fails() {
        let fs = ModelFs::new();
        fs.mkdir(1, "src").unwrap();
        let dst = fs.mkdir(1, "dst").unwrap();
        fs.create(dst, "占").unwrap();
        assert_eq!(fs.rename(1, "src", 1, "dst"), Err(FsError::DirNotEmpty));
    }

    #[test]
    fn rename_same_name_is_noop() {
        let fs = ModelFs::new();
        let f = fs.create(1, "a").unwrap();
        assert_eq!(fs.rename(1, "a", 1, "a").unwrap(), f);
        assert_eq!(fs.lookup(1, "a").unwrap(), f);
    }

    #[test]
    fn rename_hardlink_onto_itself_drops_old_name() {
        let fs = ModelFs::new();
        let f = fs.create(1, "a").unwrap();
        fs.link(f, 1, "b").unwrap();
        fs.rename(1, "a", 1, "b").unwrap();
        assert_eq!(fs.lookup(1, "a"), Err(FsError::NotFound));
        assert_eq!(fs.getattr(f).unwrap().nlink, 1);
    }

    #[test]
    fn truncate_grows_and_shrinks() {
        let fs = ModelFs::new();
        let f = fs.create(1, "t").unwrap();
        fs.write(f, 0, b"abcdef").unwrap();
        fs.truncate(f, 3).unwrap();
        assert_eq!(fs.getattr(f).unwrap().size, 3);
        fs.truncate(f, 10).unwrap();
        let mut buf = [0xFFu8; 10];
        fs.read(f, 0, &mut buf).unwrap();
        assert_eq!(&buf[..3], b"abc");
        assert!(buf[3..].iter().all(|&b| b == 0));
    }

    #[test]
    fn empty_write_past_eof_keeps_size() {
        let fs = ModelFs::new();
        let f = fs.create(1, "e").unwrap();
        fs.write(f, 0, b"ab").unwrap();
        assert_eq!(fs.write(f, 9000, b""), Ok(0));
        assert_eq!(fs.getattr(f).unwrap().size, 2);
    }

    #[test]
    fn readdir_sorted_and_complete() {
        let fs = ModelFs::new();
        fs.create(1, "zz").unwrap();
        fs.mkdir(1, "aa").unwrap();
        let names: Vec<String> = fs.readdir(1).unwrap().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["aa", "zz"]);
    }
}
