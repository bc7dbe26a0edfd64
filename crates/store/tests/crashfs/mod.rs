//! The crash model of DESIGN.md §9.8, shared by the store's and the
//! engine's crash-state tests (the engine's include this file by path).
//!
//! [`Recorder`] is a [`DurableFs`] that performs every write on the real
//! file system and appends it to an effect log, beside the marks a test
//! adds ([`Effect::Started`], [`Effect::Acked`]). [`crash_states`] rebuilds
//! the directory tree a crash after a prefix of that log can leave:
//!
//! - File data: the bytes written to a file since its last sync form its
//!   unsynced suffix, and a crash keeps a prefix of it. At most one file
//!   has an unsynced suffix at any prefix (checked). The cuts tried are
//!   every byte of each write's first 5 and last 5 bytes — a WAL frame's
//!   length header, first payload byte, last payload byte and CRC — plus
//!   its middle byte.
//! - Directory entries: a create, rename or unlink is durable once a
//!   later sync of its parent directory is in the prefix. Until then the
//!   unsynced operations of one directory persist as a prefix of their
//!   issue order; directories are independent of each other.
//!
//! The model's root is the recorder's root, the parent of the directory
//! under test, so that directory's own entry is modelled too.
#![allow(dead_code)]

use itg_store::{DurableFs, StdFs};
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::hash::{Hash, Hasher};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// One entry of the effect log. Paths are relative to the model's root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    MkDir(PathBuf),
    /// A file opened for writing: created if absent, emptied if `truncate`.
    Open {
        path: PathBuf,
        truncate: bool,
    },
    Write {
        path: PathBuf,
        bytes: Vec<u8>,
    },
    /// `fdatasync` or `fsync`: the file's data is durable.
    Sync(PathBuf),
    SetLen {
        path: PathBuf,
        len: u64,
    },
    Rename {
        from: PathBuf,
        to: PathBuf,
    },
    Unlink(PathBuf),
    SyncDir(PathBuf),
    /// Operation `n` of the history began: its WAL append may be in flight.
    Started(u64),
    /// Operation `n` was acknowledged: its append returned.
    Acked(u64),
}

/// A [`DurableFs`] that writes through [`StdFs`] and logs each effect
/// after it succeeds.
#[derive(Debug)]
pub struct Recorder {
    root: PathBuf,
    log: Mutex<Vec<Effect>>,
}

impl Recorder {
    /// A recorder whose model root is `root`, which must exist and is
    /// taken as durable.
    pub fn new(root: &Path) -> Arc<Recorder> {
        Arc::new(Recorder {
            root: root.to_path_buf(),
            log: Mutex::new(Vec::new()),
        })
    }

    pub fn mark(&self, e: Effect) {
        self.log.lock().unwrap().push(e);
    }

    pub fn log(&self) -> Vec<Effect> {
        self.log.lock().unwrap().clone()
    }

    fn rel(&self, p: &Path) -> PathBuf {
        p.strip_prefix(&self.root)
            .unwrap_or_else(|_| panic!("{} is outside the model root", p.display()))
            .to_path_buf()
    }

    fn record<T>(&self, r: io::Result<T>, e: impl FnOnce() -> Effect) -> io::Result<T> {
        if r.is_ok() {
            self.mark(e());
        }
        r
    }
}

impl DurableFs for Recorder {
    fn create_dir(&self, dir: &Path) -> io::Result<()> {
        self.record(StdFs.create_dir(dir), || Effect::MkDir(self.rel(dir)))
    }
    fn open_append(&self, path: &Path, create_new: bool) -> io::Result<File> {
        let r = StdFs.open_append(path, create_new);
        self.record(r, || Effect::Open {
            path: self.rel(path),
            truncate: false,
        })
    }
    fn create(&self, path: &Path) -> io::Result<File> {
        self.record(StdFs.create(path), || Effect::Open {
            path: self.rel(path),
            truncate: true,
        })
    }
    fn write_all(&self, f: &mut File, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let r = StdFs.write_all(f, path, bytes);
        self.record(r, || Effect::Write {
            path: self.rel(path),
            bytes: bytes.to_vec(),
        })
    }
    fn fdatasync(&self, f: &File, path: &Path) -> io::Result<()> {
        self.record(StdFs.fdatasync(f, path), || Effect::Sync(self.rel(path)))
    }
    fn fsync(&self, f: &File, path: &Path) -> io::Result<()> {
        self.record(StdFs.fsync(f, path), || Effect::Sync(self.rel(path)))
    }
    fn ftruncate(&self, f: &File, path: &Path, len: u64) -> io::Result<()> {
        let r = StdFs.ftruncate(f, path, len);
        self.record(r, || Effect::SetLen {
            path: self.rel(path),
            len,
        })
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let r = StdFs.rename(from, to);
        self.record(r, || Effect::Rename {
            from: self.rel(from),
            to: self.rel(to),
        })
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.record(StdFs.remove_file(path), || Effect::Unlink(self.rel(path)))
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.record(StdFs.sync_dir(dir), || Effect::SyncDir(self.rel(dir)))
    }
}

/// A directory tree below the model root: every path, with `None` for a
/// directory and the bytes of a file. Parents sort before children.
pub type State = BTreeMap<PathBuf, Option<Vec<u8>>>;

/// A stable fingerprint of a state, for checking equal states once.
pub fn fingerprint(state: &State) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    state.hash(&mut h);
    h.finish()
}

/// Write `state` out as a fresh tree at `at`.
pub fn materialize(state: &State, at: &Path) {
    let _ = std::fs::remove_dir_all(at);
    std::fs::create_dir_all(at).unwrap();
    for (path, node) in state {
        match node {
            None => std::fs::create_dir(at.join(path)).unwrap(),
            Some(bytes) => std::fs::write(at.join(path), bytes).unwrap(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    Dir,
    File(usize),
}

#[derive(Debug, Clone)]
enum DirOp {
    Link(PathBuf, Node),
    Rename(PathBuf, PathBuf),
    Unlink(PathBuf),
}

/// One directory's entry operations, the first `synced` of them durable.
#[derive(Debug, Default)]
struct DirLog {
    ops: Vec<DirOp>,
    synced: usize,
}

/// A file's contents: `durable` as of its last sync, `current` as
/// written. `cuts` are the crash lengths to try when `current` extends
/// `durable`; a truncation since the sync leaves just the two ends.
#[derive(Debug, Default)]
struct Inode {
    durable: Vec<u8>,
    current: Vec<u8>,
    cuts: BTreeSet<usize>,
    truncated: bool,
}

impl Inode {
    fn dirty(&self) -> bool {
        self.current != self.durable
    }

    /// The contents a crash can leave.
    fn crash_contents(&self) -> Vec<Vec<u8>> {
        if !self.dirty() {
            return vec![self.current.clone()];
        }
        if self.truncated || !self.current.starts_with(&self.durable) {
            return vec![self.current.clone(), self.durable.clone()];
        }
        let mut cuts: Vec<usize> = self.cuts.iter().rev().copied().collect();
        cuts.retain(|&c| c >= self.durable.len() && c <= self.current.len());
        cuts.into_iter()
            .map(|c| self.current[..c].to_vec())
            .collect()
    }
}

#[derive(Debug, Default)]
struct Model {
    /// The namespace with every operation applied: what the process sees.
    live: BTreeMap<PathBuf, Node>,
    dirs: BTreeMap<PathBuf, DirLog>,
    inodes: Vec<Inode>,
}

fn parent(p: &Path) -> PathBuf {
    p.parent().map_or_else(PathBuf::new, Path::to_path_buf)
}

impl Model {
    fn dir_op(&mut self, dir: PathBuf, op: DirOp) {
        self.dirs.entry(dir).or_default().ops.push(op);
    }

    fn inode(&mut self, path: &Path) -> &mut Inode {
        match self.live.get(path) {
            Some(Node::File(i)) => &mut self.inodes[*i],
            other => panic!("{} is not a live file: {other:?}", path.display()),
        }
    }

    fn apply(&mut self, e: &Effect) {
        match e {
            Effect::MkDir(p) => {
                self.live.insert(p.clone(), Node::Dir);
                self.dir_op(parent(p), DirOp::Link(p.clone(), Node::Dir));
            }
            Effect::Open { path, truncate } => {
                if self.live.contains_key(path) {
                    if *truncate {
                        let inode = self.inode(path);
                        inode.current.clear();
                        inode.truncated = true;
                    }
                } else {
                    let node = Node::File(self.inodes.len());
                    self.inodes.push(Inode::default());
                    self.live.insert(path.clone(), node);
                    self.dir_op(parent(path), DirOp::Link(path.clone(), node));
                }
            }
            Effect::Write { path, bytes } => {
                let inode = self.inode(path);
                let (s, n) = (inode.current.len(), bytes.len());
                inode.current.extend_from_slice(bytes);
                let tried = (0..=5)
                    .chain([n / 2])
                    .chain((0..=5).map(|k| n.saturating_sub(k)));
                inode.cuts.extend(tried.filter(|&c| c <= n).map(|c| s + c));
            }
            Effect::Sync(path) => {
                let inode = self.inode(path);
                inode.durable = inode.current.clone();
                inode.cuts.clear();
                inode.truncated = false;
            }
            Effect::SetLen { path, len } => {
                let inode = self.inode(path);
                inode.current.resize(*len as usize, 0);
                inode.truncated = true;
            }
            Effect::Rename { from, to } => {
                assert_eq!(parent(from), parent(to), "renames stay in one directory");
                let node = self.live.remove(from).expect("rename of a live name");
                self.live.insert(to.clone(), node);
                self.dir_op(parent(to), DirOp::Rename(from.clone(), to.clone()));
            }
            Effect::Unlink(p) => {
                self.live.remove(p).expect("unlink of a live name");
                self.dir_op(parent(p), DirOp::Unlink(p.clone()));
            }
            Effect::SyncDir(d) => {
                let log = self.dirs.entry(d.clone()).or_default();
                log.synced = log.ops.len();
            }
            Effect::Started(_) | Effect::Acked(_) => {}
        }
    }

    /// The one file with an unsynced suffix, if any.
    fn dirty_inode(&self) -> Option<usize> {
        let dirty: BTreeSet<usize> = self
            .live
            .values()
            .filter_map(|n| match n {
                Node::File(i) if self.inodes[*i].dirty() => Some(*i),
                _ => None,
            })
            .collect();
        assert!(
            dirty.len() <= 1,
            "{} files hold unsynced data at once",
            dirty.len()
        );
        dirty.into_iter().next()
    }

    /// Every state a crash now can leave; the first keeps everything.
    fn crash_states(&self) -> Vec<State> {
        let dirty = self.dirty_inode();
        let contents = dirty.map_or_else(|| vec![Vec::new()], |i| self.inodes[i].crash_contents());
        // One choice per directory with unsynced operations: how many of
        // them persist, most first.
        let open: Vec<(&PathBuf, &DirLog)> = self
            .dirs
            .iter()
            .filter(|(_, l)| l.ops.len() > l.synced)
            .collect();
        let mut choices: Vec<Vec<usize>> = vec![Vec::new()];
        for (_, log) in &open {
            choices = choices
                .into_iter()
                .flat_map(|c| {
                    (log.synced..=log.ops.len()).rev().map(move |kept| {
                        let mut c = c.clone();
                        c.push(kept);
                        c
                    })
                })
                .collect();
        }
        let mut out = Vec::new();
        for choice in &choices {
            // Each directory's persisted entries, replayed in issue order.
            let mut entries: BTreeMap<PathBuf, Node> = BTreeMap::new();
            for (dir, log) in &self.dirs {
                let kept = open
                    .iter()
                    .position(|(d, _)| *d == dir)
                    .map_or(log.ops.len(), |k| choice[k]);
                for op in &log.ops[..kept] {
                    match op {
                        DirOp::Link(p, n) => {
                            entries.insert(p.clone(), *n);
                        }
                        DirOp::Rename(from, to) => {
                            if let Some(n) = entries.remove(from) {
                                entries.insert(to.clone(), n);
                            }
                        }
                        DirOp::Unlink(p) => {
                            entries.remove(p);
                        }
                    }
                }
            }
            for bytes in &contents {
                let mut state = State::new();
                for (path, node) in &entries {
                    // An entry counts only if its whole chain of
                    // directories persisted.
                    let reachable = path
                        .ancestors()
                        .skip(1)
                        .filter(|a| !a.as_os_str().is_empty())
                        .all(|a| entries.get(a) == Some(&Node::Dir));
                    if !reachable {
                        continue;
                    }
                    let data = match node {
                        Node::Dir => None,
                        Node::File(i) if Some(*i) == dirty => Some(bytes.clone()),
                        Node::File(i) => Some(self.inodes[*i].current.clone()),
                    };
                    state.insert(path.clone(), data);
                }
                out.push(state);
            }
        }
        out
    }
}

/// Every state a crash after all of `log` can leave; the first keeps
/// every effect.
pub fn states_after(log: &[Effect]) -> Vec<State> {
    let mut model = Model::default();
    log.iter().for_each(|e| model.apply(e));
    model.crash_states()
}

/// Call `visit(k, states)` for every prefix length `k` of `log`, `0..=len`,
/// with every state a crash after `log[..k]` can leave; `states[0]` keeps
/// every effect. Panics if a prefix leaves two files with unsynced data.
pub fn crash_states(log: &[Effect], mut visit: impl FnMut(usize, &[State])) {
    let mut model = Model::default();
    visit(0, &model.crash_states());
    for (k, e) in log.iter().enumerate() {
        model.apply(e);
        visit(k + 1, &model.crash_states());
    }
}

/// The marks in `log`: `(acked, started)` — how many operations were
/// acknowledged, and how many had begun.
pub fn marks(log: &[Effect]) -> (u64, u64) {
    log.iter().fold((0, 0), |(a, s), e| match e {
        Effect::Acked(_) => (a + 1, s),
        Effect::Started(_) => (a, s + 1),
        _ => (a, s),
    })
}

/// A fresh, empty directory under the system temp dir for `tag`.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("itg-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
