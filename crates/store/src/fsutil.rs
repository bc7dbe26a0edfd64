//! The durable-write seam and the directory helpers shared by the WAL and
//! snapshot writers.

use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::Path;

/// Every durable write the WAL and the snapshot writer issue goes through
/// this trait; reads stay on `std::fs`. Each provided method is the
/// production behaviour, one `std::fs` call, and [`StdFs`] takes them all.
/// The crash-state tests override every method to record the effect log of
/// a history, then rebuild the directory after every prefix of it under
/// the crash model of DESIGN.md §9.8.
///
/// The per-file methods take the file's path beside the handle so an
/// implementation can tell files apart.
pub trait DurableFs: Send + Sync + std::fmt::Debug {
    /// Create one directory; its parent must exist.
    fn create_dir(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir(dir)
    }

    /// Open `path` for appending, creating it if absent (`create_new`:
    /// fail if it exists).
    fn open_append(&self, path: &Path, create_new: bool) -> io::Result<File> {
        let mut opts = OpenOptions::new();
        opts.append(true).create(true).create_new(create_new);
        opts.open(path)
    }

    /// Create `path`, or truncate it if it exists, for writing.
    fn create(&self, path: &Path) -> io::Result<File> {
        File::create(path)
    }

    fn write_all(&self, file: &mut File, _path: &Path, bytes: &[u8]) -> io::Result<()> {
        file.write_all(bytes)
    }

    /// `File::sync_data`: the file's data is durable.
    fn fdatasync(&self, file: &File, _path: &Path) -> io::Result<()> {
        file.sync_data()
    }

    /// `File::sync_all`: the file's data and metadata are durable.
    fn fsync(&self, file: &File, _path: &Path) -> io::Result<()> {
        file.sync_all()
    }

    fn ftruncate(&self, file: &File, _path: &Path, len: u64) -> io::Result<()> {
        file.set_len(len)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    /// Fsync a directory, making recently created, renamed, or unlinked
    /// entries in it durable. POSIX only guarantees that *file contents*
    /// survive a crash after `fsync(fd)`; the directory entry that names
    /// the file needs its own fsync, or a crash can roll the
    /// rename/create/unlink back. On non-Unix platforms directory handles
    /// cannot be synced; rename atomicity is the best available guarantee
    /// there.
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        if cfg!(unix) {
            File::open(dir)?.sync_all()
        } else {
            Ok(())
        }
    }

    /// Create `dir` and every missing ancestor, fsyncing the parent of each
    /// one created: a new directory's own entry is a create like any other,
    /// and without it a crash can take the whole directory away.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        if dir.as_os_str().is_empty() || dir.is_dir() {
            return Ok(());
        }
        let parent = match dir.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        self.create_dir_all(parent)?;
        self.create_dir(dir)?;
        self.sync_dir(parent)
    }
}

/// The production [`DurableFs`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StdFs;

impl DurableFs for StdFs {}

/// The names in `dir` that `parse` accepts, parsed, in directory order:
/// the one directory reader behind WAL segments and snapshots, whose names
/// carry everything their readers need. An absent directory is empty.
pub(crate) fn read_names<T>(
    dir: &Path,
    mut parse: impl FnMut(&str) -> Option<T>,
) -> std::io::Result<Vec<T>> {
    let listing = match std::fs::read_dir(dir) {
        Ok(listing) => listing,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut out = Vec::new();
    for entry in listing {
        out.extend(entry?.file_name().to_str().and_then(&mut parse));
    }
    Ok(out)
}

/// Parse one number of a durability file name (`wal-<start_lsn>.log`,
/// `snapshot-<epoch>-<wal_start>.bin`): it must print back as the same
/// 20 digits, so lexicographic order is numeric order and every name has
/// one spelling.
pub(crate) fn parse_name_number(digits: &str) -> Option<u64> {
    digits.parse().ok().filter(|n| format!("{n:020}") == digits)
}
