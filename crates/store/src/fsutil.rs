//! Filesystem durability helpers shared by the WAL and snapshot writers.

use std::path::Path;

/// Fsync a directory, making recently created, renamed, or unlinked
/// entries in it durable. POSIX only guarantees that *file contents*
/// survive a crash after `fsync(fd)`; the directory entry that names the
/// file needs its own fsync, or a crash can roll the rename/create/unlink
/// back. The snapshot writer and every WAL segment creation/removal call
/// this afterwards.
///
/// On non-Unix platforms directory handles cannot be synced; rename
/// atomicity is the best available guarantee there.
pub fn sync_dir(dir: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        std::fs::File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

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
