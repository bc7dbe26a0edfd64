//! The snapshot inventory of a durability directory (DESIGN.md §9.4).
//!
//! There is no manifest file. A snapshot's name carries everything
//! recovery needs — `snapshot-<epoch>-<wal_start>.bin` for a full image,
//! `snapshot-<epoch>-<wal_start>.delta.bin` for a [`crate::delta`]
//! document against epoch `epoch − 1` — just as a WAL segment's name
//! carries its start LSN, so [`Manifest`] is a view derived from one
//! `read_dir`. The rename inside [`crate::snapshot::write_file`] is the
//! checkpoint commit point: a snapshot has its final name only once its
//! bytes are durable, and a torn write leaves a `.tmp` the view ignores.

use crate::fsutil::{parse_name_number, read_names};
use crate::snapshot::SnapshotError;
use std::path::Path;

/// The snapshot list of the earlier JSON layout. A directory that still
/// holds one is refused by name: there is no migration.
const LEGACY_MANIFEST: &str = "manifest.json";

/// How a snapshot file encodes the state image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotKind {
    /// The file holds the complete state image.
    Full,
    /// The file holds a [`crate::delta`] document against the image of
    /// `base_epoch`, which a name always spells as the previous epoch;
    /// recovery composes the chain back to a full snapshot.
    Delta { base_epoch: u64 },
}

/// One snapshot file, as its name spells it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// Monotonic snapshot epoch (0 is written at session creation).
    pub epoch: u64,
    /// Snapshot file name, relative to the durability directory.
    pub file: String,
    /// First WAL LSN *not* covered by this snapshot: recovery replays
    /// records with `lsn >= wal_start`.
    pub wal_start: u64,
    /// Full image or delta against the previous epoch.
    pub kind: SnapshotKind,
}

/// Every snapshot in a durability directory, oldest first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    pub snapshots: Vec<SnapshotEntry>,
}

/// The file name of a snapshot. Zero-padded like
/// [`crate::wal::segment_file_name`], so every snapshot has one spelling.
pub fn snapshot_file_name(epoch: u64, wal_start: u64, kind: SnapshotKind) -> String {
    let ext = if kind == SnapshotKind::Full { "bin" } else { "delta.bin" };
    format!("snapshot-{epoch:020}-{wal_start:020}.{ext}")
}

/// Inverse of [`snapshot_file_name`]; `None` for every other name,
/// including a delta at epoch 0, which has no base.
fn parse_snapshot_name(name: &str) -> Option<SnapshotEntry> {
    let rest = name.strip_prefix("snapshot-")?;
    let (numbers, delta) = match rest.strip_suffix(".delta.bin") {
        Some(numbers) => (numbers, true),
        None => (rest.strip_suffix(".bin")?, false),
    };
    let (epoch, wal_start) = numbers.split_once('-')?;
    let (epoch, wal_start) = (parse_name_number(epoch)?, parse_name_number(wal_start)?);
    let kind = match delta {
        true => SnapshotKind::Delta { base_epoch: epoch.checked_sub(1)? },
        false => SnapshotKind::Full,
    };
    let file = name.to_string();
    Some(SnapshotEntry { epoch, file, wal_start, kind })
}

impl Manifest {
    /// The most recent snapshot, if any.
    pub fn latest(&self) -> Option<&SnapshotEntry> {
        self.snapshots.last()
    }

    /// The epoch the next checkpoint should use.
    pub fn next_epoch(&self) -> u64 {
        self.latest().map_or(0, |s| s.epoch + 1)
    }

    /// The snapshot of `epoch`, if there is one.
    pub fn entry(&self, epoch: u64) -> Option<&SnapshotEntry> {
        let i = self.snapshots.binary_search_by_key(&epoch, |s| s.epoch).ok()?;
        Some(&self.snapshots[i])
    }

    /// The snapshot chain needed to materialize `epoch`: a full snapshot
    /// first, then every delta in application order, ending at `epoch`.
    pub fn chain_for(&self, epoch: u64) -> Result<Vec<&SnapshotEntry>, SnapshotError> {
        let mut chain = Vec::new();
        let mut at = epoch;
        loop {
            let missing = |missing| SnapshotError::MissingLink { epoch, missing };
            let entry = self.entry(at).ok_or(missing(at))?;
            chain.push(entry);
            match entry.kind {
                SnapshotKind::Full => break,
                SnapshotKind::Delta { base_epoch } if base_epoch < at => at = base_epoch,
                // Only a hand-built entry names a base that does not
                // precede it; nothing older links to it.
                SnapshotKind::Delta { base_epoch } => return Err(missing(base_epoch)),
            }
        }
        chain.reverse();
        Ok(chain)
    }

    /// The snapshots in `dir`, read from their names: anything else — WAL
    /// segments, `.tmp` files of interrupted writes, unrelated files — is
    /// ignored. An absent directory holds no snapshots.
    pub fn load(dir: &Path) -> Result<Manifest, SnapshotError> {
        let legacy = dir.join(LEGACY_MANIFEST);
        if legacy.exists() {
            return Err(SnapshotError::LegacyManifest(legacy));
        }
        let mut snapshots = read_names(dir, parse_snapshot_name)?;
        snapshots.sort_by(|a, b| (a.epoch, &a.file).cmp(&(b.epoch, &b.file)));
        if let Some(pair) = snapshots.windows(2).find(|p| p[0].epoch == p[1].epoch) {
            let files = [pair[0].file.clone(), pair[1].file.clone()];
            return Err(SnapshotError::DuplicateEpoch { epoch: pair[0].epoch, files });
        }
        Ok(Manifest { snapshots })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::segment_file_name;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn entry(epoch: u64, wal_start: u64, delta: bool) -> SnapshotEntry {
        let kind = if delta { SnapshotKind::Delta { base_epoch: epoch - 1 } } else { SnapshotKind::Full };
        let file = snapshot_file_name(epoch, wal_start, kind);
        SnapshotEntry { epoch, file, wal_start, kind }
    }

    /// Load a fresh directory holding one empty file per name.
    fn load_names(tag: &str, names: &[String]) -> Result<Manifest, SnapshotError> {
        let dir = std::env::temp_dir().join(format!("itg-manifest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for name in names {
            std::fs::write(dir.join(name), b"").unwrap();
        }
        let loaded = Manifest::load(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        loaded
    }

    #[test]
    fn snapshot_names_roundtrip() {
        let name = "snapshot-00000000000000000001-00000000000000000007.delta.bin";
        assert_eq!(entry(1, 7, true).file, name);
        for e in [entry(0, 0, false), entry(u64::MAX, u64::MAX, true)] {
            assert_eq!(parse_snapshot_name(&e.file), Some(e));
        }
        let full = entry(3, 9, false).file;
        let no_base = snapshot_file_name(0, 0, SnapshotKind::Delta { base_epoch: 0 });
        let tmp = Path::new(&full).with_extension("tmp").display().to_string();
        let unpadded = full.replacen('0', "", 1);
        for junk in ["snapshot-3.bin", "snapshot-3.delta.bin", &no_base, &tmp, &unpadded, &segment_file_name(3)] {
            assert_eq!(parse_snapshot_name(junk), None, "{junk}");
        }
    }

    #[test]
    fn chain_for_walks_delta_links_to_the_full_base() {
        let bad_base = SnapshotKind::Delta { base_epoch: 6 };
        let snapshots = vec![
            entry(0, 0, false),
            entry(1, 4, true),
            entry(2, 9, true),
            entry(3, 9, false),
            entry(5, 12, true),
            SnapshotEntry { kind: bad_base, ..entry(6, 12, true) },
        ];
        let m = Manifest { snapshots };
        let epochs = |e| m.chain_for(e).unwrap().iter().map(|s| s.epoch).collect::<Vec<_>>();
        assert_eq!((epochs(2), epochs(3)), (vec![0, 1, 2], vec![3]));
        for (epoch, missing) in [(9, 9), (5, 4), (6, 6)] {
            let err = m.chain_for(epoch).unwrap_err();
            assert!(matches!(err, SnapshotError::MissingLink { missing: m, .. } if m == missing), "{err}");
        }
        assert_eq!((m.next_epoch(), m.latest().unwrap().wal_start), (7, 12));
    }

    #[test]
    fn legacy_manifest_and_duplicate_epochs_are_typed_errors() {
        let full = entry(0, 0, false).file;
        let err = load_names("legacy", &[full.clone(), LEGACY_MANIFEST.into()]).unwrap_err();
        assert!(matches!(err, SnapshotError::LegacyManifest(_)), "{err}");
        assert!(err.to_string().contains("manifest.json"), "{err}");
        let err = load_names("dup", &[full, entry(0, 3, false).file]).unwrap_err();
        assert!(matches!(err, SnapshotError::DuplicateEpoch { epoch: 0, .. }), "{err}");
    }

    /// One file of a generated directory: a valid snapshot name with the
    /// entry it spells, or a name the view must ignore.
    fn file_name() -> impl Strategy<Value = (Option<SnapshotEntry>, String)> {
        (0u8..8, 0u64..16, 0u64..50, any::<bool>()).prop_map(|(pick, e, w, delta)| {
            let s = entry(e, w, delta && e > 0);
            let junk = ["snapshot-3.bin", "snapshot-1.delta.bin", "notes.txt", "wal.log"];
            let ignored = match pick {
                0..=3 => return (Some(s.clone()), s.file),
                4 => Path::new(&s.file).with_extension("tmp").display().to_string(),
                5 => snapshot_file_name(0, w, SnapshotKind::Delta { base_epoch: 0 }),
                6 => segment_file_name(w),
                _ => junk[w as usize % junk.len()].to_string(),
            };
            (None, ignored)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn load_is_exactly_the_valid_names_in_epoch_order(
            files in proptest::collection::vec(file_name(), 0..10),
        ) {
            // The model: valid names keyed by epoch; two different files
            // at one epoch make the directory a duplicate.
            let mut model: BTreeMap<u64, SnapshotEntry> = BTreeMap::new();
            let mut duplicate = false;
            for s in files.iter().filter_map(|(s, _)| s.as_ref()) {
                duplicate |= model.insert(s.epoch, s.clone()).is_some_and(|old| old != *s);
            }
            let names: Vec<String> = files.into_iter().map(|(_, n)| n).collect();
            let loaded = load_names("prop", &names);
            if duplicate {
                prop_assert!(matches!(loaded, Err(SnapshotError::DuplicateEpoch { .. })), "{loaded:?}");
                return;
            }
            let m = loaded.unwrap();
            prop_assert_eq!(&m.snapshots, &model.values().cloned().collect::<Vec<_>>());
            for &epoch in model.keys() {
                // The model chain walks down while the kind is a delta.
                let mut at = epoch;
                while model.get(&at).is_some_and(|s| s.kind != SnapshotKind::Full) {
                    at -= 1;
                }
                let got = m.chain_for(epoch).map(|c| c.iter().map(|s| s.epoch).collect::<Vec<_>>());
                match model.contains_key(&at) {
                    true => prop_assert_eq!(got.unwrap(), (at..=epoch).collect::<Vec<_>>()),
                    false => prop_assert!(
                        matches!(got, Err(SnapshotError::MissingLink { missing, .. }) if missing == at),
                        "{got:?}"
                    ),
                }
            }
        }
    }
}
