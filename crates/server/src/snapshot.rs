//! Snapshot persistence: atomic, fsync-safe write / read of
//! [`ServerSnapshot`] files.

use std::io::{self, Write};
use std::path::Path;

use ausdb_model::codec::{decode_snapshot, encode_snapshot};

use crate::state::ServerSnapshot;

/// Writes `snapshot` to `path` atomically and durably: the bytes go to a
/// uniquely named temp file (`<name>.tmp.<pid>`, so two processes
/// snapshotting the same path never clobber each other's temp), the temp
/// is fsynced **before** the rename (otherwise a crash can leave the
/// final name pointing at zero-length or partial data — rename orders
/// metadata, not file contents), and the parent directory is fsynced
/// after so the rename itself survives a power cut. Returns the encoded
/// size in bytes.
pub fn write_snapshot(path: &Path, snapshot: &ServerSnapshot) -> io::Result<usize> {
    let bytes = encode_snapshot(snapshot);
    let tmp = temp_path(path, std::process::id());
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if let Ok(dir) =
            std::fs::File::open(if parent.as_os_str().is_empty() { Path::new(".") } else { parent })
        {
            // Directory fsync is best-effort: some filesystems reject it.
            let _ = dir.sync_all();
        }
    }
    Ok(bytes.len())
}

/// The temp-file sibling `write_snapshot` stages into.
fn temp_path(path: &Path, pid: u32) -> std::path::PathBuf {
    let name = path.file_name().map(|n| n.to_string_lossy()).unwrap_or_default();
    path.with_file_name(format!("{name}.tmp.{pid}"))
}

/// Removes stale snapshot temp files left by a crashed writer: any
/// `<name>.tmp.<pid>` sibling of `path`, plus the legacy `<stem>.tmp`
/// name older versions staged into. Returns how many were removed.
/// Call on startup, before the first snapshot is read or written.
pub fn clean_stale_temps(path: &Path) -> usize {
    let mut removed = 0;
    let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    let prefix = format!("{name}.tmp.");
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    if let Ok(entries) = std::fs::read_dir(&parent) {
        for entry in entries.flatten() {
            let fname = entry.file_name();
            let fname = fname.to_string_lossy();
            if fname.starts_with(&prefix) && std::fs::remove_file(entry.path()).is_ok() {
                removed += 1;
            }
        }
    }
    let legacy = path.with_extension("tmp");
    if legacy != *path && std::fs::remove_file(&legacy).is_ok() {
        removed += 1;
    }
    removed
}

/// Reads a snapshot from `path`. Decode failures surface as
/// `InvalidData` I/O errors so callers can distinguish "no snapshot"
/// (`NotFound`) from "corrupt snapshot".
pub fn read_snapshot(path: &Path) -> io::Result<ServerSnapshot> {
    let bytes = std::fs::read(path)?;
    decode_snapshot(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardSet;
    use crate::state::EngineConfig;

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("ausdb_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.snap");

        let state = ShardSet::new(EngineConfig::default());
        state.ingest("traffic", "19,100,56").unwrap();
        state.ingest("traffic", "19,101,38").unwrap();
        let snap = state.to_snapshot();
        let n = write_snapshot(&path, &snap).unwrap();
        assert!(n > 6, "wrote {n} bytes");
        assert_eq!(read_snapshot(&path).unwrap(), snap);

        // Corrupt file → InvalidData, not a panic.
        std::fs::write(&path, b"AUSBgarbage").unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // Missing file → NotFound.
        std::fs::remove_file(&path).unwrap();
        assert_eq!(read_snapshot(&path).unwrap_err().kind(), std::io::ErrorKind::NotFound);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_temps_are_cleaned_but_the_snapshot_survives() {
        let dir = std::env::temp_dir().join("ausdb_snapshot_tmp_clean_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.snap");

        let state = ShardSet::new(EngineConfig::default());
        write_snapshot(&path, &state.to_snapshot()).unwrap();
        // Simulate crashed writers: our pid, a foreign pid, the legacy name.
        std::fs::write(temp_path(&path, std::process::id()), b"partial").unwrap();
        std::fs::write(temp_path(&path, 99999), b"partial").unwrap();
        std::fs::write(path.with_extension("tmp"), b"partial").unwrap();

        assert_eq!(clean_stale_temps(&path), 3);
        assert!(path.exists(), "the real snapshot must survive cleanup");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "only the snapshot remains");
        // Idempotent when there is nothing to do.
        assert_eq!(clean_stale_temps(&path), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
