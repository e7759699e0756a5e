//! Results-directory export: pretty JSON for whole documents.

use serde::Serialize;
use std::io::Write;
use std::path::Path;

/// Writes `value` as pretty-printed JSON to `path`, creating parent
/// directories as needed.
pub fn write_json<T: Serialize + ?Sized>(path: impl AsRef<Path>, value: &T) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let mut file = std::fs::File::create(path)?;
    file.write_all(json.as_bytes())?;
    file.write_all(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{HistogramSnapshot, Snapshot};

    fn sample_snapshot() -> Snapshot {
        let mut snapshot = Snapshot::default();
        snapshot.counters.insert("tlb.l1d.hits".into(), 42);
        let mut hist = HistogramSnapshot {
            count: 2,
            sum: 30,
            min: 10,
            max: 20,
            ..Default::default()
        };
        hist.buckets[5] = 2;
        snapshot.histograms.insert("walk.cycles".into(), hist);
        snapshot
    }

    #[test]
    fn json_round_trips_through_parser() {
        let dir = std::env::temp_dir().join("bf-telemetry-test-export");
        let path = dir.join("nested").join("snap.json");
        write_json(&path, &sample_snapshot()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let value = serde_json::from_str(&text).unwrap();
        assert_eq!(
            value
                .get("counters")
                .and_then(|c| c.get("tlb.l1d.hits"))
                .and_then(|v| v.as_u64()),
            Some(42)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
