//! Expected per-op digests at the default seed, one file per workload
//! (`expected/<workload>.json`), with one digest list per scale
//! (`full`, `smoke`). `--bless` rewrites the list for the scale run.

use hybridmem::json::{self, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Where the expected files live: next to this package's manifest.
pub fn default_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("expected")
}

fn path(dir: &Path, workload: &str) -> PathBuf {
    dir.join(format!("{workload}.json"))
}

fn read(dir: &Path, workload: &str) -> Result<BTreeMap<String, Json>, String> {
    let p = path(dir, workload);
    match std::fs::read_to_string(&p) {
        Ok(text) => match json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))? {
            Json::Obj(m) => Ok(m),
            _ => Err(format!("{}: not a JSON object", p.display())),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(BTreeMap::new()),
        Err(e) => Err(format!("{}: {e}", p.display())),
    }
}

/// The expected digests of `workload` at `scale`, or `None` when none
/// were blessed.
pub fn load(dir: &Path, workload: &str, scale: &str) -> Result<Option<Vec<u64>>, String> {
    let Some(list) = read(dir, workload)?.remove(scale) else {
        return Ok(None);
    };
    let items = list
        .as_arr()
        .ok_or_else(|| format!("{workload}.{scale}: not an array"))?;
    items
        .iter()
        .map(|d| {
            d.as_str()
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| format!("{workload}.{scale}: bad digest {d:?}"))
        })
        .collect::<Result<Vec<u64>, String>>()
        .map(Some)
}

/// Record `digests` as the expected list of `workload` at `scale`,
/// keeping the other scales' lists.
pub fn bless(dir: &Path, workload: &str, scale: &str, digests: &[u64]) -> Result<(), String> {
    let mut doc = read(dir, workload)?;
    doc.insert(
        scale.to_string(),
        Json::Arr(
            digests
                .iter()
                .map(|d| Json::Str(format!("{d:016x}")))
                .collect(),
        ),
    );
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let p = path(dir, workload);
    std::fs::write(&p, Json::Obj(doc).to_pretty() + "\n")
        .map_err(|e| format!("{}: {e}", p.display()))
}
