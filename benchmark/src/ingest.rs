//! Set-up of the read workloads: the reference store built **through the
//! product's ingest path**, day by day — PSV text → `psv::read_psv` →
//! `SnapshotStore::put` (which encodes colf) → `ensure_deltas` →
//! `IncrementalPipeline::advance`. This is the operator's append-a-day
//! cost sixteen times over, so work a change moves from decode into
//! encode shows in `setup_s`.

use crate::trace::Tracer;
use crate::BenchError;
use spider_core::{FrameLoader, IncrementalPipeline};
use spider_snapshot::{psv, SnapshotStore};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The PSV text of every day of the reference store, generated once per
/// run by `workloads::reference_inputs` (generation is the benchmark's
/// cost, not the product's, and stays outside every timed region).
pub struct PsvDays {
    /// One document per day, header line included.
    pub text: Vec<String>,
}

impl PsvDays {
    /// Total PSV bytes.
    pub fn bytes(&self) -> u64 {
        self.text.iter().map(|t| t.len() as u64).sum()
    }
}

/// What one ingest left behind.
pub struct Ingested {
    /// The store directory.
    pub dir: PathBuf,
    /// Wall time of the whole ingest.
    pub secs: f64,
    /// Rows stored.
    pub rows: u64,
    /// The incremental state after the last day.
    pub incremental: IncrementalPipeline,
}

/// Ingests `days` into a fresh store at `dir`, appending one day at a
/// time the way an operator would.
pub fn ingest(dir: &Path, days: &PsvDays, tracer: &mut Tracer) -> Result<Ingested, BenchError> {
    let _ = std::fs::remove_dir_all(dir);
    let started = Instant::now();
    let mut store = SnapshotStore::open(dir)?;
    let mut loader: Option<FrameLoader> = None;
    let mut incremental = IncrementalPipeline::new();
    let mut rows = 0u64;
    for text in &days.text {
        let snapshot = tracer.span("snapshot.psv.read_psv", || psv::read_psv(text.as_bytes()))?;
        rows += snapshot.len() as u64;
        tracer.span("snapshot.store.put", || store.put(&snapshot))?;
        drop(snapshot);
        tracer.span("snapshot.store.ensure_deltas", || store.ensure_deltas())?;
        let loader = match loader.as_mut() {
            Some(loader) => {
                loader.rescan()?;
                loader
            }
            None => loader.insert(FrameLoader::new(&store)?),
        };
        tracer.span("core.incremental.advance", || incremental.advance(loader))?;
    }
    Ok(Ingested {
        dir: dir.to_path_buf(),
        secs: started.elapsed().as_secs_f64(),
        rows,
        incremental,
    })
}

/// Bytes under `dir` whose file name ends in one of `suffixes`.
pub fn bytes_on_disk(dir: &Path, suffixes: &[&str]) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_dir() {
            total += bytes_on_disk(&entry.path(), suffixes)?;
        } else if suffixes
            .iter()
            .any(|s| entry.file_name().to_string_lossy().ends_with(s))
        {
            total += meta.len();
        }
    }
    Ok(total)
}
