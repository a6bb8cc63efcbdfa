//! Fixture archives: generated once per (shape, archive seed) through the
//! real ingest path, in a child process, and cached with a fingerprint
//! that is verified on every reuse.
//!
//! Rendering synthetic video and extracting the Table-1 features costs
//! about 20 s per 80 videos on a 2-core host, so it must never land inside
//! a measured set-up or the measured process's memory high-water mark:
//! the benchmark process only ever loads the finished catalog file.

use crate::util::fnv1a;
use hmmm_bench::{skewed_catalog, standard_catalog, DataConfig};
use hmmm_storage::Catalog;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Where fixtures and trace files live, relative to the directory the
/// benchmark runs in (the repository root).
pub const CACHE_DIR: &str = ".servebench";

/// The archive make-ups the workloads run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Uniform event density shaped like the paper's archive (≈214 shots
    /// per video, ≈4.4 % annotated shots), scaled to 200 videos.
    Uniform,
    /// 320 videos × 250 shots, every other video at a weak event rate
    /// (`hmmm_bench::skewed_catalog`, 80k shots).
    Skewed,
    /// A few hundred shots for the self-test.
    Tiny,
}

impl Shape {
    pub const ALL: [Shape; 3] = [Shape::Uniform, Shape::Skewed, Shape::Tiny];

    pub fn name(self) -> &'static str {
        match self {
            Shape::Uniform => "uniform",
            Shape::Skewed => "skewed",
            Shape::Tiny => "tiny",
        }
    }

    pub fn parse(name: &str) -> Option<Shape> {
        Shape::ALL.into_iter().find(|s| s.name() == name)
    }

    /// (videos, shots per video, event rate, weak-half event rate).
    pub fn params(self) -> (usize, usize, f64, Option<f64>) {
        match self {
            Shape::Uniform => (200, 214, 0.044, None),
            Shape::Skewed => (320, 250, 0.08, Some(0.005)),
            Shape::Tiny => (6, 40, 0.1, None),
        }
    }

    /// Render → Table-1 features → catalog, exactly as `hmmm generate`
    /// and the bench crate's fixtures do.
    pub fn generate(self, archive_seed: u64) -> Catalog {
        let (videos, shots_per_video, event_rate, weak) = self.params();
        let config = DataConfig {
            videos,
            shots_per_video,
            event_rate,
            seed: archive_seed,
        };
        match weak {
            Some(weak_rate) => skewed_catalog(config, weak_rate),
            None => standard_catalog(config).1,
        }
    }

    fn describe(self, archive_seed: u64) -> String {
        let (videos, shots, rate, weak) = self.params();
        format!("shape={} videos={videos} shots={shots} rate={rate} weak={weak:?} seed={archive_seed}", self.name())
    }
}

fn paths(shape: Shape, archive_seed: u64) -> (PathBuf, PathBuf) {
    let stem = format!("{CACHE_DIR}/fixtures/{}-{archive_seed}", shape.name());
    (PathBuf::from(format!("{stem}.hmmm")), PathBuf::from(format!("{stem}.manifest")))
}

fn manifest_text(shape: Shape, archive_seed: u64, bytes: &[u8]) -> String {
    format!(
        "{}\nbytes={}\nfnv1a={:016x}\n",
        shape.describe(archive_seed),
        bytes.len(),
        fnv1a(bytes)
    )
}

/// `true` when the cached file exists and matches its manifest byte for
/// byte (length and fingerprint) under the current shape parameters.
fn verified(shape: Shape, archive_seed: u64) -> bool {
    let (data, manifest) = paths(shape, archive_seed);
    match (std::fs::read(&data), std::fs::read_to_string(&manifest)) {
        (Ok(bytes), Ok(text)) => text == manifest_text(shape, archive_seed, &bytes),
        _ => false,
    }
}

/// Makes sure every shape in `shapes` has a verified cached archive,
/// generating the missing ones concurrently in child processes (one per
/// shape). Returns the catalog paths in `shapes` order.
pub fn ensure(shapes: &[Shape], archive_seed: u64) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(format!("{CACHE_DIR}/fixtures"))
        .map_err(|e| format!("creating the fixture cache: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut children = Vec::new();
    for &shape in shapes {
        if verified(shape, archive_seed) {
            continue;
        }
        let (data, _) = paths(shape, archive_seed);
        eprintln!("generating the {} fixture archive (seed {archive_seed})…", shape.name());
        let child = Command::new(&exe)
            .args(["gen-fixture", "--shape", shape.name(), "--archive-seed"])
            .arg(archive_seed.to_string())
            .arg("--out")
            .arg(&data)
            .spawn()
            .map_err(|e| format!("spawning the fixture generator: {e}"))?;
        children.push((shape, child));
    }
    let mut failure = None;
    for (shape, mut child) in children {
        let status = child.wait().map_err(|e| format!("waiting for the generator: {e}"))?;
        if !status.success() {
            failure.get_or_insert(format!("generating the {} fixture failed: {status}", shape.name()));
            continue;
        }
        let (data, manifest) = paths(shape, archive_seed);
        let bytes = std::fs::read(&data).map_err(|e| format!("reading {}: {e}", data.display()))?;
        std::fs::write(&manifest, manifest_text(shape, archive_seed, &bytes))
            .map_err(|e| format!("writing {}: {e}", manifest.display()))?;
    }
    if let Some(failure) = failure {
        return Err(failure);
    }
    shapes
        .iter()
        .map(|&shape| {
            if verified(shape, archive_seed) {
                Ok(paths(shape, archive_seed).0)
            } else {
                Err(format!("the {} fixture does not match its manifest", shape.name()))
            }
        })
        .collect()
}

/// The child-process side of [`ensure`]: generate and save one archive.
pub fn generate_to(shape: Shape, archive_seed: u64, out: &Path) -> Result<(), String> {
    let catalog = shape.generate(archive_seed);
    hmmm_storage::save_binary(&catalog, out).map_err(|e| format!("saving {}: {e}", out.display()))
}
