//! History output for the mini-app.
//!
//! Mirrors the paper's I/O concern in miniature: the forecast fields of the
//! parent and every nest are written periodically for visualisation. The
//! writer records how long each frame took, so examples can report the I/O
//! share of wall-clock exactly like Fig. 14.
//!
//! Frames are self-describing CSV (header + rows), one file per domain per
//! frame — the split-files scheme of BG/L — under a caller-chosen directory.

use crate::model::{NestState, NestedModel};
use crate::solver::ShallowWater;
use nestwx_obs::clock;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Accumulated output statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OutputStats {
    /// Frames written (per domain).
    pub frames: u32,
    /// Bytes written.
    pub bytes: u64,
    /// Wall-clock spent writing.
    pub elapsed: Duration,
}

/// Writes periodic history frames for a [`NestedModel`].
#[derive(Debug)]
pub struct HistoryWriter {
    dir: PathBuf,
    /// Write every `interval` parent iterations.
    pub interval: u64,
    /// Statistics so far.
    pub stats: OutputStats,
}

impl HistoryWriter {
    /// Creates the output directory (and parents) if needed.
    pub fn new(dir: impl AsRef<Path>, interval: u64) -> std::io::Result<Self> {
        assert!(interval >= 1);
        std::fs::create_dir_all(dir.as_ref())?;
        Ok(HistoryWriter {
            dir: dir.as_ref().to_path_buf(),
            interval,
            stats: OutputStats::default(),
        })
    }

    /// Writes a frame if the model's iteration count hits the interval.
    /// Returns `true` when a frame was written.
    pub fn maybe_write(&mut self, model: &NestedModel) -> std::io::Result<bool> {
        if model.iterations == 0 || !model.iterations.is_multiple_of(self.interval) {
            return Ok(false);
        }
        let t0 = clock::now();
        let it = model.iterations;
        self.write_domain(&model.parent, &format!("parent_{it:05}"))?;
        for (i, nest) in model.nests.iter().enumerate() {
            self.write_nest(nest, &format!("nest{i}_{it:05}"))?;
        }
        self.stats.frames += 1;
        self.stats.elapsed += t0.elapsed();
        Ok(true)
    }

    fn write_nest(&mut self, nest: &NestState, name: &str) -> std::io::Result<()> {
        self.write_domain(&nest.solver, name)?;
        for (c, child) in nest.children.iter().enumerate() {
            self.write_nest(child, &format!("{name}_c{c}"))?;
        }
        Ok(())
    }

    fn write_domain(&mut self, sw: &ShallowWater, name: &str) -> std::io::Result<()> {
        let path = self.dir.join(format!("{name}.csv"));
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        writeln!(
            w,
            "# nx={} ny={} dx={} dt={} steps={}",
            sw.nx, sw.ny, sw.dx, sw.dt, sw.steps
        )?;
        writeln!(w, "i,j,h,hu,hv")?;
        let mut bytes = 0u64;
        for j in 0..sw.ny {
            for i in 0..sw.nx {
                let (ii, jj) = (i as isize, j as isize);
                let line = format!(
                    "{i},{j},{:.6},{:.6},{:.6}",
                    sw.h.get(ii, jj),
                    sw.hu.get(ii, jj),
                    sw.hv.get(ii, jj)
                );
                bytes += line.len() as u64 + 1;
                writeln!(w, "{line}")?;
            }
        }
        w.flush()?;
        self.stats.bytes += bytes;
        Ok(())
    }
}

/// Reads a frame back (for round-trip tests and plotting scripts):
/// returns `(nx, ny, h values row-major)`.
pub fn read_frame_h(path: impl AsRef<Path>) -> std::io::Result<(usize, usize, Vec<f64>)> {
    let text = std::fs::read_to_string(path)?;
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_default();
    let parse_kv = |key: &str| -> usize {
        header
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    let (nx, ny) = (parse_kv("nx"), parse_kv("ny"));
    let mut h = vec![0.0f64; nx * ny];
    for line in lines.skip(1) {
        let mut cols = line.split(',');
        let (Some(i), Some(j), Some(v)) = (cols.next(), cols.next(), cols.next()) else {
            continue;
        };
        let (i, j): (usize, usize) = (i.parse().unwrap_or(0), j.parse().unwrap_or(0));
        if i < nx && j < ny {
            h[j * nx + i] = v.parse().unwrap_or(0.0);
        }
    }
    Ok((nx, ny, h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nest::NestGeometry;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("nestwx_miniwrf_out_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn small_model() -> NestedModel {
        let geos = [NestGeometry {
            ratio: 3,
            offset: (3, 3),
            nx: 18,
            ny: 15,
        }];
        let mut m = NestedModel::new(24, 20, 3000.0, 100.0, &geos);
        m.add_depression(8.0, 8.0, -4.0, 2.0);
        m
    }

    #[test]
    fn writes_frames_at_interval() {
        let dir = tmpdir("interval");
        let mut w = HistoryWriter::new(&dir, 2).unwrap();
        let mut m = small_model();
        let mut frames = 0;
        for _ in 0..4 {
            m.step_coupled();
            if w.maybe_write(&m).unwrap() {
                frames += 1;
            }
        }
        assert_eq!(frames, 2); // iterations 2 and 4
        assert_eq!(w.stats.frames, 2);
        assert!(w.stats.bytes > 0);
        assert!(dir.join("parent_00002.csv").exists());
        assert!(dir.join("nest0_00004.csv").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn frame_roundtrip_preserves_field() {
        let dir = tmpdir("roundtrip");
        let mut w = HistoryWriter::new(&dir, 1).unwrap();
        let mut m = small_model();
        m.step_coupled();
        w.maybe_write(&m).unwrap();
        let (nx, ny, h) = read_frame_h(dir.join("parent_00001.csv")).unwrap();
        assert_eq!((nx, ny), (24, 20));
        for j in 0..ny {
            for i in 0..nx {
                let expect = m.parent.h.get(i as isize, j as isize);
                assert!((h[j * nx + i] - expect).abs() < 1e-5);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn children_get_their_own_files() {
        let dir = tmpdir("children");
        let mut w = HistoryWriter::new(&dir, 1).unwrap();
        let mut m = small_model();
        m.add_child_nest(
            0,
            NestGeometry {
                ratio: 3,
                offset: (1, 1),
                nx: 9,
                ny: 9,
            },
        );
        m.step_coupled();
        w.maybe_write(&m).unwrap();
        assert!(dir.join("nest0_00001_c0.csv").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
