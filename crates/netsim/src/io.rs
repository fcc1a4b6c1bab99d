//! Parallel output cost model.
//!
//! §4.5: "PnetCDF has scalability issues as the number of MPI ranks
//! increases and could be a real bottleneck … In the parallel execution
//! case, only a subset of the MPI ranks take part in writing out a
//! particular output file and thus, this results in better I/O performance."
//!
//! The collective-write model has a metadata/synchronisation term that
//! grows with the number of writers and a data term bounded by the
//! aggregate bandwidth of the I/O nodes; the BG/L split-file mode writes one
//! file per rank at per-rank disk bandwidth.

use serde::{Deserialize, Serialize};

/// Which output path a simulation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IoMode {
    /// No history output.
    None,
    /// PnetCDF collective writes (BG/P runs, §4.2.3).
    PnetCdf,
    /// One file per rank (the BG/L "split I/O option").
    SplitFiles,
}

/// Parameters of the output model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IoParams {
    /// Fixed cost per collective write (file open, header sync), seconds.
    pub meta_base: f64,
    /// Per-writer metadata/synchronisation cost, seconds — the term that
    /// makes PnetCDF writes *grow* with rank count (Fig. 13b).
    pub meta_per_rank: f64,
    /// Aggregate streaming bandwidth of one I/O node, bytes/s.
    pub stream_bw: f64,
    /// Number of I/O nodes available to the partition.
    pub io_streams: u32,
    /// Per-file overhead in split mode, seconds.
    pub split_file_overhead: f64,
    /// Per-rank disk bandwidth in split mode, bytes/s.
    pub split_bw: f64,
}

impl IoParams {
    /// BG/P PnetCDF defaults (pset ratio 1:64ish).
    pub(crate) fn bgp_pnetcdf() -> IoParams {
        IoParams {
            meta_base: 0.08,
            meta_per_rank: 0.9e-3,
            stream_bw: 350e6,
            io_streams: 8,
            split_file_overhead: 0.05,
            split_bw: 20e6,
        }
    }

    /// BG/L split-file defaults.
    pub(crate) fn bgl_split() -> IoParams {
        IoParams {
            meta_base: 0.1,
            meta_per_rank: 1.2e-3,
            stream_bw: 200e6,
            io_streams: 4,
            split_file_overhead: 0.04,
            split_bw: 15e6,
        }
    }

    /// Wall-clock seconds for `writers` ranks to collectively write `bytes`
    /// of history via PnetCDF.
    pub(crate) fn pnetcdf_write(&self, writers: u32, bytes: f64) -> f64 {
        assert!(writers > 0);
        let agg_bw = self.stream_bw * self.io_streams.min(writers) as f64;
        self.meta_base + self.meta_per_rank * writers as f64 + bytes / agg_bw
    }

    /// Wall-clock seconds for `writers` ranks to each write their share of
    /// `bytes` into per-rank files.
    pub(crate) fn split_write(&self, writers: u32, bytes: f64) -> f64 {
        assert!(writers > 0);
        self.split_file_overhead + (bytes / writers as f64) / self.split_bw
    }

    /// Write time under `mode`.
    pub(crate) fn write_time(&self, mode: IoMode, writers: u32, bytes: f64) -> f64 {
        match mode {
            IoMode::None => 0.0,
            IoMode::PnetCdf => self.pnetcdf_write(writers, bytes),
            IoMode::SplitFiles => self.split_write(writers, bytes),
        }
    }
}

/// History frame size of an `nx × ny` domain with `fields` output fields of
/// `levels` levels (single precision).
pub(crate) fn frame_bytes(nx: u32, ny: u32, fields: u32, levels: u32) -> f64 {
    nx as f64 * ny as f64 * fields as f64 * levels as f64 * 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pnetcdf_grows_with_writers() {
        // Fig. 13(b): per-iteration PnetCDF time steadily increases with
        // rank count for a fixed payload.
        let io = IoParams::bgp_pnetcdf();
        let b = frame_bytes(415, 445, 18, 28);
        let t512 = io.pnetcdf_write(512, b);
        let t4096 = io.pnetcdf_write(4096, b);
        let t8192 = io.pnetcdf_write(8192, b);
        assert!(t4096 > t512);
        assert!(t8192 > t4096);
    }

    #[test]
    fn fewer_writers_cheaper_beyond_stream_saturation() {
        // The concurrent-sibling I/O win: 256 writers beat 4096 writers for
        // the same bytes once the stream bandwidth is saturated.
        let io = IoParams::bgp_pnetcdf();
        let b = frame_bytes(300, 300, 18, 28);
        assert!(io.pnetcdf_write(256, b) < io.pnetcdf_write(4096, b));
    }

    #[test]
    fn split_mode_roughly_flat_in_writers() {
        let io = IoParams::bgl_split();
        let b = frame_bytes(415, 445, 18, 28);
        let t512 = io.split_write(512, b);
        let t1024 = io.split_write(1024, b);
        // More writers never hurt in split mode (less data per rank).
        assert!(t1024 <= t512);
    }

    #[test]
    fn frame_bytes_formula() {
        assert_eq!(frame_bytes(10, 10, 2, 3), 10.0 * 10.0 * 2.0 * 3.0 * 4.0);
    }

    #[test]
    fn none_mode_is_free() {
        let io = IoParams::bgp_pnetcdf();
        assert_eq!(io.write_time(IoMode::None, 1024, 1e9), 0.0);
    }

    #[test]
    fn data_term_bounded_by_streams() {
        // Doubling writers beyond io_streams does not increase aggregate
        // bandwidth.
        let io = IoParams::bgp_pnetcdf();
        let b = 1e9;
        let data_t = |w: u32| io.pnetcdf_write(w, b) - io.meta_base - io.meta_per_rank * w as f64;
        assert!((data_t(64) - data_t(128)).abs() < 1e-9);
        // But fewer writers than streams do see lower bandwidth.
        assert!(data_t(2) > data_t(64));
    }
}
