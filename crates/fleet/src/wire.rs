//! Typed fleet control messages (JSON payloads of the non-halo frames).
//!
//! Halo traffic (`Boundary`/`Feedback`) is raw binary — see
//! [`crate::frame`] — because it must be f64-bit-transparent. The control
//! plane (handshake, assignment, completion) is low-rate and benefits from
//! being inspectable, so it rides as compact JSON. That is still exact for
//! the one float that feeds back into model state (`dx_km`): floats are
//! written as their shortest round-trip representation and parsed with
//! correct rounding, so a worker reconstructs bit-identical model geometry
//! from an [`Assign`]. Decoding is manual over the dynamic `Value` — the
//! same idiom as the serve protocol parser.

use crate::frame::FrameError;
use nestwx_grid::{Domain, NestSpec};
use nestwx_miniwrf::NestReport;
use nestwx_obs::HistSummary;
use serde::Serialize;
use serde_json::Value;

/// Version of the fleet wire protocol. A coordinator refuses a worker with
/// a different version: frames are binary, so any layout drift must fail
/// the handshake instead of corrupting a run.
pub const FLEET_WIRE_VERSION: u32 = 1;

/// Worker → coordinator greeting (payload of `Tag::Hello`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Hello {
    /// Must equal [`FLEET_WIRE_VERSION`].
    pub version: u32,
}

/// Coordinator → worker assignment (payload of `Tag::Assign`): everything
/// a worker needs to deterministically rebuild the model and run its share.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Assign {
    /// Parent domain of the scenario.
    pub parent: Domain,
    /// Every nest spec of the scenario (the worker builds the full model so
    /// its owned nests initialize exactly as in-process ones would).
    pub nests: Vec<NestSpec>,
    /// Parent iterations to run.
    pub iterations: u64,
    /// This worker's slot (0-based).
    pub slot: u32,
    /// Global level-1 nest indices this worker owns, ascending.
    pub(crate) owned: Vec<u32>,
    /// Total workers in the fleet (for logs and obs only).
    pub workers: u32,
}

/// Percentile summary of a wait-time histogram, as it crosses the wire.
/// Mirrors [`HistSummary`] but can be decoded back (the obs crate's
/// summary is serialize-only).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WaitStats {
    /// Waits recorded.
    pub count: u64,
    /// Mean seconds.
    pub mean: f64,
    /// Median seconds.
    pub p50: f64,
    /// 90th percentile seconds.
    pub p90: f64,
    /// 99th percentile seconds.
    pub p99: f64,
    /// Maximum seconds.
    pub max: f64,
}

impl From<HistSummary> for WaitStats {
    fn from(h: HistSummary) -> WaitStats {
        WaitStats {
            count: h.count,
            mean: h.mean,
            p50: h.p50,
            p90: h.p90,
            p99: h.p99,
            max: h.max,
        }
    }
}

/// One side's transport + stall observability. Wall-clock quantities live
/// here — in the obs envelope, never in the `SimReport` — so they cannot
/// perturb the bitwise-identity contract.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SideObs {
    /// Wire bytes received (frames + headers).
    pub bytes_in: u64,
    /// Wire bytes sent.
    pub bytes_out: u64,
    /// Frames received.
    pub frames_in: u64,
    /// Frames sent.
    pub frames_out: u64,
    /// Halo receive waits (boundary waits on a worker, feedback waits on
    /// the coordinator) — the cross-process stall the fleet makes visible.
    pub recv_wait: WaitStats,
    /// Seconds spent computing (solving nests / stepping the parent).
    pub compute_s: f64,
    /// Seconds spent stalled waiting on the peer — the halo-exchange
    /// attribution `nestwx obs report` renders.
    pub wait_s: f64,
}

/// Worker → coordinator completion (payload of `Tag::Done`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Done {
    /// The worker's slot.
    pub slot: u32,
    /// Deterministic per-nest reports for the worker's owned nests.
    pub nests: Vec<NestReport>,
    /// The worker's transport/stall observability.
    pub obs: SideObs,
}

/// Serializes a control message to its frame payload.
pub fn to_payload<T: Serialize>(msg: &T) -> Vec<u8> {
    serde_json::to_string(msg)
        .expect("control messages serialize")
        .into_bytes()
}

// ---------------------------------------------------------------------------
// Manual decoding (the vendored serde_json parses into a dynamic Value)
// ---------------------------------------------------------------------------

fn bad(what: &str, detail: impl std::fmt::Display) -> FrameError {
    FrameError::Malformed(format!("bad {what} payload: {detail}"))
}

fn parse(payload: &[u8], what: &str) -> Result<Value, FrameError> {
    serde_json::from_slice(payload).map_err(|e| bad(what, format!("{e}")))
}

fn req_u64(v: &Value, key: &str, what: &str) -> Result<u64, FrameError> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| bad(what, format!("missing or non-integer '{key}'")))
}

fn req_f64(v: &Value, key: &str, what: &str) -> Result<f64, FrameError> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| bad(what, format!("missing or non-numeric '{key}'")))
}

fn req_str<'v>(v: &'v Value, key: &str, what: &str) -> Result<&'v str, FrameError> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| bad(what, format!("missing or non-string '{key}'")))
}

fn req_array<'v>(v: &'v Value, key: &str, what: &str) -> Result<&'v Vec<Value>, FrameError> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| bad(what, format!("missing or non-array '{key}'")))
}

fn req_u32(v: &Value, key: &str, what: &str) -> Result<u32, FrameError> {
    u32::try_from(req_u64(v, key, what)?)
        .map_err(|_| bad(what, format!("'{key}' exceeds u32 range")))
}

impl Hello {
    /// Decodes a `Hello` frame payload.
    pub(crate) fn decode(payload: &[u8]) -> Result<Hello, FrameError> {
        let v = parse(payload, "hello")?;
        Ok(Hello {
            version: req_u32(&v, "version", "hello")?,
        })
    }
}

fn decode_nest_spec(v: &Value) -> Result<NestSpec, FrameError> {
    const WHAT: &str = "assign.nests";
    let offset = req_array(v, "offset", WHAT)?;
    let off = |i: usize| -> Result<u32, FrameError> {
        offset
            .get(i)
            .and_then(Value::as_u64)
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| bad(WHAT, "offset is not a pair of integers"))
    };
    let parent_nest = match v.get("parent_nest") {
        None | Some(Value::Null) => None,
        Some(pn) => Some(
            pn.as_u64()
                .map(|n| n as usize)
                .ok_or_else(|| bad(WHAT, "non-integer 'parent_nest'"))?,
        ),
    };
    Ok(NestSpec {
        nx: req_u32(v, "nx", WHAT)?,
        ny: req_u32(v, "ny", WHAT)?,
        refine_ratio: req_u32(v, "refine_ratio", WHAT)?,
        offset: (off(0)?, off(1)?),
        parent_nest,
    })
}

impl Assign {
    /// Decodes an `Assign` frame payload.
    pub(crate) fn decode(payload: &[u8]) -> Result<Assign, FrameError> {
        const WHAT: &str = "assign";
        let v = parse(payload, WHAT)?;
        let p = v
            .get("parent")
            .ok_or_else(|| bad(WHAT, "missing 'parent'"))?;
        let parent = Domain {
            nx: req_u32(p, "nx", WHAT)?,
            ny: req_u32(p, "ny", WHAT)?,
            dx_km: req_f64(p, "dx_km", WHAT)?,
        };
        let nests = req_array(&v, "nests", WHAT)?
            .iter()
            .map(decode_nest_spec)
            .collect::<Result<Vec<_>, _>>()?;
        let owned = req_array(&v, "owned", WHAT)?
            .iter()
            .map(|o| {
                o.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| bad(WHAT, "non-integer entry in 'owned'"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Assign {
            parent,
            nests,
            iterations: req_u64(&v, "iterations", WHAT)?,
            slot: req_u32(&v, "slot", WHAT)?,
            owned,
            workers: req_u32(&v, "workers", WHAT)?,
        })
    }
}

fn decode_wait_stats(v: &Value, what: &str) -> Result<WaitStats, FrameError> {
    Ok(WaitStats {
        count: req_u64(v, "count", what)?,
        mean: req_f64(v, "mean", what)?,
        p50: req_f64(v, "p50", what)?,
        p90: req_f64(v, "p90", what)?,
        p99: req_f64(v, "p99", what)?,
        max: req_f64(v, "max", what)?,
    })
}

fn decode_side_obs(v: &Value, what: &str) -> Result<SideObs, FrameError> {
    let rw = v
        .get("recv_wait")
        .ok_or_else(|| bad(what, "missing 'recv_wait'"))?;
    Ok(SideObs {
        bytes_in: req_u64(v, "bytes_in", what)?,
        bytes_out: req_u64(v, "bytes_out", what)?,
        frames_in: req_u64(v, "frames_in", what)?,
        frames_out: req_u64(v, "frames_out", what)?,
        recv_wait: decode_wait_stats(rw, what)?,
        compute_s: req_f64(v, "compute_s", what)?,
        wait_s: req_f64(v, "wait_s", what)?,
    })
}

fn decode_nest_report(v: &Value) -> Result<NestReport, FrameError> {
    const WHAT: &str = "done.nests";
    let children = req_array(v, "children", WHAT)?
        .iter()
        .map(|c| {
            c.as_str()
                .map(str::to_owned)
                .ok_or_else(|| bad(WHAT, "non-string child digest"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(NestReport {
        nest: req_u64(v, "nest", WHAT)? as usize,
        ratio: req_u64(v, "ratio", WHAT)? as usize,
        sub_steps: req_u64(v, "sub_steps", WHAT)?,
        boundary_cells: req_u64(v, "boundary_cells", WHAT)?,
        halo_bytes: req_u64(v, "halo_bytes", WHAT)?,
        halo_messages: req_u64(v, "halo_messages", WHAT)?,
        digest: req_str(v, "digest", WHAT)?.to_owned(),
        children,
    })
}

impl Done {
    /// Decodes a `Done` frame payload.
    pub(crate) fn decode(payload: &[u8]) -> Result<Done, FrameError> {
        const WHAT: &str = "done";
        let v = parse(payload, WHAT)?;
        let nests = req_array(&v, "nests", WHAT)?
            .iter()
            .map(decode_nest_report)
            .collect::<Result<Vec<_>, _>>()?;
        let obs = v.get("obs").ok_or_else(|| bad(WHAT, "missing 'obs'"))?;
        Ok(Done {
            slot: req_u32(&v, "slot", WHAT)?,
            nests,
            obs: decode_side_obs(obs, WHAT)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_round_trips() {
        let h = Hello { version: 7 };
        assert_eq!(Hello::decode(&to_payload(&h)).unwrap(), h);
    }

    #[test]
    fn assign_round_trips_dx_exactly() {
        let a = Assign {
            parent: Domain::parent(286, 307, 24.3),
            nests: vec![
                NestSpec::new(150, 150, 3, (10, 12)),
                NestSpec::child_of(0, 30, 30, 2, (5, 5)),
            ],
            iterations: 8,
            slot: 1,
            owned: vec![0],
            workers: 2,
        };
        let b = Assign::decode(&to_payload(&a)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.parent.dx_km.to_bits(), b.parent.dx_km.to_bits());
        assert_eq!(b.nests[1].parent_nest, Some(0));
    }

    #[test]
    fn done_round_trips() {
        let d = Done {
            slot: 3,
            nests: vec![NestReport {
                nest: 1,
                ratio: 3,
                sub_steps: 12,
                boundary_cells: 76,
                halo_bytes: 17920,
                halo_messages: 8,
                digest: "00deadbeef00cafe".to_owned(),
                children: vec!["0123456789abcdef".to_owned()],
            }],
            obs: SideObs {
                bytes_in: 10,
                bytes_out: 20,
                frames_in: 3,
                frames_out: 4,
                recv_wait: WaitStats {
                    count: 2,
                    mean: 0.25,
                    p50: 0.2,
                    p90: 0.4,
                    p99: 0.4,
                    max: 0.5,
                },
                compute_s: 1.5,
                wait_s: 0.5,
            },
        };
        assert_eq!(Done::decode(&to_payload(&d)).unwrap(), d);
    }

    #[test]
    fn malformed_control_payloads_rejected() {
        assert!(Hello::decode(b"not json").is_err());
        assert!(Assign::decode(b"{}").is_err());
        assert!(Done::decode(b"{\"slot\":1}").is_err());
    }
}
