//! Serve-side flight-recorder envelope tags.
//!
//! `nestwx serve` drains its per-reader span rings through the `trace`
//! protocol endpoint as a versioned envelope; `nestwx obs report|top|diff`
//! read it back through [`crate::check_envelope`] like every other
//! envelope. The layout (durations in microseconds on the server's epoch
//! timeline):
//!
//! ```json
//! {
//!   "schema": "nestwx-obs-serve-summary",
//!   "version": 1,
//!   "summary": {"recording": true, "drained": 123, "dropped": 0, ...},
//!   "spans": [ {"ts_us": ..., "op": "plan", "path": "worker", ...} ],
//!   "slow":  [ ...same shape... ]
//! }
//! ```

/// `schema` tag of the serve flight-recorder envelope (drained by the
/// `nestwx serve` `trace` endpoint, consumed by `nestwx obs report`).
pub const SERVE_SCHEMA: &str = "nestwx-obs-serve-summary";
/// Current version of the serve flight-recorder envelope.
pub const SERVE_VERSION: u64 = 1;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_envelope;
    use serde_json::Value;

    fn envelope_json() -> &'static str {
        r#"{
            "schema": "nestwx-obs-serve-summary",
            "version": 1,
            "summary": {"recording": true, "drained": 2},
            "spans": [
                {"ts_us": 10, "op": "plan", "path": "worker",
                 "ok": true, "total_us": 500},
                {"ts_us": 40, "op": "plan", "path": "hot",
                 "ok": true, "total_us": 3}
            ],
            "slow": [
                {"ts_us": 10, "op": "compare", "path": "worker",
                 "ok": false, "total_us": 9000}
            ]
        }"#
    }

    fn envelope() -> Value {
        serde_json::from_str(envelope_json()).unwrap()
    }

    #[test]
    fn schema_check_accepts_current_version() {
        let env = check_envelope(&envelope()).unwrap();
        assert_eq!(env.schema, SERVE_SCHEMA);
        assert_eq!(env.version, SERVE_VERSION);
        assert_eq!(env.records(&envelope()).map(Vec::len), Some(2));
    }

    #[test]
    fn schema_check_rejects_wrong_schema_and_version() {
        let bad = envelope_json().replace("nestwx-obs-serve-summary", "bogus");
        let v: Value = serde_json::from_str(&bad).unwrap();
        assert!(check_envelope(&v).unwrap_err().contains("bogus"));

        let bad = envelope_json().replace("\"version\": 1", "\"version\": 99");
        let v: Value = serde_json::from_str(&bad).unwrap();
        assert!(check_envelope(&v).unwrap_err().contains("99"));
    }
}
