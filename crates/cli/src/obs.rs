//! The `nestwx obs` subcommand family over the versioned envelopes that
//! [`nestwx_obs::check_envelope`] accepts — run, sweep, fleet and serve-trace
//! summaries (see DESIGN.md "Summary JSON schema"): `report` renders any
//! envelope as key=value lines and tables, `top` ranks its record array by
//! any numeric field, and `diff` prints per-metric deltas between two
//! files. None of them knows a schema beyond that table. An unknown schema
//! tag, a version other than the current one, or a parse failure is an
//! error, so CI can gate on it.

use nestwx_obs::{check_envelope, Envelope};
use serde_json::Value;
use std::error::Error;
use std::io;

/// The `obs` subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsCmd {
    /// Render one envelope as lines and tables.
    Report {
        /// Path of an envelope JSON file.
        path: String,
    },
    /// List the largest records of an envelope's record array.
    Top {
        /// Path of an envelope JSON file.
        path: String,
        /// Numeric record field to rank by (or `duration`).
        by: String,
        /// Rows to print.
        n: usize,
    },
    /// Per-metric deltas between two envelopes.
    Diff {
        /// Baseline envelope JSON.
        a: String,
        /// Candidate envelope JSON.
        b: String,
    },
}

/// Loads a JSON file and checks its envelope (schema tag + exact version).
pub(crate) fn load_summary(path: &str) -> Result<Value, Box<dyn Error>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    let v: Value =
        serde_json::from_str(&text).map_err(|e| format!("'{path}' is not valid JSON: {e:?}"))?;
    check_envelope(&v).map_err(|e| format!("'{path}': {e}"))?;
    Ok(v)
}

/// Dotted key path of an envelope's record array (empty when it has none).
fn record_path(envelope: &Envelope) -> String {
    envelope.records.join(".")
}

fn join(prefix: &str, key: &str) -> String {
    if prefix.is_empty() {
        key.to_string()
    } else {
        format!("{prefix}.{key}")
    }
}

/// Integers below a million print exactly; everything else with an SI
/// suffix and three decimals.
fn fmt_si(x: f64) -> String {
    let ax = x.abs();
    if x.fract() == 0.0 && ax < 1e6 {
        format!("{x}")
    } else if ax >= 1e9 {
        format!("{:.2}G", x / 1e9)
    } else if ax >= 1e6 {
        format!("{:.2}M", x / 1e6)
    } else if ax >= 1e3 {
        format!("{:.2}k", x / 1e3)
    } else if ax >= 1.0 {
        format!("{x:.3}")
    } else if ax >= 1e-3 {
        format!("{:.3}m", x * 1e3)
    } else if ax >= 1e-6 {
        format!("{:.3}u", x * 1e6)
    } else {
        format!("{x:.3e}")
    }
}

/// How `report` and `top` print one scalar leaf: numbers through the SI
/// formatter, arrays of scalars as `[a,b]`, `null` as `-`.
pub fn cell(v: &Value) -> String {
    match v {
        Value::Null => "-".into(),
        Value::Bool(b) => b.to_string(),
        Value::Number(x) => fmt_si(*x),
        Value::String(s) => s.clone(),
        Value::Array(items) => {
            let cells: Vec<String> = items.iter().map(cell).collect();
            format!("[{}]", cells.join(","))
        }
        Value::Object(fields) => format!("{{{} fields}}", fields.len()),
    }
}

/// A leaf `report` prints inline: anything but an object or an array
/// holding objects.
fn is_scalar(v: &Value) -> bool {
    match v {
        Value::Object(_) => false,
        Value::Array(items) => !items.iter().any(|x| matches!(x, Value::Object(_))),
        _ => true,
    }
}

/// The scalar leaves of one table row, nested objects flattened into
/// dotted column names (`obs.bytes_in`).
fn row_leaves(v: &Value, prefix: &str, out: &mut Vec<(String, String)>) {
    if let Value::Object(fields) = v {
        for (k, x) in fields {
            let key = join(prefix, k);
            match x {
                Value::Object(_) => row_leaves(x, &key, out),
                _ => out.push((key, cell(x))),
            }
        }
    }
}

/// A computed leading table column: its name and per-row value.
type Lead<'a> = (&'a str, &'a dyn Fn(&Value) -> f64);

/// Prints `rows` as one table: the columns are the union of the rows'
/// dotted scalar keys in first-seen order, optionally after a `lead`
/// column computed per row.
fn table(out: &mut dyn io::Write, rows: &[&Value], lead: Option<Lead>) -> io::Result<()> {
    let leaves: Vec<Vec<(String, String)>> = rows
        .iter()
        .map(|r| {
            let mut l = Vec::new();
            if let Some((name, f)) = lead {
                l.push((name.to_string(), fmt_si(f(r))));
            }
            row_leaves(r, "", &mut l);
            l
        })
        .collect();
    let mut header: Vec<&str> = Vec::new();
    for (k, _) in leaves.iter().flatten() {
        if !header.contains(&k.as_str()) {
            header.push(k);
        }
    }
    let grid: Vec<Vec<&str>> = leaves
        .iter()
        .map(|row| {
            header
                .iter()
                .map(|h| {
                    row.iter()
                        .find(|(k, _)| k == h)
                        .map_or("-", |(_, c)| c.as_str())
                })
                .collect()
        })
        .collect();
    let widths: Vec<usize> = (0..header.len())
        .map(|i| {
            grid.iter()
                .map(|r| r[i].len())
                .fold(header[i].len(), usize::max)
        })
        .collect();
    for line in std::iter::once(&header).chain(&grid) {
        let cols: Vec<String> = line
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        writeln!(out, "    {}", cols.join("  "))?;
    }
    Ok(())
}

/// `nestwx obs report FILE` — a `<schema> v<version>` header, then per
/// object one line of its scalar leaves prefixed by the object's path, each
/// array of objects as a table, and the record array as its length.
pub fn report(v: &Value, out: &mut dyn io::Write) -> Result<(), Box<dyn Error>> {
    let envelope = check_envelope(v)?;
    writeln!(out, "{} v{}", envelope.schema, envelope.version)?;
    section(v, "", &record_path(envelope), out)?;
    Ok(())
}

fn section(v: &Value, path: &str, records: &str, out: &mut dyn io::Write) -> io::Result<()> {
    let Value::Object(fields) = v else {
        return Ok(());
    };
    // The header already carries the root's schema and version tags.
    let scalars: Vec<String> = fields
        .iter()
        .filter(|(k, x)| {
            is_scalar(x) && join(path, k) != records && !(path.is_empty() && is_tag(k))
        })
        .map(|(k, x)| format!("{k}={}", cell(x)))
        .collect();
    if !scalars.is_empty() {
        let label = if path.is_empty() {
            String::new()
        } else {
            format!("{path}: ")
        };
        writeln!(out, "  {label}{}", scalars.join("  "))?;
    }
    for (k, x) in fields {
        let key = join(path, k);
        match x {
            Value::Array(items) if key == records => {
                writeln!(out, "  {key}: {} records (nestwx obs top)", items.len())?
            }
            Value::Object(_) => section(x, &key, records, out)?,
            Value::Array(items) if !is_scalar(x) => {
                writeln!(out, "  {key} ({} rows):", items.len())?;
                table(out, &items.iter().collect::<Vec<_>>(), None)?;
            }
            _ => {}
        }
    }
    Ok(())
}

fn is_tag(key: &str) -> bool {
    key == "schema" || key == "version"
}

/// `nestwx obs top FILE --by FIELD -n N` — the N records of the envelope's
/// record array with the largest `FIELD`: any numeric record field, or
/// `duration` (`end - start`) where records carry both.
pub(crate) fn top(
    v: &Value,
    by: &str,
    n: usize,
    out: &mut dyn io::Write,
) -> Result<(), Box<dyn Error>> {
    let envelope = check_envelope(v)?;
    let path = record_path(envelope);
    if path.is_empty() {
        return Err(format!("{} envelopes have no record array to rank", envelope.schema).into());
    }
    let records = envelope
        .records(v)
        .ok_or_else(|| format!("missing '{path}' array"))?;
    let mut fields: Vec<&str> = Vec::new();
    for r in records {
        if let Value::Object(kv) = r {
            for (k, x) in kv {
                if x.as_f64().is_some() && !fields.contains(&k.as_str()) {
                    fields.push(k);
                }
            }
        }
    }
    let derived =
        fields.contains(&"start") && fields.contains(&"end") && !fields.contains(&"duration");
    if derived {
        fields.push("duration");
    }
    let by_duration = derived && by == "duration";
    if !records.is_empty() && !fields.contains(&by) {
        return Err(format!(
            "unknown field '{by}' for {path} records (one of {})",
            fields.join("|")
        )
        .into());
    }
    let num = |r: &Value, k: &str| r.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let metric = |r: &Value| {
        if by_duration {
            num(r, "end") - num(r, "start")
        } else {
            num(r, by)
        }
    };
    let mut order: Vec<&Value> = records.iter().collect();
    order.sort_by(|a, b| metric(b).total_cmp(&metric(a)));
    order.truncate(n);
    writeln!(
        out,
        "top {} of {} {path} records by {by}:",
        order.len(),
        records.len()
    )?;
    let lead: Option<Lead> = by_duration.then_some(("duration", &metric));
    table(out, &order, lead)?;
    Ok(())
}

/// Flattens every numeric leaf into `prefix.key` → value. Arrays of
/// objects are indexed; the envelope's record array collapses to
/// `<path>.count` — `diff` compares aggregates, not individual records.
fn flatten(v: &Value, prefix: &str, records: &str, out: &mut Vec<(String, f64)>) {
    match v {
        Value::Number(x) => out.push((prefix.to_string(), *x)),
        Value::Object(fields) => {
            for (k, val) in fields {
                flatten(val, &join(prefix, k), records, out);
            }
        }
        Value::Array(items) if prefix == records => {
            out.push((format!("{prefix}.count"), items.len() as f64));
        }
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                flatten(item, &format!("{prefix}[{i}]"), records, out);
            }
        }
        _ => {}
    }
}

/// `nestwx obs diff A B` — per-metric deltas between two envelopes.
pub(crate) fn diff(a: &Value, b: &Value, out: &mut dyn io::Write) -> Result<(), Box<dyn Error>> {
    let mut fa = Vec::new();
    let mut fb = Vec::new();
    flatten(a, "", &record_path(check_envelope(a)?), &mut fa);
    flatten(b, "", &record_path(check_envelope(b)?), &mut fb);
    let lookup_b: std::collections::HashMap<&str, f64> =
        fb.iter().map(|(k, x)| (k.as_str(), *x)).collect();
    let keys_a: std::collections::HashSet<&str> = fa.iter().map(|(k, _)| k.as_str()).collect();

    writeln!(
        out,
        "  {:<44} {:>12} {:>12} {:>12} {:>9}",
        "metric", "a", "b", "delta", "pct"
    )?;
    let mut changed = 0usize;
    for (k, xa) in &fa {
        let Some(&xb) = lookup_b.get(k.as_str()) else {
            writeln!(
                out,
                "  {k:<44} {:>12} {:>12}      (only in a)",
                fmt_si(*xa),
                "-"
            )?;
            continue;
        };
        if xa == &xb {
            continue;
        }
        changed += 1;
        let delta = xb - xa;
        let pct = if *xa != 0.0 {
            format!("{:+.2}%", 100.0 * delta / xa)
        } else {
            "n/a".into()
        };
        writeln!(
            out,
            "  {:<44} {:>12} {:>12} {:>12} {:>9}",
            k,
            fmt_si(*xa),
            fmt_si(xb),
            fmt_si(delta),
            pct
        )?;
    }
    for (k, xb) in &fb {
        if !keys_a.contains(k.as_str()) {
            writeln!(
                out,
                "  {k:<44} {:>12} {:>12}      (only in b)",
                "-",
                fmt_si(*xb)
            )?;
        }
    }
    writeln!(out, "  {changed} metrics differ")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nestwx_netsim::{ObsConfig, Recorder, StepMetrics, StepPhase};
    use nestwx_obs::{FLEET_SCHEMA, SERVE_SCHEMA, SWEEP_SCHEMA};

    fn recorded_summary() -> Value {
        let mut rec = Recorder::new(ObsConfig::detailed());
        for i in 1..=4u64 {
            rec.record_step(StepMetrics {
                step: i,
                phase: StepPhase::Nest,
                nest: (i % 2) as i32,
                domains: 1,
                start: i as f64,
                end: i as f64 + 0.25 * i as f64,
                compute: 1.0,
                halo_wait: 0.5,
                bytes: 100.0 * i as f64,
                messages: 4,
                transfers: 4,
                hops: 8,
                stall: 0.0,
            });
            rec.record_rank_step(
                4,
                i,
                (i % 2) as i32,
                i as f64,
                i as f64 + 0.25 * i as f64,
                0..4u32,
                |g| 0.25 + 0.05 * g as f64,
                |_| 0.125,
            );
        }
        serde_json::from_str(&rec.summary_json()).unwrap()
    }

    fn render(v: &Value) -> String {
        let mut buf = Vec::new();
        report(v, &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn report_renders_all_blocks() {
        let text = render(&recorded_summary());
        assert!(text.starts_with("nestwx-obs-run-summary v2\n"), "{text}");
        assert!(text.contains("  summary: steps=4  compute=4"), "{text}");
        assert!(text.contains("hists.rank_mpi_wait: count=16"), "{text}");
        assert!(text.contains("analysis: overall_imbalance="), "{text}");
        assert!(text.contains("time_ratio"), "{text}");
        assert!(text.contains("analysis.critical_ranks ("), "{text}");
        assert!(
            text.contains("  ring.steps: 4 records (nestwx obs top)"),
            "{text}"
        );
        // Per-step records are listed by `top`, never by `report`.
        assert!(!text.contains("halo_wait=0.500"), "{text}");
    }

    #[test]
    fn top_ranks_steps_by_metric() {
        let v = recorded_summary();
        let mut buf = Vec::new();
        top(&v, "duration", 2, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Step 4 has the longest duration (1.0s), then step 3 (0.75s).
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "top 2 of 4 ring.steps records by duration:");
        assert!(
            lines[1].trim_start().starts_with("duration  step"),
            "{text}"
        );
        assert!(lines[2].trim_start().starts_with("1     4"), "{text}");
        assert!(
            lines[3].trim_start().starts_with("750.000m     3"),
            "{text}"
        );
        assert_eq!(lines.len(), 4, "{text}");
        let e = top(&v, "nonsense", 2, &mut Vec::new())
            .unwrap_err()
            .to_string();
        assert!(e.contains("halo_wait") && e.contains("duration"), "{e}");
    }

    #[test]
    fn diff_reports_changed_metrics_only() {
        let a = recorded_summary();
        let mut rec = Recorder::new(ObsConfig::counters());
        rec.record_step(StepMetrics {
            step: 1,
            phase: StepPhase::Parent,
            nest: -1,
            domains: 1,
            start: 0.0,
            end: 2.0,
            compute: 8.0,
            halo_wait: 0.25,
            bytes: 64.0,
            messages: 2,
            transfers: 2,
            hops: 4,
            stall: 0.0,
        });
        let b = serde_json::from_str(&rec.summary_json()).unwrap();
        let mut buf = Vec::new();
        diff(&a, &b, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("summary.compute"));
        assert!(text.contains("ring.steps.count"));
        assert!(!text.contains("ring.steps["), "{text}");
        assert!(text.contains("metrics differ"));
        // Identical runs diff to zero changed metrics.
        let mut buf = Vec::new();
        diff(&a, &a, &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("0 metrics differ"));
    }

    fn serve_envelope(version: u64) -> String {
        format!(
            r#"{{"schema":"{SERVE_SCHEMA}","version":{version},
            "summary":{{"recording":true,"readers":2,"ring_capacity":64,
              "drained":3,"dropped":1,"recorded_total":9,"dropped_total":1,
              "slow_total":1,"slow_threshold_us":1000,
              "by_path":{{"hot":1,"inline":1,"worker":1,"deadline":0}},
              "by_op":{{"predict":0,"plan":2,"compare":0,"stats":1,"trace":0,"shutdown":0}}}},
            "spans":[
              {{"ts_us":10,"op":"plan","path":"worker","ok":true,"parse_us":5,"wait_us":40,"work_us":200,"total_us":260,"write_us":3,"written":true}},
              {{"ts_us":20,"op":"stats","path":"inline","ok":true,"parse_us":2,"wait_us":0,"work_us":8,"total_us":10,"write_us":1,"written":true}},
              {{"ts_us":30,"op":"plan","path":"hot","ok":true,"parse_us":0,"wait_us":0,"work_us":4,"total_us":4,"write_us":0,"written":false}}],
            "slow":[
              {{"ts_us":10,"op":"plan","path":"worker","ok":false,"parse_us":5,"wait_us":40,"work_us":2000,"total_us":2100,"write_us":3,"written":true}}]}}"#
        )
    }

    #[test]
    fn serve_report_renders_trace_envelope() {
        let text = render(&serde_json::from_str(&serve_envelope(1)).unwrap());
        assert!(text.starts_with("nestwx-obs-serve-summary v1\n"), "{text}");
        assert!(text.contains("recording=true"), "{text}");
        assert!(text.contains("dropped=1"), "{text}");
        assert!(
            text.contains("summary.by_path: hot=1  inline=1  worker=1  deadline=0"),
            "{text}"
        );
        assert!(text.contains("plan=2"), "{text}");
        assert!(text.contains("  spans: 3 records"), "{text}");
        assert!(text.contains("  slow (1 rows):"), "{text}");
        assert!(text.contains("2000"), "{text}");
    }

    #[test]
    fn serve_top_ranks_spans_by_stage() {
        let v: Value = serde_json::from_str(&serve_envelope(1)).unwrap();
        let mut buf = Vec::new();
        top(&v, "work_us", 2, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // The worker plan (200us work) outranks the inline stats (8us).
        let worker = text.find("worker").expect("worker span listed");
        let inline = text.find("inline").expect("inline span listed");
        assert!(worker < inline, "spans not sorted by work:\n{text}");
        assert!(!text.contains("hot"), "only two rows:\n{text}");
        // Step fields don't apply to serve envelopes; stages carry `_us`.
        assert!(top(&v, "halo_wait", 2, &mut Vec::new()).is_err());
        let e = top(&v, "work", 2, &mut Vec::new()).unwrap_err().to_string();
        assert!(e.contains("work_us"), "{e}");
    }

    #[test]
    fn diff_collapses_span_arrays_to_counts() {
        let a: Value = serde_json::from_str(&serve_envelope(1)).unwrap();
        let b: Value = serde_json::from_str(
            &serve_envelope(1).replace("\"recorded_total\":9", "\"recorded_total\":42"),
        )
        .unwrap();
        let mut buf = Vec::new();
        diff(&a, &b, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("summary.recorded_total"), "{text}");
        // Per-span leaves never appear — the record array collapses to its count.
        assert!(!text.contains("spans[0]"), "{text}");
        let mut buf = Vec::new();
        diff(&a, &a, &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("0 metrics differ"));
    }

    #[test]
    fn serve_schema_version_mismatch_is_an_error() {
        let dir = nestwx_core::TempDir::new("cli-obs-serve-ver").unwrap();
        let ok = dir.path().join("ok.json");
        let stale = dir.path().join("stale.json");
        std::fs::write(&ok, serve_envelope(nestwx_obs::SERVE_VERSION)).unwrap();
        std::fs::write(&stale, serve_envelope(nestwx_obs::SERVE_VERSION + 1)).unwrap();
        assert!(load_summary(ok.to_str().unwrap()).is_ok());
        let e = load_summary(stale.to_str().unwrap())
            .unwrap_err()
            .to_string();
        assert!(e.contains("version"), "{e}");
        // The same failure surfaces through the command entry point, so
        // `nestwx obs report` exits non-zero on a stale envelope.
        let cmd = crate::Command::Obs(ObsCmd::Report {
            path: stale.to_str().unwrap().to_string(),
        });
        assert!(crate::run(cmd, &mut Vec::new()).is_err());
    }

    fn fleet_envelope() -> String {
        let side = r#"{"bytes_in":1024,"bytes_out":2048,"frames_in":12,"frames_out":24,
            "recv_wait":{"count":8,"mean":0.001,"p50":0.001,"p90":0.002,"p99":0.004,"max":0.01},
            "compute_s":0.5,"wait_s":0.1}"#;
        format!(
            r#"{{"schema":"{FLEET_SCHEMA}","version":1,"workers":2,"iterations":4,
            "digest":"abcd1234","parent_digest":"ef567890","logical_halo_bytes":40960,
            "coordinator":{side},
            "worker_rows":[
              {{"slot":0,"nests":[0,2],"obs":{side}}},
              {{"slot":1,"nests":[1],"obs":{side}}}],
            "elapsed_s":1.25}}"#
        )
    }

    #[test]
    fn fleet_report_renders_envelope() {
        let text = render(&serde_json::from_str(&fleet_envelope()).unwrap());
        assert!(text.starts_with("nestwx-obs-fleet-summary v1\n"), "{text}");
        assert!(text.contains("workers=2  iterations=4"), "{text}");
        assert!(text.contains("digest=abcd1234"), "{text}");
        assert!(text.contains("  coordinator: bytes_in=1024"), "{text}");
        assert!(text.contains("coordinator.recv_wait: count=8"), "{text}");
        assert!(text.contains("  worker_rows (2 rows):"), "{text}");
        assert!(text.contains("obs.recv_wait.p99"), "{text}");
        assert!(text.contains("[0,2]"), "{text}");
        assert!(text.contains("[1]"), "{text}");
        // No record array: nothing for `top` to rank.
        let v = serde_json::from_str(&fleet_envelope()).unwrap();
        assert!(top(&v, "slot", 1, &mut Vec::new()).is_err());
    }

    #[test]
    fn load_summary_accepts_fleet_schema() {
        let dir = nestwx_core::TempDir::new("cli-obs-fleet").unwrap();
        let path = dir.path().join("fleet.json");
        std::fs::write(&path, fleet_envelope()).unwrap();
        let v = load_summary(path.to_str().unwrap()).unwrap();
        assert_eq!(v["schema"].as_str(), Some(FLEET_SCHEMA));
        // And through the command entry point.
        let mut buf = Vec::new();
        crate::run(
            crate::Command::Obs(ObsCmd::Report {
                path: path.to_str().unwrap().into(),
            }),
            &mut buf,
        )
        .unwrap();
        assert!(String::from_utf8(buf)
            .unwrap()
            .contains("nestwx-obs-fleet-summary v1"));
    }

    #[test]
    fn load_summary_rejects_wrong_schema() {
        let dir = nestwx_core::TempDir::new("cli-obs-schema").unwrap();
        let good = dir.path().join("good.json");
        let bad = dir.path().join("bad.json");
        let sweep = dir.path().join("sweep.json");
        let rec = Recorder::new(ObsConfig::counters());
        std::fs::write(&good, rec.summary_json()).unwrap();
        std::fs::write(&bad, "{\"schema\": \"other\", \"version\": 1}").unwrap();
        std::fs::write(
            &sweep,
            format!("{{\"schema\": \"{SWEEP_SCHEMA}\", \"version\": 1}}"),
        )
        .unwrap();
        assert!(load_summary(good.to_str().unwrap()).is_ok());
        assert!(load_summary(sweep.to_str().unwrap()).is_ok());
        let e = load_summary(bad.to_str().unwrap()).unwrap_err().to_string();
        assert!(e.contains("schema"), "{e}");
        assert!(load_summary("/nonexistent/nestwx.json").is_err());
    }

    #[test]
    fn fmt_si_prints_integers_exactly() {
        assert_eq!(fmt_si(0.0), "0");
        assert_eq!(fmt_si(14.0), "14");
        assert_eq!(fmt_si(-3.0), "-3");
        assert_eq!(fmt_si(40960.0), "40960");
        assert_eq!(fmt_si(2.5e6), "2.50M");
        assert_eq!(fmt_si(1234.5), "1.23k");
        assert_eq!(fmt_si(0.75), "750.000m");
    }
}
