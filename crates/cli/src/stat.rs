//! `stat <archive.lgb>` and `explain <archive.lgb> <command>`.

use crate::human;
use loggrep::{BlockFile, ByteMap};

pub(crate) fn explain_file(path: &str, command: &str) -> Result<(), String> {
    let file = BlockFile::open(path).map_err(|e| e.to_string())?;
    for (i, archive) in file.blocks().iter().enumerate() {
        println!("-- block {i} --");
        print!("{}", archive.explain(command).map_err(|e| e.to_string())?);
    }
    Ok(())
}

pub(crate) fn stat_file(path: &str, json: bool) -> Result<(), String> {
    let file = BlockFile::open(path).map_err(|e| e.to_string())?;
    let stored = std::fs::metadata(path)
        .map_err(|e| format!("stat {path}: {e}"))?
        .len();
    print!("{}", stat_report(&file, stored, json));
    Ok(())
}

/// Renders the statistics of an archive that takes `stored` bytes on disk,
/// as aligned text or a JSON object.
fn stat_report(file: &BlockFile, stored: u64, json: bool) -> String {
    let archives = file.blocks();
    let mut lines = 0u64;
    let mut raw = 0u64;
    let mut groups = 0usize;
    let mut capsules = 0usize;
    // Pow2-bucket histogram over compressed capsule sizes: the same
    // `HistogramSnapshot` quantiles the trace footer prints for spans.
    let sizes = telemetry::Histogram::new();
    for a in archives {
        let b = a.capsule_box();
        lines += b.total_lines as u64;
        raw += b.raw_size;
        groups += b.groups.len();
        capsules += b.capsules.len();
        for c in &b.capsules {
            sizes.record(c.clen);
        }
    }
    let sizes = sizes.snapshot();
    let ratio = raw as f64 / stored.max(1) as f64;
    let bytes = file.byte_map();
    // Per block: the group whose line numbers are not stored, and its rows.
    let implied: Vec<Option<(usize, u32)>> = archives
        .iter()
        .map(|a| {
            let b = a.capsule_box();
            let g = b.implied_group()?;
            Some((g, b.groups.get(g)?.rows()))
        })
        .collect();
    if json {
        let implied: Vec<String> = implied
            .iter()
            .map(|block| block.map_or("null".to_string(), |(g, _)| g.to_string()))
            .collect();
        return format!(
            "{{\n  \"blocks\": {},\n  \"lines\": {lines},\n  \"raw_bytes\": {raw},\n  \
             \"stored_bytes\": {stored},\n  \"ratio\": {ratio:.4},\n  \"groups\": {groups},\n  \
             \"capsules\": {capsules},\n  \"capsule_bytes\": {{\"p50\": {}, \"p95\": {}, \
             \"p99\": {}, \"max\": {}}},\n  \"implied_group\": [{}],\n  \"bytes\": {}\n}}\n",
            archives.len(),
            sizes.quantile(0.5),
            sizes.quantile(0.95),
            sizes.quantile(0.99),
            sizes.max,
            implied.join(", "),
            bytes_json(&bytes),
        );
    }
    let mut out = String::new();
    out.push_str(&format!("blocks:        {}\n", archives.len()));
    out.push_str(&format!("lines:         {lines}\n"));
    out.push_str(&format!("raw size:      {}\n", human(raw)));
    out.push_str(&format!("stored size:   {}\n", human(stored)));
    out.push_str(&format!("ratio:         {ratio:.2}x\n"));
    out.push_str(&format!("groups:        {groups}\n"));
    out.push_str(&format!("capsules:      {capsules}\n"));
    out.push_str(&format!(
        "capsule bytes: p50={} p95={} p99={} max={}\n",
        sizes.quantile(0.5),
        sizes.quantile(0.95),
        sizes.quantile(0.99),
        sizes.max,
    ));
    let implied: Vec<String> = implied
        .iter()
        .map(|block| {
            block.map_or("none".to_string(), |(g, rows)| {
                format!("g{g} ({rows} rows)")
            })
        })
        .collect();
    out.push_str(&format!("implied group: {}\n", implied.join(", ")));
    out.push_str("bytes:\n");
    for (section, n) in bytes.sections() {
        let share = 100.0 * n as f64 / stored.max(1) as f64;
        out.push_str(&format!("  {section:<18} {n:>12} {share:>5.1}%\n"));
    }
    out
}

/// The byte map as a flat JSON object, one key per section.
fn bytes_json(map: &ByteMap) -> String {
    let fields: Vec<String> = map
        .sections()
        .iter()
        .map(|(section, n)| format!("\"{section}\": {n}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use loggrep::{LogGrep, LogGrepConfig};

    #[test]
    fn stat_report_text_and_json() {
        let spec = workloads::by_name("Log C").unwrap();
        let engine = LogGrep::new(LogGrepConfig::default());
        let raw = spec.generate(3, 64 * 1024);
        let file = BlockFile::compress(&engine, &raw, raw.len()).unwrap();
        let stored = file.to_bytes().len() as u64;
        let text = stat_report(&file, stored, false);
        assert!(text.contains("blocks:        1"), "{text}");
        assert!(text.contains("ratio:"), "{text}");
        let json = stat_report(&file, stored, true);
        assert!(json.contains("\"blocks\": 1"), "{json}");
        for key in [
            "lines", "raw_bytes", "stored_bytes", "ratio", "groups", "capsules",
            "capsule_bytes", "p50", "p95", "p99",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key} in {json}");
        }
        assert!(text.contains("capsule bytes: p50="), "{text}");
        assert!(text.contains("  line_numbers "), "{text}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn stat_names_the_implied_group() {
        let engine = LogGrep::new(LogGrepConfig::default());
        // Log C has one dominant template, Log A no group holding 7/8.
        for (log, implied) in [("Log C", true), ("Log A", false)] {
            let raw = workloads::by_name(log).unwrap().generate(13, 48 * 1024);
            let file = BlockFile::compress(&engine, &raw, raw.len()).unwrap();
            let stored = file.to_bytes().len() as u64;
            let boxed = file.blocks()[0].capsule_box();
            let text = stat_report(&file, stored, false);
            let json = stat_report(&file, stored, true);
            let doc = telemetry::json::parse(&json).unwrap();
            let ids = doc
                .get("implied_group")
                .and_then(telemetry::json::Value::as_arr);
            let ids = ids.unwrap_or_else(|| panic!("{log}: no implied_group array in {json}"));
            assert_eq!(ids.len(), 1, "{log}: one entry per block");
            match boxed.implied_group() {
                Some(g) => {
                    assert!(implied, "{log}");
                    let rows = boxed.groups[g].rows();
                    let line = format!("implied group: g{g} ({rows} rows)\n");
                    assert!(text.contains(&line), "{log}: {text}");
                    assert_eq!(ids[0].as_num(), Some(g as f64), "{log}: {json}");
                }
                None => {
                    assert!(!implied, "{log}");
                    assert!(text.contains("implied group: none\n"), "{log}: {text}");
                    assert!(json.contains("\"implied_group\": [null]"), "{log}: {json}");
                }
            }
        }
    }

    #[test]
    fn stat_bytes_sum_to_the_stored_size() {
        let spec = workloads::by_name("Log C").unwrap();
        let engine = LogGrep::new(LogGrepConfig::default());
        let raw = spec.generate(3, 96 * 1024);
        let file = BlockFile::compress(&engine, &raw, 24 * 1024).unwrap();
        let stored = file.to_bytes().len() as u64;
        let doc = telemetry::json::parse(&stat_report(&file, stored, true)).unwrap();
        let bytes = doc.get("bytes").expect("bytes object");
        let telemetry::json::Value::Obj(fields) = bytes else {
            panic!("bytes is not an object: {bytes:?}");
        };
        let sum: f64 = fields
            .values()
            .filter_map(telemetry::json::Value::as_num)
            .sum();
        assert!(fields.contains_key("payload.deflate") || fields.contains_key("payload.lzma-lite"));
        assert_eq!(sum as u64, stored);
        assert_eq!(
            bytes.num("framing"),
            Some((8 + 8 * file.blocks().len()) as f64)
        );
    }
}
