//! `trace <archive.lgb> <command>`.

use loggrep::BlockFile;

/// `trace <archive.lgb> <command> [--out FILE] [--collapsed FILE]`: runs
/// the query with the trace journal on and writes the Chrome trace-event
/// JSON to `--out` (stdout when omitted). `--collapsed` additionally writes
/// flamegraph-collapsed stacks built from the journal's exact timings.
pub(crate) fn trace_cmd(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "trace <archive.lgb> <command> [--out FILE] [--collapsed FILE]";
    let mut positional: Vec<&str> = Vec::new();
    let mut out_file: Option<&str> = None;
    let mut collapsed_file: Option<&str> = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--out" => {
                out_file = Some(iter.next().ok_or("--out needs a file argument")?);
            }
            "--collapsed" => {
                collapsed_file = Some(iter.next().ok_or("--collapsed needs a file argument")?);
            }
            other => positional.push(other),
        }
    }
    let [archive_path, command] = positional[..] else {
        return Err(format!("expected arguments: {USAGE}"));
    };

    telemetry::set_enabled(true);
    telemetry::reset();
    telemetry::set_journal_enabled(true);
    telemetry::clear_journal();
    let file = BlockFile::open(archive_path).map_err(|e| e.to_string())?;
    let mut total = 0usize;
    for archive in file.blocks() {
        total = total.saturating_add(
            archive.query(command).map_err(|e| e.to_string())?.lines.len(),
        );
    }

    let events = telemetry::journal_events();
    let chrome = telemetry::export_chrome_trace(&events);
    match out_file {
        Some(path) => {
            std::fs::write(path, chrome).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("trace journal: {} event(s) -> {path}", events.len());
        }
        None => print!("{chrome}"),
    }
    if let Some(path) = collapsed_file {
        std::fs::write(path, telemetry::export_collapsed(&events))
            .map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("collapsed stacks -> {path}");
    }
    eprintln!("({total} matching line(s))");
    Ok(())
}
