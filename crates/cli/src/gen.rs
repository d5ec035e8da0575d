//! `gen <log-name> <bytes> [seed]`: print a synthetic workload log.

use std::io::Write;

/// The workload generator named `name`, or an error listing the names.
fn log_spec(name: &str) -> Result<workloads::LogSpec, String> {
    workloads::by_name(name).ok_or_else(|| {
        let names: Vec<String> = workloads::all_logs().iter().map(|s| s.name.clone()).collect();
        format!("unknown log `{name}`; available: {}", names.join(", "))
    })
}

pub(crate) fn gen_log(args: &[String]) -> Result<(), String> {
    let (name, size, seed) = match args {
        [n, s] => (n.as_str(), s, 42u64),
        [n, s, seed] => (
            n.as_str(),
            s,
            seed.parse().map_err(|_| "bad seed".to_string())?,
        ),
        _ => return Err("expected arguments: gen <log-name> <bytes> [seed]".to_string()),
    };
    let size: usize = size.parse().map_err(|_| "bad byte count".to_string())?;
    let spec = log_spec(name)?;
    let raw = spec.generate(seed, size);
    std::io::stdout()
        .write_all(&raw)
        .map_err(|e| e.to_string())
}
