//! Spans recorded around the calls a traced run makes into each layer,
//! kept in memory and written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug)]
pub struct SpanLog {
    base: Instant,
    /// (layer call, request or batch id, start ns, end ns) after `base`.
    rows: Vec<(&'static str, u64, u64, u64)>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self {
            base: Instant::now(),
            rows: Vec::new(),
        }
    }
}

impl SpanLog {
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.base).as_nanos() as u64;
        self.rows.push((name, id, ns(start), ns(end)));
    }

    /// Writes the spans as TSV beside the harness executable (inside the
    /// checkout's build directory); a failed write loses only the log.
    pub fn write(&self, key: &str) {
        let mut out = String::from("span\tid\tstart_ns\tend_ns\n");
        for (name, id, start, end) in &self.rows {
            let _ = writeln!(out, "{name}\t{id}\t{start}\t{end}");
        }
        let path = std::env::current_exe().ok().and_then(|exe| {
            Some(
                exe.parent()?
                    .join("perfbench-traces")
                    .join(format!("{key}.tsv")),
            )
        });
        if let Some(path) = path {
            let _ = path
                .parent()
                .map(std::fs::create_dir_all)
                .transpose()
                .and_then(|_| std::fs::write(&path, out));
        }
    }
}
