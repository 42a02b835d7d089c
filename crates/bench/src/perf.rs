//! The machine-readable perf summary `repro --bench-json` writes: wall
//! clock and simulation counts per figure, plus run-cache effectiveness
//! (the benchmark's `figures` workload reads it).

use std::time::Duration;

/// Per-figure measurement of one `repro` invocation.
#[derive(Clone, Debug)]
pub struct FigurePerf {
    /// Figure label, e.g. `"fig16"`.
    pub figure: String,
    /// Wall-clock time spent producing the figure.
    pub wall: Duration,
    /// Simulated dynamic loads executed for this figure (fresh runs only —
    /// memoized runs cost nothing and count nothing).
    pub sim_loads: u64,
    /// Cache-simulator demand accesses (loads + stores) for this figure.
    pub sim_accesses: u64,
}

/// The machine-readable perf summary of one `repro` run
/// (`--bench-json <path>`): per-figure wall-clock and simulation
/// throughput, plus run-cache effectiveness.
#[derive(Clone, Debug, Default)]
pub struct PerfSummary {
    /// `test` or `paper`.
    pub scale: String,
    /// Worker threads used.
    pub jobs: usize,
    /// Whether superinstruction fusion was enabled (`repro --no-fuse`
    /// clears it; the A/B switch for the self-applied-PGO measurements).
    pub fuse: bool,
    /// Per-figure measurements, in production order.
    pub figures: Vec<FigurePerf>,
    /// Run-cache hits across the whole invocation.
    pub run_cache_hits: u64,
    /// Run-cache misses (fresh simulations) across the whole invocation.
    pub run_cache_misses: u64,
}

impl PerfSummary {
    /// Total wall-clock across all figures.
    pub fn total_wall(&self) -> Duration {
        self.figures.iter().map(|f| f.wall).sum()
    }

    /// Serializes the summary to JSON.
    pub fn to_json(&self) -> String {
        let total = self.total_wall().as_secs_f64();
        let loads: u64 = self.figures.iter().map(|f| f.sim_loads).sum();
        let accesses: u64 = self.figures.iter().map(|f| f.sim_accesses).sum();
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"scale\": {},\n", json_string(&self.scale)));
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str(&format!("  \"fuse\": {},\n", self.fuse));
        out.push_str(&format!("  \"total_wall_s\": {total:.3},\n"));
        out.push_str(&format!("  \"sim_loads\": {loads},\n"));
        out.push_str(&format!("  \"sim_accesses\": {accesses},\n"));
        out.push_str(&format!(
            "  \"loads_per_sec\": {:.0},\n",
            loads as f64 / total.max(1e-9)
        ));
        out.push_str(&format!(
            "  \"accesses_per_sec\": {:.0},\n",
            accesses as f64 / total.max(1e-9)
        ));
        out.push_str(&format!("  \"run_cache_hits\": {},\n", self.run_cache_hits));
        out.push_str(&format!(
            "  \"run_cache_misses\": {},\n",
            self.run_cache_misses
        ));
        out.push_str("  \"figures\": [\n");
        for (i, f) in self.figures.iter().enumerate() {
            let wall = f.wall.as_secs_f64();
            out.push_str(&format!(
                "    {{\"figure\": {}, \"wall_s\": {:.3}, \"sim_loads\": {}, \"sim_accesses\": {}, \"loads_per_sec\": {:.0}, \"accesses_per_sec\": {:.0}}}",
                json_string(&f.figure),
                wall,
                f.sim_loads,
                f.sim_accesses,
                f.sim_loads as f64 / wall.max(1e-9),
                f.sim_accesses as f64 / wall.max(1e-9),
            ));
            out.push_str(if i + 1 < self.figures.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}");
        out
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_json_totals() {
        let s = PerfSummary {
            scale: "test".into(),
            jobs: 2,
            fuse: true,
            figures: vec![
                FigurePerf {
                    figure: "fig16".into(),
                    wall: Duration::from_millis(500),
                    sim_loads: 1000,
                    sim_accesses: 2000,
                },
                FigurePerf {
                    figure: "fig17".into(),
                    wall: Duration::from_millis(500),
                    sim_loads: 500,
                    sim_accesses: 700,
                },
            ],
            run_cache_hits: 3,
            run_cache_misses: 5,
        };
        let j = s.to_json();
        assert!(j.contains("\"sim_loads\": 1500"));
        assert!(j.contains("\"fuse\": true"));
        assert!(j.contains("\"loads_per_sec\": 1500"));
        assert!(j.contains("\"run_cache_hits\": 3"));
        assert!(j.contains("\"figures\": ["));
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\nb"), "\"a\\nb\"");
        assert_eq!(json_string("q\"\\"), "\"q\\\"\\\\\"");
    }
}
