//! The repository benchmark: three seeded workloads against the built
//! `bootes` program, each reporting the same end-to-end metrics, plus a
//! separate traced mode that times the calls into each crate's public
//! functions on the same inputs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_reorder|serve_mixed|drift_stream \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` beside
//! this package for the workloads, metrics and the layer → end-to-end map.

mod alloc;
mod checks;
mod cold_reorder;
mod drift_stream;
mod openloop;
mod proc;
mod serve_mixed;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// End-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("b_traffic_ratio", "ratio"),
];

/// Per-layer metrics every workload reports with `--trace 1`; a layer a
/// workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("sparse.read_s", "s"),
    ("sparse.write_s", "s"),
    ("sparse.permute_s", "s"),
    ("linalg.laplacian_s", "s"),
    ("linalg.lanczos_s", "s"),
    ("linalg.lanczos_matvecs", "count"),
    ("linalg.kmeans_s", "s"),
    ("linalg.kmeans_iters", "count"),
    ("core.cluster_s", "s"),
    ("core.order_s", "s"),
    ("core.fallback_reorder_s", "s"),
    ("cold_reorder.untraced_s", "s"),
    ("cold_reorder.bytes_read", "bytes"),
    ("cold_reorder.bytes_written", "bytes"),
    ("serve.decode_ms", "ms"),
    ("serve.to_csr_ms", "ms"),
    ("serve.encode_resp_ms", "ms"),
    ("sparse.fingerprint_ms", "ms"),
    ("core.preprocess_hit_ms", "ms"),
    ("core.preprocess_miss_ms", "ms"),
    ("serve.cache_hit_frac", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.rejected", "count"),
    ("serve.gen_late_ms", "ms"),
    ("serve.request_bytes", "bytes"),
    ("serve_mixed.untraced_ms", "ms"),
    ("drift.row_hashes_ms", "ms"),
    ("drift.sketch_ms", "ms"),
    ("drift.best_donor_ms", "ms"),
    ("drift.diff_ms", "ms"),
    ("drift.resplice_ms", "ms"),
    ("cache.put_ms", "ms"),
    ("cache.sketch_candidates_ms", "ms"),
    ("cache.donor_fetch_ms", "ms"),
    ("drift.resplice_frac", "ratio"),
    ("drift.rows_respliced", "count"),
    ("drift_stream.untraced_ms", "ms"),
];

/// Settings of one run.
pub struct Ctx {
    /// Repository root (the run's working directory).
    pub root: PathBuf,
    /// The `bootes` program under test.
    pub bootes: PathBuf,
    /// Scratch directory of this run, removed at exit.
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small inputs and short phases, for the benchmark's own tests.
    pub smoke: bool,
}

impl Ctx {
    /// A seed for input stream `stream`, derived from the run seed.
    pub fn seed_for(&self, stream: u64) -> u64 {
        SplitMix(self.seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
    }

    /// Measurement window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// SplitMix64: the benchmark's own seeded stream.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n.max(1)
    }
}

/// One reported metric value.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for a count or a deterministic ratio).
    pub samples: usize,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
    /// `(input, fingerprint)` of every generated input.
    pub inputs: Vec<(String, String)>,
    /// Kernel threads of the program under test, when a workload pins them
    /// (otherwise `BOOTES_THREADS` or all cores).
    pub threads: Option<usize>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            samples,
        });
    }

    /// Records a failed check as a failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.lines.push(format!("CHECK FAILED: {what}"));
    }

    /// Records the pattern fingerprint of a generated input.
    pub fn input(&mut self, name: impl Into<String>, a: &bootes::sparse::CsrMatrix) {
        let fp = bootes::sparse::MatrixFingerprint::of(a);
        self.inputs.push((
            name.into(),
            format!(
                "{}x{}/{}nnz/{:016x}",
                fp.nrows, fp.ncols, fp.nnz, fp.pattern
            ),
        ));
    }
}

/// JSON number: finite values as Rust prints them (shortest round-trip
/// form), anything else as the largest finite double.
fn json_num(x: f64) -> String {
    let x = if x.is_finite() { x } else { f64::MAX };
    format!("{x:?}")
}

/// The commit the checkout was made from, when it is a git checkout.
fn git_rev(root: &Path) -> String {
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(root.join(".git/HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(root.join(".git").join(reference)) {
        return rev;
    }
    read(root.join(".git/packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Builds the `bootes` binary from the repository sources into the target
/// directory this benchmark was built into, and returns its path.
pub fn build_bootes(root: &Path) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let mut dir = exe.parent().ok_or("binary has no parent directory")?;
    if dir.file_name().is_some_and(|n| n == "deps") {
        dir = dir.parent().ok_or("deps has no parent directory")?;
    }
    let target_dir = dir.parent().ok_or("profile directory has no parent")?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "bootes",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target_dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building bootes failed: {status}"));
    }
    Ok(target_dir.join("release").join("bootes"))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Runs one workload in `ctx` and checks that it reported every metric of
/// its mode.
pub fn run_workload(name: &str, ctx: &Ctx) -> Result<Report, String> {
    let report = match name {
        "cold_reorder" => cold_reorder::run(ctx)?,
        "serve_mixed" => serve_mixed::run(ctx)?,
        "drift_stream" => drift_stream::run(ctx)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let expected: Vec<&str> = if ctx.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    for name in &expected {
        if !report.metrics.iter().any(|m| m.name == *name) {
            return Err(format!("internal: workload did not report {name}"));
        }
    }
    if report.metrics.len() != expected.len() {
        return Err("internal: workload reported an unlisted metric".to_string());
    }
    Ok(report)
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.0 == name)
        .map_or("", |m| m.1)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.."));
    let bootes = match build_bootes(&root) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::env::set_current_dir(&root) {
        eprintln!("error: enter {}: {e}", root.display());
        return ExitCode::FAILURE;
    }
    let work = PathBuf::from(format!(
        ".bench_work/{}-{}",
        args.workload,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        root: PathBuf::from("."),
        bootes,
        work: work.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: false,
    };
    let ticks_before = proc::cpu_ticks();
    let result = run_workload(&args.workload, &ctx);
    let steal_pct = match (ticks_before, proc::cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => f64::NAN,
    };
    let _ = std::fs::remove_dir_all(&work);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_report(&args, &ctx, &report, steal_pct);
    ExitCode::SUCCESS
}

/// Prints the run's environment, its report lines and metrics, and last the
/// JSON result. `steal_pct` is the share of the machine's CPU time the
/// hypervisor gave elsewhere during the run: timings of a run with much of
/// it are not comparable with others.
fn print_report(args: &Args, ctx: &Ctx, report: &Report, steal_pct: f64) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = report.threads.map_or_else(
        || std::env::var("BOOTES_THREADS").unwrap_or_else(|_| nproc.to_string()),
        |t| t.to_string(),
    );
    let inputs: Vec<String> = report
        .inputs
        .iter()
        .map(|(k, v)| format!("\"{k}\":\"{v}\""))
        .collect();
    println!(
        "env: {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"threads\":\"{threads}\",\"git_rev\":\"{}\",\"steal_pct\":{},\"inputs\":{{{}}}}}",
        args.workload,
        ctx.seed,
        ctx.seconds,
        ctx.trace,
        git_rev(&ctx.root),
        if steal_pct.is_finite() {
            format!("{steal_pct:.1}")
        } else {
            "null".to_string()
        },
        inputs.join(",")
    );
    for line in &report.lines {
        println!("{line}");
    }
    for m in &report.metrics {
        println!(
            "{:<28} {:>14.4} {:<6} (n={})",
            m.name,
            m.value,
            unit_of(m.name),
            m.samples
        );
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                unit_of(m.name)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_have_unique_names() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this program reports, with the same units.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json: String = std::fs::read_to_string(path)
            .expect("read BENCHMARK.json")
            .split_whitespace()
            .collect();
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn json_numbers_are_valid_json() {
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::INFINITY), format!("{:?}", f64::MAX));
        assert!(json_num(1e-7).parse::<f64>().is_ok());
    }

    /// Builds the program and runs every workload end to end, untraced and
    /// traced, on small inputs for about a second each.
    #[test]
    fn smoke_runs_all_three_workloads() {
        let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.."));
        let bootes = build_bootes(&root).expect("build bootes");
        for trace in [false, true] {
            for workload in ["cold_reorder", "serve_mixed", "drift_stream"] {
                // Relative to the package directory, where tests run: a
                // Unix socket path must stay short.
                let work = PathBuf::from(format!(
                    "../.bench_work/smoke-{workload}-{}-{}",
                    u8::from(trace),
                    std::process::id()
                ));
                std::fs::create_dir_all(&work).expect("create work dir");
                let ctx = Ctx {
                    root: root.clone(),
                    bootes: bootes.clone(),
                    work: work.clone(),
                    seed: 7,
                    seconds: 1.0,
                    trace,
                    smoke: true,
                };
                let report = run_workload(workload, &ctx);
                let _ = std::fs::remove_dir_all(&work);
                let report = report.unwrap_or_else(|e| panic!("{workload}: {e}"));
                assert!(report.attempted > 0, "{workload}");
                assert_eq!(report.failed, 0, "{workload}: {:?}", report.lines);
            }
        }
    }

    #[test]
    fn seeds_differ_per_stream() {
        let ctx = Ctx {
            root: PathBuf::new(),
            bootes: PathBuf::new(),
            work: PathBuf::new(),
            seed: 3,
            seconds: 1.0,
            trace: false,
            smoke: true,
        };
        assert_ne!(ctx.seed_for(1), ctx.seed_for(2));
        assert_eq!(ctx.seed_for(1), ctx.seed_for(1));
    }
}
