//! `cold_reorder`: one `bootes reorder in.mtx -o out.mtx` subprocess at a
//! time, closed loop with one caller, default threads.

use std::collections::hash_map::DefaultHasher;
use std::fs::File;
use std::hash::{Hash, Hasher};
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use bootes::core::{BootesConfig, FallbackReorderer, SpectralReorderer};
use bootes::linalg::kmeans::{kmeans, KMeansConfig};
use bootes::linalg::lanczos::{lanczos_smallest_warm, LanczosConfig};
use bootes::linalg::laplacian::ImplicitNormalizedLaplacian;
use bootes::reorder::Reorderer;
use bootes::sparse::io::{read_matrix_market, write_matrix_market};
use bootes::sparse::{CsrMatrix, DenseMatrix};
use bootes::workloads::gen::{clustered_with_density, GenConfig};

use crate::checks::{b_traffic_ratio, parse_mtx, same_rows};
use crate::proc::run_measured;
use crate::stats::{geomean, median, summary, tail};
use crate::trace::Tracer;
use crate::{Ctx, Report};

/// Rows (and columns) of the input. The reorder time of an input depends on
/// the size of the largest cluster k-means finds; at this size a run
/// reorders each of the [`INPUTS`] inputs at least once, enough for a median
/// that holds between seeds.
const N: usize = 10_000;
const N_SMOKE: usize = 2_000;
const CLUSTERS: usize = 16;
const COHERENCE: f64 = 0.9;
const NNZ_PER_ROW: f64 = 16.0;
/// Flexagon cache for the traffic guard: B is at least 4x larger.
const CACHE_BYTES: usize = 256 << 10;
const CACHE_BYTES_SMOKE: usize = 64 << 10;
/// The CLI's default cluster count.
const K: usize = 8;
/// Distinct seeded inputs, reordered in turn. The cost of a reorder depends
/// on how k-means happens to split each input, so a run spreads its samples
/// over several inputs; every run reorders each of them at least once.
const INPUTS: usize = 16;
/// Times each input's set-up is repeated, for a steadier `setup_s` median.
const SETUP_ROUNDS: usize = 3;

fn digest(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}

fn write_input(path: &Path, a: &CsrMatrix) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    write_matrix_market(&mut w, a).map_err(|e| e.to_string())?;
    w.flush()
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// Runs one CLI reorder and checks its output; returns the wall time, the
/// child's peak RSS in kB and the output bytes, or why the operation failed.
fn reorder_once(
    ctx: &Ctx,
    input: &Path,
    output: &Path,
    a: &CsrMatrix,
) -> Result<(Duration, u64, Vec<u8>), String> {
    let _ = std::fs::remove_file(output);
    let exit = run_measured(
        Command::new(&ctx.bootes)
            .arg("reorder")
            .arg(input)
            .arg("-o")
            .arg(output),
    )
    .map_err(|e| format!("spawn bootes reorder: {e}"))?;
    if !exit.success {
        return Err("bootes reorder exited with an error".to_string());
    }
    let bytes = std::fs::read(output).map_err(|e| format!("read output: {e}"))?;
    let text = std::str::from_utf8(&bytes).map_err(|e| format!("output is not UTF-8: {e}"))?;
    same_rows(a, &parse_mtx(text)?)?;
    Ok((exit.wall, exit.maxrss_kb, bytes))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let n = if ctx.smoke { N_SMOKE } else { N };
    let cache_bytes = if ctx.smoke {
        CACHE_BYTES_SMOKE
    } else {
        CACHE_BYTES
    };
    let output = ctx.work.join("out.mtx");
    let mut report = Report::default();

    // Set-up: generate each input and write it as Matrix Market, in
    // SETUP_ROUNDS rounds that regenerate the same inputs.
    let mut setups = Vec::new();
    let mut inputs = Vec::new();
    for round in 0..SETUP_ROUNDS {
        for i in 0..INPUTS {
            let t = Instant::now();
            let cfg = GenConfig::new(n, n).seed(ctx.seed_for(1 + i as u64));
            let a = clustered_with_density(&cfg, CLUSTERS, COHERENCE, NNZ_PER_ROW / n as f64)
                .map_err(|e| e.to_string())?;
            let path = ctx.work.join(format!("in{i}.mtx"));
            write_input(&path, &a)?;
            setups.push(t.elapsed().as_secs_f64());
            if round == 0 {
                report.input(format!("cold_reorder.in{i}"), &a);
                inputs.push((path, a));
            }
        }
    }
    report.lines.push(format!(
        "cold_reorder: {INPUTS} x clustered_with_density(n={n}, clusters={CLUSTERS}, \
         coherence={COHERENCE}, density={NNZ_PER_ROW}/n), reordered in turn by \
         `bootes reorder in.mtx -o out.mtx`"
    ));
    if ctx.trace {
        traced(ctx, &inputs, &output, &mut report)?;
        return Ok(report);
    }

    let deadline = Instant::now() + ctx.window();
    let mut walls = Vec::new();
    let mut walls_by_input = vec![Vec::new(); INPUTS];
    let mut rss_kb = Vec::new();
    let mut first_outputs: Vec<Option<(u64, Vec<u8>)>> = vec![None; INPUTS];
    let mut op = 0;
    while op < INPUTS || Instant::now() < deadline {
        let (input, a) = &inputs[op % INPUTS];
        report.attempted += 1;
        match reorder_once(ctx, input, &output, a) {
            Ok((wall, kb, bytes)) => {
                walls.push(wall.as_secs_f64() * 1e3);
                walls_by_input[op % INPUTS].push(wall.as_secs_f64() * 1e3);
                rss_kb.push(kb as f64);
                let d = digest(&bytes);
                match &first_outputs[op % INPUTS] {
                    None => first_outputs[op % INPUTS] = Some((d, bytes)),
                    Some((first, _)) if *first != d => report.fail(format!(
                        "reorder output of input {} differs from its first run's",
                        op % INPUTS
                    )),
                    Some(_) => {}
                }
            }
            Err(e) => report.fail(e),
        }
        op += 1;
    }
    let mut ratios = Vec::new();
    for ((_, a), first) in inputs.iter().zip(first_outputs) {
        let (_, bytes) = first.ok_or("an input was never reordered successfully")?;
        let text = String::from_utf8(bytes).map_err(|e| e.to_string())?;
        ratios.push(b_traffic_ratio(a, &parse_mtx(&text)?, cache_bytes)?);
    }

    // Every input weighs the same, however many times the window let it be
    // reordered: first each input's median, then the median over inputs.
    let per_input: Vec<f64> = walls_by_input.iter().filter_map(|w| median(w)).collect();
    let (_, tail_ms) = tail(&per_input).ok_or("no samples")?;
    let p50 = median(&per_input).ok_or("no samples")?;
    let secs: Vec<f64> = walls.iter().map(|ms| ms / 1e3).collect();
    report.lines.push(format!(
        "reorder_s {}; samples {secs:.3?}",
        summary(&secs, "s")
    ));
    let mb: Vec<f64> = rss_kb.iter().map(|kb| kb / 1024.0).collect();
    report
        .lines
        .push(format!("peak RSS per reorder (MB): {mb:.1?}"));
    report.metric("p50_ms", p50, walls.len());
    report.metric("tail_ms", tail_ms, walls.len());
    // One caller, closed loop: throughput at the median reorder time.
    report.metric("ops_per_s", 1e3 / p50, walls.len());
    report.metric("setup_s", median(&setups).unwrap_or(0.0), setups.len());
    report.metric(
        "peak_rss_mb",
        median(&rss_kb).unwrap_or(0.0) / 1024.0,
        rss_kb.len(),
    );
    report.metric(
        "b_traffic_ratio",
        geomean(&ratios).ok_or("no ratios")?,
        ratios.len(),
    );
    Ok(report)
}

/// Traced mode: each job is one CLI reorder (the root span) followed by
/// replays of the layer calls it makes, on the same input.
fn traced(
    ctx: &Ctx,
    inputs: &[(PathBuf, CsrMatrix)],
    output: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let config = BootesConfig::default().with_k(K);
    let replay_out = ctx.work.join("replay.mtx");
    let mut t = Tracer::default();
    let mut matvecs = Vec::new();
    let mut kmeans_iters = Vec::new();
    let mut bytes_read = Vec::new();
    let mut bytes_written = Vec::new();
    let deadline = Instant::now() + ctx.window();
    let mut job = 0u64;
    while job == 0 || Instant::now() < deadline {
        let (input, a) = &inputs[job as usize % inputs.len()];
        report.attempted += 1;
        let start = Instant::now();
        let (root, cli_bytes) = match reorder_once(ctx, input, output, a) {
            // The root span is the subprocess alone, not the output check.
            Ok((wall, _, bytes)) => (
                t.record("cold_reorder.op", job, None, start, start + wall),
                bytes,
            ),
            Err(e) => {
                report.fail(e);
                job += 1;
                continue;
            }
        };
        bytes_read.push(std::fs::metadata(input).map_err(|e| e.to_string())?.len() as f64);
        bytes_written.push(cli_bytes.len() as f64);

        let (read, _) = t.time("sparse.read", job, Some(root), || {
            File::open(input)
                .map_err(|e| e.to_string())
                .and_then(|f| read_matrix_market(BufReader::new(f)).map_err(|e| e.to_string()))
        });
        let a2 = read?;
        // Each replay gets a fresh artifact cache, as each CLI run does.
        let fresh_cache = || {
            bootes::cache::install(
                bootes::cache::Cache::new(bootes::cache::CacheConfig::memory_only(256 << 20))
                    .expect("a memory-only cache has no I/O to fail"),
            );
        };
        fresh_cache();
        let (fb, fb_id) = t.time("core.fallback_reorder", job, Some(root), || {
            FallbackReorderer::new(config.clone()).reorder(&a2)
        });
        let fb = fb.map_err(|e| e.to_string())?;
        fresh_cache();
        let (sp, sp_id) = t.time("core.reorder", job, Some(fb_id), || {
            SpectralReorderer::new(config.clone()).reorder(&a2)
        });
        let sp = sp.map_err(|e| e.to_string())?;
        fresh_cache();
        let (cl, cl_id) = t.time("core.cluster", job, Some(sp_id), || {
            SpectralReorderer::new(config.clone()).cluster(&a2)
        });
        let (labels, _) = cl.map_err(|e| e.to_string())?;
        bootes::cache::uninstall();

        // The eigensolve and k-means configured as `SpectralReorderer`
        // configures them from `BootesConfig`'s public fields.
        let n = a2.nrows();
        let k = config.k.min(n);
        let k_embed = (k + config.extra_embed.min(k)).clamp(k, n.saturating_sub(1).max(k));
        let lcfg = LanczosConfig {
            tol: config.eig_tol,
            max_restarts: config.max_restarts,
            seed: config.seed,
            allow_unconverged: true,
            converge_k: k,
            max_subspace: (k_embed + 16).min(n),
        };
        let (op, _) = t.time("linalg.laplacian", job, Some(cl_id), || {
            ImplicitNormalizedLaplacian::new(&a2)
        });
        let (eig, _) = t.time("linalg.lanczos", job, Some(cl_id), || {
            lanczos_smallest_warm(&op, k_embed, &lcfg, &[])
        });
        let eig = eig.map_err(|e| e.to_string())?;
        matvecs.push(eig.matvecs as f64);
        let mut embedding = DenseMatrix::zeros(n, k_embed);
        for (j, v) in eig.eigenvectors.iter().enumerate() {
            for (i, x) in v.iter().enumerate() {
                embedding[(i, j)] = *x;
            }
        }
        let kcfg = KMeansConfig {
            max_iter: config.kmeans_max_iter,
            n_init: config.kmeans_n_init,
            seed: config.seed ^ 0x5EED,
            ..KMeansConfig::default()
        };
        let (km, _) = t.time("linalg.kmeans", job, Some(cl_id), || {
            kmeans(&embedding, k, &kcfg)
        });
        let km = km.map_err(|e| e.to_string())?;
        kmeans_iters.push(km.iterations as f64);

        let (permuted, _) = t.time("sparse.permute", job, Some(root), || {
            fb.permutation.apply_rows(&a2)
        });
        let permuted = permuted.map_err(|e| e.to_string())?;
        // The same writer the CLI passes: an unbuffered `File`.
        let (written, _) = t.time("sparse.write", job, Some(root), || {
            File::create(&replay_out)
                .map_err(|e| e.to_string())
                .and_then(|mut f| write_matrix_market(&mut f, &permuted).map_err(|e| e.to_string()))
        });
        written?;

        if labels != km.labels || fb.permutation != sp.permutation {
            report.lines.push(format!(
                "warning: job {job}: the layer replay diverges from SpectralReorderer"
            ));
        }
        let replayed = std::fs::read(&replay_out).map_err(|e| e.to_string())?;
        if digest(&replayed) != digest(&cli_bytes) {
            report.lines.push(format!(
                "warning: job {job}: the replayed output differs from the CLI's"
            ));
        }
        job += 1;
    }

    let jobs = t.durations("cold_reorder.op").len();
    let reorder_s = t.median_secs("cold_reorder.op");
    // `SpectralReorderer::reorder` minus `cluster`: the permutation synthesis.
    let order = t.self_s("core.reorder");
    let order_s = order.map_or(0.0, |o| o.0);
    let linalg_s = t.median_secs("linalg.laplacian")
        + t.median_secs("linalg.lanczos")
        + t.median_secs("linalg.kmeans");
    let write_s = t.median_secs("sparse.write");
    crate::trace::fill_layers(report, |name| match name {
        "sparse.read_s" => t.layer_s("sparse.read"),
        "sparse.write_s" => t.layer_s("sparse.write"),
        "sparse.permute_s" => t.layer_s("sparse.permute"),
        "linalg.laplacian_s" => t.layer_s("linalg.laplacian"),
        "linalg.lanczos_s" => t.layer_s("linalg.lanczos"),
        "linalg.lanczos_matvecs" => median(&matvecs).map(|m| (m, matvecs.len())),
        "linalg.kmeans_s" => t.layer_s("linalg.kmeans"),
        "linalg.kmeans_iters" => median(&kmeans_iters).map(|m| (m, kmeans_iters.len())),
        "core.cluster_s" => t.layer_s("core.cluster"),
        "core.order_s" => order,
        "core.fallback_reorder_s" => t.layer_s("core.fallback_reorder"),
        "cold_reorder.untraced_s" => t.self_s("cold_reorder.op"),
        "cold_reorder.bytes_read" => median(&bytes_read).map(|b| (b, bytes_read.len())),
        "cold_reorder.bytes_written" => median(&bytes_written).map(|b| (b, bytes_written.len())),
        _ => None,
    });
    let share = |x: f64| 100.0 * x / reorder_s.max(f64::MIN_POSITIVE);
    report.lines.push(format!(
        "reorder_s {reorder_s:.4} s (median of {jobs} traced jobs)"
    ));
    report.lines.push(crate::trace::prediction(
        "core.order_s + linalg.* make up most of reorder_s",
        share(order_s + linalg_s),
        share(order_s + linalg_s) > 50.0,
    ));
    report.lines.push(crate::trace::prediction(
        "sparse.write_s is a large share of reorder_s (> 20%)",
        share(write_s),
        share(write_s) > 20.0,
    ));
    crate::trace::write_spans(ctx, "cold_reorder", &t, report);
    Ok(())
}
