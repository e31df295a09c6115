//! `drift_stream`: in-process `BootesPipeline::preprocess` over a drifting
//! sequence, with the default model, `DriftConfig` and a 256 MB memory
//! cache. Step 0 is the cold fill and belongs to set-up.

use std::time::Instant;

use bootes::cache::{Artifact, Cache, CacheConfig, ReorderArtifact};
use bootes::core::{BootesPipeline, DriftConfig, PipelineOutcome};
use bootes::drift::{changed_rows, resplice, row_pattern_hashes, DonorMatch, SimilarityIndex};
use bootes::reorder::lsh::MatrixSketch;
use bootes::sparse::{CsrMatrix, MatrixFingerprint, Permutation};
use bootes::workloads::drifting_sequence;
use bootes::workloads::gen::{clustered_with_density, GenConfig};

use crate::checks::{b_traffic_ratio_of, is_bijection};
use crate::stats::{geomean, median, summary, tail};
use crate::trace::Tracer;
use crate::{Ctx, Report};

const N: usize = 4_000;
const N_SMOKE: usize = 500;
const STEPS: usize = 128;
const STEPS_SMOKE: usize = 16;
/// Share of rows perturbed per step.
const RATE: f64 = 0.02;
const CLUSTERS: usize = 16;
const COHERENCE: f64 = 0.9;
const NNZ_PER_ROW: f64 = 16.0;
const CACHE_MB: u64 = 256;
/// Flexagon cache for the traffic guard: B is at least 4x larger.
const TRAFFIC_CACHE_BYTES: usize = 64 << 10;
const TRAFFIC_CACHE_BYTES_SMOKE: usize = 16 << 10;
/// Every pass streams a new seeded sequence: how often the donor path falls
/// back to a cold recompute depends on the sequence, so a run spreads its
/// passes over many. Every run streams at least this many.
const MIN_PASSES: usize = 4;
/// The traffic guard simulates every this-many-th step of each sequence.
const TRAFFIC_STRIDE: usize = 4;

/// Set-up of one pass: pipeline and cache build plus the step-0 cold fill.
fn set_up(step0: &CsrMatrix) -> Result<(BootesPipeline, PipelineOutcome), String> {
    let pipeline = bootes::serve::build_pipeline(None)?;
    let cache = Cache::new(CacheConfig::memory_only(CACHE_MB << 20)).map_err(|e| e.to_string())?;
    bootes::cache::install(cache);
    let out = pipeline.preprocess(step0).map_err(|e| e.to_string())?;
    Ok((pipeline, out))
}

/// Step matrices of sequence `i` of this run (step 0 first).
fn sequence(ctx: &Ctx, n: usize, steps: usize, i: usize) -> Result<Vec<CsrMatrix>, String> {
    let base = clustered_with_density(
        &GenConfig::new(n, n).seed(ctx.seed_for(10 + i as u64)),
        CLUSTERS,
        COHERENCE,
        NNZ_PER_ROW / n as f64,
    )
    .map_err(|e| e.to_string())?;
    Ok(
        drifting_sequence(&base, steps, RATE, ctx.seed_for(20 + i as u64))
            .map_err(|e| e.to_string())?
            .into_iter()
            .map(|s| s.matrix)
            .collect(),
    )
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let (n, steps) = if ctx.smoke {
        (N_SMOKE, STEPS_SMOKE)
    } else {
        (N, STEPS)
    };
    let mut report = Report::default();
    report.lines.push(format!(
        "drift_stream: drifting_sequence(clustered_with_density(n={n}, \
         clusters={CLUSTERS}, coherence={COHERENCE}, density={NNZ_PER_ROW}/n), steps={steps}, \
         rate={RATE}), a new seeded sequence every pass"
    ));

    let mut tracer = ctx.trace.then(Tracer::default);
    let mut setups = Vec::new();
    let mut step_ms = Vec::new();
    let mut pass_mb = Vec::new();
    let mut traffic_perms: Vec<Vec<Permutation>> = vec![Vec::new(); MIN_PASSES];
    let mut respliced = 0usize;
    let mut rows_respliced = 0usize;
    let deadline = Instant::now() + ctx.window();
    let mut pass = 0usize;
    while pass < MIN_PASSES || Instant::now() < deadline {
        let seq = sequence(ctx, n, steps, pass)?;
        if pass < MIN_PASSES {
            report.input(format!("drift_stream.seq{pass}.step0"), &seq[0]);
        }
        // The pass's own memory: the heap the pipeline, its cache and the
        // steps' outcomes add on top of the generated sequence.
        let base = crate::alloc::reset_peak();
        let t = Instant::now();
        let (pipeline, out0) = set_up(&seq[0])?;
        setups.push(t.elapsed().as_secs_f64());
        report.attempted += 1;
        if !is_bijection(out0.permutation.as_slice(), n) {
            report.fail("step 0 permutation is not a bijection".to_string());
        }
        for (step, a) in seq.iter().enumerate().skip(1) {
            report.attempted += 1;
            let start = Instant::now();
            let out = pipeline.preprocess(a);
            let end = Instant::now();
            let out = match out {
                Ok(o) => o,
                Err(e) => {
                    report.fail(format!("pass {pass} step {step}: {e}"));
                    continue;
                }
            };
            step_ms.push((end - start).as_secs_f64() * 1e3);
            if let Some(t) = tracer.as_mut() {
                let job = (pass * (steps + 1) + step) as u64;
                let root = t.record("drift.step", job, None, start, end);
                if !replay_step(t, &pipeline, a, &out, job, root) {
                    report.lines.push(format!(
                        "warning: pass {pass} step {step}: the replayed resplice differs"
                    ));
                }
            }
            if !is_bijection(out.permutation.as_slice(), n) {
                report.fail(format!("pass {pass} step {step}: not a bijection"));
            }
            if pass < MIN_PASSES {
                if out.stats.donor_fingerprint.is_some() && !out.stats.drift_fallback {
                    respliced += 1;
                    rows_respliced += out.stats.rows_respliced;
                }
                if step % TRAFFIC_STRIDE == 0 {
                    traffic_perms[pass].push(out.permutation);
                }
            }
        }
        pass_mb.push(crate::alloc::peak_bytes().saturating_sub(base) as f64 / (1 << 20) as f64);
        bootes::cache::uninstall();
        pass += 1;
    }
    let first_steps = MIN_PASSES * steps;
    let resplice_frac = respliced as f64 / first_steps as f64;
    if resplice_frac <= 0.0 {
        report.fail("no step was respliced: the donor path never ran".to_string());
    }
    let mean_rows = rows_respliced as f64 / first_steps as f64;

    if let Some(t) = tracer {
        traced_report(ctx, &t, &mut report, pass, resplice_frac, mean_rows);
        return Ok(report);
    }

    let traffic_cache = if ctx.smoke {
        TRAFFIC_CACHE_BYTES_SMOKE
    } else {
        TRAFFIC_CACHE_BYTES
    };
    // The traffic guard, outside the timed loop, on the first passes'
    // sequences, regenerated.
    let mut ratios = Vec::new();
    for (pass, perms) in traffic_perms.iter().enumerate() {
        let seq = sequence(ctx, n, steps, pass)?;
        if perms.len() != steps / TRAFFIC_STRIDE {
            return Err("a sampled step of the first passes failed".to_string());
        }
        let sampled = (TRAFFIC_STRIDE..=steps).step_by(TRAFFIC_STRIDE);
        for (step, p) in sampled.zip(perms) {
            ratios.push(b_traffic_ratio_of(&seq[step], p, traffic_cache)?);
        }
    }
    let ratio = geomean(&ratios).ok_or("no traffic ratios")?;
    let p50 = median(&step_ms).ok_or("no samples")?;
    let (_, tail_ms) = tail(&step_ms).ok_or("no samples")?;
    report.lines.push(format!(
        "drift_step_ms {}; mean {:.4} ms; {pass} passes; resplice_frac {resplice_frac:.3}; \
         rows respliced per step {mean_rows:.1}; peak memory added per pass {pass_mb:.1?} MB",
        summary(&step_ms, "ms"),
        step_ms.iter().sum::<f64>() / step_ms.len() as f64
    ));
    report.metric("p50_ms", p50, step_ms.len());
    report.metric("tail_ms", tail_ms, step_ms.len());
    // One caller, closed loop: throughput at the median step time. (The
    // mean, printed above, swings with the rare cold fallbacks.)
    report.metric("ops_per_s", 1e3 / p50, step_ms.len());
    report.metric("setup_s", median(&setups).unwrap_or(0.0), setups.len());
    report.metric(
        "peak_rss_mb",
        median(&pass_mb).ok_or("no passes")?,
        pass_mb.len(),
    );
    report.metric("b_traffic_ratio", ratio, ratios.len());
    Ok(report)
}

/// Replays the donor probe of `BootesPipeline::preprocess` on `a` against
/// the global cache: candidate scan, query sketch and donor choice. The
/// query's own pattern is excluded, as the pipeline excludes it.
pub fn replay_probe(
    t: &mut Tracer,
    cache: &Cache,
    drift: &DriftConfig,
    a: &CsrMatrix,
    pattern: u64,
    job: u64,
    parent: usize,
) -> Option<DonorMatch> {
    let (candidates, _) = t.time("cache.sketch_candidates", job, Some(parent), || {
        cache.sketch_candidates(drift.sketch_config_hash())
    });
    let (query, _) = t.time("drift.sketch", job, Some(parent), || {
        MatrixSketch::compute(a, drift.siglen, drift.seed)
    });
    let (donor, _) = t.time("drift.best_donor", job, Some(parent), || {
        SimilarityIndex::new(candidates).best_donor(
            &query,
            a.nrows(),
            a.ncols(),
            pattern,
            drift.floor,
        )
    });
    donor
}

/// Replays, after a real `preprocess` of `a`, the layer calls it made, as
/// children of `root`. Returns false when a replayed resplice does not
/// reproduce the pipeline's permutation.
fn replay_step(
    t: &mut Tracer,
    pipeline: &BootesPipeline,
    a: &CsrMatrix,
    out: &PipelineOutcome,
    job: u64,
    root: usize,
) -> bool {
    let (Some(cache), Some(drift)) = (bootes::cache::global(), pipeline.drift().cloned()) else {
        return true;
    };
    let key = pipeline.reorder_key(a);
    let (fp, _) = t.time("sparse.fingerprint", job, Some(root), || {
        MatrixFingerprint::of(a)
    });
    let mut same = true;
    if let Some(donor) = replay_probe(t, &cache, &drift, a, fp.pattern, job, root) {
        let (fetched, _) = t.time("cache.donor_fetch", job, Some(root), || {
            (
                cache.reorder_donor(donor.pattern, key.config, a.nrows()),
                cache.sketch_donor(donor.pattern, drift.sketch_config_hash()),
            )
        });
        if let (Some(art), Some(sketch)) = fetched {
            let (ours, _) = t.time("drift.row_hashes", job, Some(root), || {
                row_pattern_hashes(a)
            });
            let (changed, _) = t.time("drift.diff", job, Some(root), || {
                changed_rows(&sketch.row_hashes, &ours)
            });
            if !drift.should_fallback(changed.len(), a.nrows()) {
                let (p, _) = t.time("drift.resplice", job, Some(root), || {
                    resplice(a, &art.permutation, &changed)
                });
                same = p.ok().as_ref() == Some(&out.permutation);
            }
        }
    }
    let artifact = Artifact::Reorder(ReorderArtifact {
        permutation: out.permutation.clone(),
        stats: out.stats.clone(),
    });
    t.time("cache.put", job, Some(root), || cache.put(key, artifact));
    same
}

fn traced_report(
    ctx: &Ctx,
    t: &Tracer,
    report: &mut Report,
    passes: usize,
    resplice_frac: f64,
    mean_rows: f64,
) {
    let steps = t.durations("drift.step").len();
    let ms = |name: &str| t.median_secs(name) * 1e3;
    crate::trace::fill_layers(report, |name| match name {
        "sparse.fingerprint_ms" => t.layer_ms("sparse.fingerprint"),
        "drift.row_hashes_ms" => t.layer_ms("drift.row_hashes"),
        "drift.sketch_ms" => t.layer_ms("drift.sketch"),
        "drift.best_donor_ms" => t.layer_ms("drift.best_donor"),
        "drift.diff_ms" => t.layer_ms("drift.diff"),
        "drift.resplice_ms" => t.layer_ms("drift.resplice"),
        "cache.put_ms" => t.layer_ms("cache.put"),
        "cache.sketch_candidates_ms" => t.layer_ms("cache.sketch_candidates"),
        "cache.donor_fetch_ms" => t.layer_ms("cache.donor_fetch"),
        "drift.resplice_frac" => Some((resplice_frac, steps)),
        "drift.rows_respliced" => Some((mean_rows, steps)),
        "drift_stream.untraced_ms" => t.self_s("drift.step").map(|(s, n)| (s * 1e3, n)),
        _ => None,
    });
    let step_ms = ms("drift.step");
    let drift_ms: f64 = [
        "drift.row_hashes",
        "drift.sketch",
        "drift.best_donor",
        "drift.diff",
        "drift.resplice",
    ]
    .iter()
    .map(|n| ms(n))
    .sum();
    let share = 100.0 * drift_ms / step_ms.max(f64::MIN_POSITIVE);
    report.lines.push(format!(
        "drift_step_ms {step_ms:.4} ms (median of {steps} traced steps over {passes} passes)"
    ));
    report.lines.push(crate::trace::prediction(
        "the drift layer does most of the per-step work (drift.* > 50% of drift_step_ms)",
        share,
        share > 50.0,
    ));
    crate::trace::write_spans(ctx, "drift_stream", t, report);
}
