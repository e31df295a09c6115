//! `serve_mixed`: a `bootes serve --listen unix:…` daemon fed `preprocess`
//! requests for clustered matrices. 80% of requests repeat one of 8
//! recurring patterns (exact cache hits once warm), 20% are fresh seeded
//! matrices (cold). Request payloads are encoded before each phase's clock
//! starts. Phase (a) is an open loop at a fixed offered rate over 2
//! connections, timed from each request's due time; phase (b) is a closed
//! loop over 2 connections. The two alternate in segments across the window.

use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bootes::cache::{Cache, CacheConfig};
use bootes::serve::protocol::{decode, encode};
use bootes::serve::{Client, MatrixPayload, Request, Response, ServerStats};
use bootes::sparse::{CsrMatrix, MatrixFingerprint};
use bootes::workloads::gen::{clustered_with_density, GenConfig};

use crate::checks::{b_traffic_ratio_of, is_bijection};
use crate::drift_stream::replay_probe;
use crate::openloop::{closed_loop, open_loop, Conn, Outcome, Planned};
use crate::proc::{vm_hwm_kb, Daemon};
use crate::stats::{geomean, median, percentile, summary, tail};
use crate::trace::Tracer;
use crate::{Ctx, Report, SplitMix};

const N: usize = 2_000;
const N_SMOKE: usize = 500;
const CLUSTERS: usize = 16;
const COHERENCE: f64 = 0.9;
const NNZ_PER_ROW: f64 = 16.0;
/// Recurring patterns; one request in every `BLOCK` is fresh, the rest
/// repeat a recurring pattern.
const PATTERNS: usize = 8;
const BLOCK: usize = 5;
/// Offered rate of the open loop, requests per second: about a third of the
/// closed-loop capacity measured on the commit that defined this benchmark
/// (56-75 requests/s on 2 CPUs). At half the capacity the median swung by a
/// quarter between runs. Fixed; never derived per run.
const RATE: f64 = 20.0;
const RATE_SMOKE: f64 = 40.0;
/// Connections, and load threads (one per connection).
const CONNS: usize = 2;
/// Kernel threads of the daemon (`--threads`): its 2 workers, one kernel
/// thread each, match the 2 CPUs the load was sized for, so a cold request
/// does not slow a concurrent hit by taking both.
const DAEMON_THREADS: usize = 1;
/// Share of the window given to the open loop; the closed loop gets the rest.
const OPEN_SHARE: f64 = 0.7;
/// Open/closed segment pairs the window is cut into. The machine's speed
/// changes over seconds; short alternating segments spread both phases over
/// the same spells, and every metric pools the samples of all segments.
const ROUNDS: usize = 10;
/// Closed-loop requests per second of the closed-loop share of the window:
/// about the closed-loop capacity measured on the commit that defined this
/// benchmark. A closed-loop segment runs until its requests are answered,
/// so every run sends the daemon the same requests and its cache ends up
/// holding the same entries, however fast the machine ran.
const CLOSED_RPS: f64 = 75.0;
/// Flexagon cache for the traffic guard: B is at least 4x larger.
const TRAFFIC_CACHE_BYTES: usize = 64 << 10;
const TRAFFIC_CACHE_BYTES_SMOKE: usize = 16 << 10;
/// A closed loop that ends when its requests run out.
const NO_DEADLINE: Duration = Duration::from_secs(600);
/// Untimed traffic before the window, seconds (at most a quarter of it).
const WARMUP_SECS: f64 = 3.0;
/// Daemon set-ups behind `setup_s`. A set-up is the spawn until the
/// readiness line plus the cache fill with the recurring patterns: the
/// spawn alone takes 1-2 ms and its median moved by a quarter between two
/// rounds of runs of the same code.
const SETUPS: usize = 5;

/// Which matrix a request carries.
#[derive(Clone, Copy)]
enum Kind {
    Recurring(usize),
    Fresh,
}

struct Inputs {
    n: usize,
    patterns: Vec<CsrMatrix>,
    payloads: Vec<Arc<str>>,
    rng: SplitMix,
    fresh_seed: SplitMix,
    next_id: u64,
}

fn matrix(n: usize, seed: u64) -> Result<CsrMatrix, String> {
    clustered_with_density(
        &GenConfig::new(n, n).seed(seed),
        CLUSTERS,
        COHERENCE,
        NNZ_PER_ROW / n as f64,
    )
    .map_err(|e| e.to_string())
}

fn payload(a: &CsrMatrix) -> Arc<str> {
    encode(&MatrixPayload::from_csr(a)).into()
}

impl Inputs {
    /// Plans `count` requests (encoding fresh matrices now), due at `rate`
    /// per second and dealt round-robin over the connections.
    fn plan(&mut self, count: usize, rate: f64) -> Result<(Vec<Vec<Planned>>, Vec<Kind>), String> {
        let mut plans = vec![Vec::new(); CONNS];
        let mut kinds = Vec::with_capacity(count);
        let mut fresh_at = 0;
        for i in 0..count {
            // Exactly one fresh request in every block of BLOCK, at a seeded
            // position, so every run carries the same mix.
            if i % BLOCK == 0 {
                fresh_at = self.rng.below(BLOCK);
            }
            let (kind, payload) = if i % BLOCK != fresh_at {
                let j = self.rng.below(PATTERNS);
                (Kind::Recurring(j), self.payloads[j].clone())
            } else {
                (
                    Kind::Fresh,
                    payload(&matrix(self.n, self.fresh_seed.next_u64())?),
                )
            };
            plans[i % CONNS].push(Planned {
                id: self.next_id + i as u64,
                due: Duration::from_secs_f64(i as f64 / rate),
                payload,
            });
            kinds.push(kind);
        }
        self.next_id += count as u64;
        Ok((plans, kinds))
    }
}

fn connect(sock: &Path, n: usize) -> Result<Vec<UnixStream>, String> {
    (0..n)
        .map(|_| UnixStream::connect(sock).map_err(|e| format!("connect {}: {e}", sock.display())))
        .collect()
}

fn stats(listen: &str) -> Result<ServerStats, String> {
    Client::connect(listen)
        .map_err(|e| e.to_string())?
        .stats()?
        .stats
        .ok_or_else(|| "stats reply without stats".to_string())
}

fn shutdown(daemon: &mut Daemon) -> bool {
    let acked = Client::connect(&daemon.addr)
        .ok()
        .and_then(|mut c| c.shutdown().ok())
        .is_some_and(|r| r.ok);
    daemon.stop(Duration::from_secs(30)) && acked
}

/// Checks every reply: answered `ok`, a bijection on `0..n`, and for a
/// recurring pattern bit-identical to the in-process reference.
fn check_replies(
    outcomes: &[Outcome],
    kinds: &[Kind],
    first_id: u64,
    n: usize,
    reference: &[Vec<usize>],
    report: &mut Report,
) -> Vec<Option<Response>> {
    outcomes
        .iter()
        .map(|o| {
            report.attempted += 1;
            let Some(line) = &o.reply else {
                report.fail(format!("request {}: no reply", o.id));
                return None;
            };
            let resp: Response = match decode(line) {
                Ok(r) => r,
                Err(e) => {
                    report.fail(format!("request {}: {e}", o.id));
                    return None;
                }
            };
            let perm = resp.permutation.as_deref().unwrap_or_default();
            if !resp.ok {
                report.fail(format!("request {}: rejected: {:?}", o.id, resp.error));
            } else if !is_bijection(perm, n) {
                report.fail(format!("request {}: permutation is not a bijection", o.id));
            } else if let Kind::Recurring(j) = kinds[(o.id - first_id) as usize] {
                if perm != reference[j].as_slice() {
                    report.fail(format!(
                        "request {}: pattern {j} answered differently from in-process preprocess",
                        o.id
                    ));
                }
            }
            Some(resp)
        })
        .collect()
}

struct Counters {
    completed: u64,
    cache_hits: u64,
    coalesced: u64,
    rejected: u64,
}

fn delta(before: &ServerStats, after: &ServerStats) -> Counters {
    let rejected = |s: &ServerStats| s.rejected_admission + s.rejected_queue + s.rejected_draining;
    Counters {
        completed: after.completed - before.completed,
        cache_hits: after.cache_hits - before.cache_hits,
        coalesced: after.coalesced - before.coalesced,
        rejected: rejected(after) - rejected(before),
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let n = if ctx.smoke { N_SMOKE } else { N };
    let rate = if ctx.smoke { RATE_SMOKE } else { RATE };
    let mut report = Report {
        threads: Some(DAEMON_THREADS),
        ..Report::default()
    };
    let patterns = (0..PATTERNS)
        .map(|j| matrix(n, ctx.seed_for(100 + j as u64)))
        .collect::<Result<Vec<_>, _>>()?;
    for (j, a) in patterns.iter().enumerate() {
        report.input(format!("serve_mixed.pattern{j}"), a);
    }
    let mut inputs = Inputs {
        n,
        payloads: patterns.iter().map(payload).collect(),
        patterns,
        rng: SplitMix(ctx.seed_for(2)),
        fresh_seed: SplitMix(ctx.seed_for(3)),
        next_id: 1,
    };
    report.lines.push(format!(
        "serve_mixed: clustered_with_density(n={n}, clusters={CLUSTERS}, coherence={COHERENCE}, \
         density={NNZ_PER_ROW}/n); {PATTERNS} recurring patterns, 1 in {BLOCK} fresh; open loop at \
         {rate} req/s over {CONNS} connections, then a closed loop over {CONNS}"
    ));

    // In-process reference answers for the recurring patterns.
    let pipeline = bootes::serve::build_pipeline(None)?;
    let reference = inputs
        .patterns
        .iter()
        .map(|a| {
            pipeline
                .preprocess(a)
                .map(|o| o.permutation.as_slice().to_vec())
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;

    // Set-up, several times over: spawn the daemon, wait for its readiness
    // line, then fill its cache with the recurring patterns. The last daemon
    // serves the run.
    let sock = ctx.work.join("serve.sock");
    let listen = format!("unix:{}", sock.display());
    let (mut setups, mut spawns) = (Vec::new(), Vec::new());
    let mut daemon = None;
    let warm_kinds: Vec<Kind> = (0..PATTERNS).map(Kind::Recurring).collect();
    for i in 0..SETUPS {
        let _ = std::fs::remove_file(&sock);
        let start = Instant::now();
        let mut d = Daemon::spawn(Command::new(&ctx.bootes).args([
            "serve",
            "--threads",
            &DAEMON_THREADS.to_string(),
            "--listen",
            &listen,
        ]))
        .map_err(|e| format!("start bootes serve: {e}"))?;
        let warm: Vec<Planned> = (0..PATTERNS)
            .map(|j| Planned {
                id: inputs.next_id + j as u64,
                due: Duration::ZERO,
                payload: inputs.payloads[j].clone(),
            })
            .collect();
        let (warm_out, _) = closed_loop(connect(&sock, 1)?, vec![warm], NO_DEADLINE);
        setups.push(start.elapsed().as_secs_f64());
        spawns.push(d.ready_after.as_secs_f64() * 1e3);
        check_replies(
            &warm_out,
            &warm_kinds,
            inputs.next_id,
            n,
            &reference,
            &mut report,
        );
        inputs.next_id += PATTERNS as u64;
        if i + 1 < SETUPS {
            if !shutdown(&mut d) {
                report.fail("daemon did not drain and exit 0 on shutdown".to_string());
            }
        } else {
            daemon = Some(d);
        }
    }
    let mut daemon = daemon.ok_or("no daemon")?;
    report.lines.push(format!(
        "daemon set-up {}; of which spawn to readiness {}",
        summary(&setups, "s"),
        summary(&spawns, "ms")
    ));

    // Then the traffic mix, untimed, until the daemon's heap and connection
    // buffers have grown to their working size: without it the first
    // seconds of the window ran up to half again slower than the rest.
    let warm_secs = WARMUP_SECS.min(ctx.seconds / 4.0);
    let first = inputs.next_id;
    let (plans, kinds) = inputs.plan((CLOSED_RPS * warm_secs).ceil() as usize, rate)?;
    let (warm_out, _) = closed_loop(connect(&sock, CONNS)?, plans, NO_DEADLINE);
    check_replies(&warm_out, &kinds, first, n, &reference, &mut report);
    let before = stats(&listen)?;

    // The window alternates open-loop (a) and closed-loop (b) segments, so a
    // slow spell of the machine falls on both phases alike. Each segment's
    // payloads are encoded before its clock starts.
    let rounds = if ctx.trace { 1 } else { ROUNDS };
    let open_share = if ctx.trace { 0.5 } else { OPEN_SHARE };
    let open_secs = ctx.seconds * open_share / rounds as f64;
    let closed_secs = ctx.seconds * (1.0 - open_share) / rounds as f64;
    let mut request_bytes = Vec::new();
    let mut latencies = Vec::new();
    let mut late = Vec::new();
    let (mut ok_b, mut wall_b, mut rtt) = (0, Duration::ZERO, Vec::new());
    let (mut segment_p50, mut segment_rps) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        let count_a = ((rate * open_secs).ceil() as usize).max(1);
        let first = inputs.next_id;
        let (plans, kinds) = inputs.plan(count_a, rate)?;
        request_bytes.extend(plans.iter().flatten().map(|p| p.wire_bytes() as f64));
        let (out, _) = open_loop(connect(&sock, CONNS)?, plans);
        let replies = check_replies(&out, &kinds, first, n, &reference, &mut report);
        let segment: Vec<f64> = out
            .iter()
            .zip(&replies)
            .map(|(o, r)| match r {
                Some(r) if r.ok => o.latency_from_due_ms(),
                _ => f64::INFINITY,
            })
            .collect();
        segment_p50.push(median(&segment).unwrap_or(f64::INFINITY));
        latencies.extend(segment);
        late.extend(out.iter().filter_map(Outcome::late_ms));
        if ctx.trace {
            continue;
        }
        let count_b = (CLOSED_RPS * closed_secs).ceil() as usize;
        let first = inputs.next_id;
        let (plans, kinds) = inputs.plan(count_b, rate)?;
        request_bytes.extend(plans.iter().flatten().map(|p| p.wire_bytes() as f64));
        let (out, wall) = closed_loop(connect(&sock, CONNS)?, plans, NO_DEADLINE);
        let replies = check_replies(&out, &kinds, first, n, &reference, &mut report);
        let ok = replies.iter().flatten().filter(|r| r.ok).count();
        segment_rps.push(ok as f64 / wall.as_secs_f64());
        ok_b += ok;
        wall_b += wall;
        rtt.extend(
            out.iter()
                .filter_map(|o| Some((o.done? - o.sent?).as_secs_f64() * 1e3)),
        );
    }
    report.lines.push(format!(
        "open loop: latency from due time {}",
        summary(&latencies, "ms")
    ));
    let gen_late_p90 = percentile(&late, 0.9).unwrap_or(0.0);
    let traced = if ctx.trace {
        let window_c = Duration::from_secs_f64(ctx.seconds * (1.0 - open_share));
        Some(traced_phase(
            &mut inputs,
            &sock,
            window_c,
            &mut request_bytes,
            &mut report,
        )?)
    } else {
        report.lines.push(format!(
            "closed loop: {ok_b} ok of {} requests in {:.3} s; per-segment req/s \
             {segment_rps:.1?}; round trip {}; per-segment open-loop median {segment_p50:.2?} ms",
            rtt.len(),
            wall_b.as_secs_f64(),
            summary(&rtt, "ms")
        ));
        None
    };

    let after = stats(&listen)?;
    let hwm_kb = daemon.pid().and_then(|p| vm_hwm_kb(Some(p)));
    if !shutdown(&mut daemon) {
        report.fail("daemon did not drain and exit 0 on shutdown".to_string());
    }
    let c = delta(&before, &after);
    let hit_frac = c.cache_hits as f64 / c.completed.max(1) as f64;
    let mean_bytes = request_bytes.iter().sum::<f64>() / request_bytes.len().max(1) as f64;
    report.lines.push(format!(
        "daemon: {} completed, cache_hit_frac {hit_frac:.3}, {} coalesced, {} rejected; \
         gen_late p90 {gen_late_p90:.3} ms; request line {mean_bytes:.0} bytes (mean)",
        c.completed, c.coalesced, c.rejected,
    ));

    if let Some(t) = traced {
        let ms = |name: &str| t.median_secs(name) * 1e3;
        let jobs = t.durations("serve.request").len();
        crate::trace::fill_layers(&mut report, |name| match name {
            "serve.decode_ms" => t.layer_ms("serve.decode"),
            "serve.to_csr_ms" => t.layer_ms("serve.to_csr"),
            "serve.encode_resp_ms" => t.layer_ms("serve.encode_resp"),
            "sparse.fingerprint_ms" => t.layer_ms("sparse.fingerprint"),
            "core.preprocess_hit_ms" => t.layer_ms("core.preprocess_hit"),
            "core.preprocess_miss_ms" => t.layer_ms("core.preprocess_miss"),
            "cache.sketch_candidates_ms" => t.layer_ms("cache.sketch_candidates"),
            "drift.sketch_ms" => t.layer_ms("drift.sketch"),
            "drift.best_donor_ms" => t.layer_ms("drift.best_donor"),
            "serve.cache_hit_frac" => Some((hit_frac, c.completed as usize)),
            "serve.coalesced" => Some((c.coalesced as f64, 1)),
            "serve.rejected" => Some((c.rejected as f64, 1)),
            "serve.gen_late_ms" => Some((gen_late_p90, late.len())),
            "serve.request_bytes" => Some((mean_bytes, request_bytes.len())),
            "serve_mixed.untraced_ms" => t.self_s("serve.request").map(|(s, n)| (s * 1e3, n)),
            _ => None,
        });
        let hit = ms("core.preprocess_hit");
        let miss = ms("core.preprocess_miss");
        let request = ms("serve.request");
        let drift_ms = ms("drift.sketch") + ms("drift.best_donor");
        report.lines.push(format!(
            "serve round trip {request:.3} ms (median of {jobs} traced requests)"
        ));
        report.lines.push(crate::trace::prediction(
            "the hit path skips the spectral work (core.preprocess_hit_ms < 10% of core.preprocess_miss_ms)",
            100.0 * hit / miss.max(f64::MIN_POSITIVE),
            hit < 0.1 * miss,
        ));
        report.lines.push(crate::trace::prediction(
            "drift.* is ~0 outside drift_stream (< 5% of the serve round trip)",
            100.0 * drift_ms / request.max(f64::MIN_POSITIVE),
            drift_ms < 0.05 * request,
        ));
        crate::trace::write_spans(ctx, "serve_mixed", &t, &mut report);
        return Ok(report);
    }

    let traffic_cache = if ctx.smoke {
        TRAFFIC_CACHE_BYTES_SMOKE
    } else {
        TRAFFIC_CACHE_BYTES
    };
    let ratios = inputs
        .patterns
        .iter()
        .zip(&reference)
        .map(|(a, p)| {
            let p = bootes::sparse::Permutation::try_new(p.clone()).map_err(|e| e.to_string())?;
            b_traffic_ratio_of(a, &p, traffic_cache)
        })
        .collect::<Result<Vec<f64>, String>>()?;
    let rps = ok_b as f64 / wall_b.as_secs_f64();
    let p50 = median(&latencies).ok_or("no samples")?;
    let (tail_name, tail_ms) = tail(&latencies).ok_or("no samples")?;
    report.lines.push(format!(
        "serve_p50_ms {p50:.4} ms, serve_{tail_name}_ms {tail_ms:.4} ms (n={}, open loop at \
         {rate} req/s); serve_rps {rps:.3} (n={ok_b}, closed loop)",
        latencies.len()
    ));
    report.metric("p50_ms", p50, latencies.len());
    report.metric("tail_ms", tail_ms, latencies.len());
    report.metric("ops_per_s", rps, ok_b);
    report.metric("setup_s", median(&setups).unwrap_or(0.0), setups.len());
    report.metric(
        "peak_rss_mb",
        hwm_kb.ok_or("read the daemon's VmHWM")? as f64 / 1024.0,
        1,
    );
    report.metric(
        "b_traffic_ratio",
        geomean(&ratios).ok_or("no ratios")?,
        ratios.len(),
    );
    Ok(report)
}

/// Traced phase: one connection, closed loop. Each request's round trip is
/// the root span; the layer calls the daemon makes are then replayed
/// in-process on the same request line, against an in-process pipeline and
/// cache that have seen the same patterns, on as many kernel threads as the
/// daemon uses. Every daemon answer must equal the in-process one.
fn traced_phase(
    inputs: &mut Inputs,
    sock: &Path,
    window: Duration,
    request_bytes: &mut Vec<f64>,
    report: &mut Report,
) -> Result<Tracer, String> {
    bootes::par::set_threads(DAEMON_THREADS);
    let pipeline = bootes::serve::build_pipeline(None)?;
    let cache = Cache::new(CacheConfig::memory_only(256 << 20)).map_err(|e| e.to_string())?;
    bootes::cache::install(cache);
    for a in &inputs.patterns {
        pipeline.preprocess(a).map_err(|e| e.to_string())?;
    }
    let drift = pipeline.drift().cloned().unwrap_or_default();
    let stream = connect(sock, 1)?.pop().ok_or("no connection")?;
    let mut conn = Conn::new(stream).map_err(|e| e.to_string())?;
    let mut t = Tracer::default();
    let deadline = Instant::now() + window;
    while Instant::now() < deadline {
        let (plans, _) = inputs.plan(CONNS, 1.0)?;
        for p in plans.into_iter().flatten() {
            request_bytes.push(p.wire_bytes() as f64);
            report.attempted += 1;
            let (sent, done, reply) = match conn.round_trip(&p) {
                Ok(r) => r,
                Err(e) => {
                    report.fail(format!("request {}: {e}", p.id));
                    continue;
                }
            };
            let job = p.id;
            let root = t.record("serve.request", job, None, sent, done);
            let line = p.line();
            let (req, _) = t.time("serve.decode", job, Some(root), || decode::<Request>(&line));
            let matrix = req?.matrix.ok_or("request without matrix")?;
            let (a, _) = t.time("serve.to_csr", job, Some(root), || matrix.to_csr());
            let a = a?;
            let (fp, _) = t.time("sparse.fingerprint", job, Some(root), || {
                MatrixFingerprint::of(&a)
            });
            let start = Instant::now();
            let outcome = pipeline.preprocess(&a).map_err(|e| e.to_string())?;
            let end = Instant::now();
            let hit = outcome.stats.cache_hit;
            let name = if hit {
                "core.preprocess_hit"
            } else {
                "core.preprocess_miss"
            };
            let pre = t.record(name, job, Some(root), start, end);
            if let (false, Some(cache)) = (hit, bootes::cache::global()) {
                replay_probe(&mut t, &cache, &drift, &a, fp.pattern, job, pre);
            }
            // The response the daemon builds: label, k and the permutation.
            let resp = Response {
                id: job,
                ok: true,
                label: Some(
                    if outcome.decision.should_reorder() {
                        "reorder"
                    } else {
                        "no-reorder"
                    }
                    .to_string(),
                ),
                k: outcome.decision.k().map(|k| k as u64),
                permutation: Some(outcome.permutation.as_slice().to_vec()),
                algorithm: Some(outcome.stats.algorithm.clone()),
                cache_hit: hit,
                ..Response::default()
            };
            t.time("serve.encode_resp", job, Some(root), || encode(&resp));
            match decode::<Response>(&reply) {
                Ok(r) if !r.ok => report.fail(format!("request {job}: rejected: {:?}", r.error)),
                Ok(r) if r.permutation != resp.permutation => report.fail(format!(
                    "request {job}: daemon answer differs from in-process preprocess"
                )),
                Ok(_) => {}
                Err(e) => report.fail(format!("request {job}: {e}")),
            }
        }
    }
    bootes::cache::uninstall();
    bootes::par::set_threads(0);
    Ok(t)
}
