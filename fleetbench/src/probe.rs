//! Per-layer metrics for the traced run (`--trace 1`).
//!
//! They come from three places, all outside the program:
//! * counters the fleet already exposes (`/v1/stats` on the router and
//!   each backend, before and after the measured window);
//! * HTTP probes against the live fleet after the window: keep-alive,
//!   fresh-connection and streamed cache hits, direct to a backend and
//!   through the router;
//! * timed calls from this process into each layer's public functions
//!   (`Engine`, `anneal`, `SiteBlock::build`, `build_network_lp_cached`,
//!   `RevisedSimplex`, `SparseLu`, `RollingScheduler`, the spec and
//!   report codecs), each inside a span.
//!
//! Every metric names the end-to-end metric and workload it should move.

use crate::check::Reference;
use crate::fleet::{self, Fleet};
use crate::gen::{self, Input};
use crate::http::{self, Conn};
use crate::trace::Tracer;
use crate::util::{median, now_s, Metrics, Rng};
use crate::workload::{Run, POLL_MS};
use greencloud_api::harness::{repro_search, rolling_states, table3_profiles};
use greencloud_api::json::Json;
use greencloud_api::report::ReportBody;
use greencloud_api::{job_id, ExperimentSpec, Report};
use greencloud_core::anneal::anneal;
use greencloud_core::filter::filter_candidates;
use greencloud_core::formulation::build_network_lp_cached;
use greencloud_core::siteblock::{SiteBlock, SiteBlockCache};
use greencloud_cost::params::CostParams;
use greencloud_lp::lu::{ColMatrix, SparseLu};
use greencloud_lp::{BasisStatus, RevisedSimplex};
use greencloud_nebula::scheduler::{RollingScheduler, SchedulerConfig};
use std::collections::HashMap;
use std::hint::black_box;

/// `/v1/stats` of the router and each backend at one instant.
pub struct FleetObs {
    router: Option<Json>,
    backends: Vec<Option<Json>>,
}

impl FleetObs {
    pub fn collect(fleet: &Fleet) -> FleetObs {
        FleetObs {
            router: fleet::stats(&fleet.router.addr),
            backends: fleet
                .backend_addrs()
                .iter()
                .map(|a| fleet::stats(a))
                .collect(),
        }
    }

    fn router(&self, key: &str) -> f64 {
        self.router
            .as_ref()
            .and_then(|j| j.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    /// `key` summed over the backends.
    fn fleet(&self, key: &str) -> f64 {
        self.backends
            .iter()
            .flatten()
            .filter_map(|j| j.get(key).and_then(Json::as_f64))
            .sum()
    }
}

/// Counter deltas over the measured window.
pub struct Window<'a> {
    pub before: &'a FleetObs,
    pub after: &'a FleetObs,
}

impl Window<'_> {
    fn router(&self, key: &str) -> f64 {
        self.after.router(key) - self.before.router(key)
    }
    fn fleet(&self, key: &str) -> f64 {
        self.after.fleet(key) - self.before.fleet(key)
    }
}

/// What the HTTP probes measured, ms per request (medians).
pub struct HttpObs {
    hit_direct: f64,
    hit_routed: f64,
    hit_routed_traced: f64,
    fresh_direct: f64,
    fresh_routed: f64,
    stream_direct: f64,
    stream_routed: f64,
    /// One cold miss straight to a backend: latency minus the report's
    /// own `wall_ms`.
    miss_overhead: f64,
    /// Job submits and polls (a short probe for the sync workloads).
    job_ack: Vec<f64>,
    job_polls: Vec<f64>,
    samples: usize,
}

const HIT_PROBES: usize = 300;
const FRESH_PROBES: usize = 40;
const JOB_PROBES: usize = 4;

fn ms_since(t0: f64) -> f64 {
    (now_s() - t0) * 1e3
}

fn report_wall_ms(text: &str) -> Option<f64> {
    Json::parse(text).ok()?.get("wall_ms")?.as_f64()
}

/// Probes the live fleet after the measured window.
pub fn http_probes(
    fleet: &Fleet,
    workload: &str,
    seed: u64,
    tracer: &Tracer,
) -> Result<HttpObs, String> {
    let e = |e: std::io::Error| e.to_string();
    let spec = gen::hit_set(seed ^ 0x9409, 1).remove(0);
    let body = spec.body.as_bytes();
    let router = fleet.router.addr.clone();
    let direct = fleet.backend_addrs().remove(0);
    let mut d = Conn::open(&direct).map_err(e)?;
    let mut r = Conn::open(&router).map_err(e)?;
    // Prime both caches: a miss on the backend, then the router's owner.
    let t0 = now_s();
    let first = d
        .send(
            "POST",
            "/v1/experiments",
            &[("Cache-Control", "no-cache")],
            body,
        )
        .map_err(e)?;
    let miss_overhead = ms_since(t0) - report_wall_ms(first.text()).unwrap_or(0.0);
    r.send("POST", "/v1/experiments", &[], body).map_err(e)?;
    d.send("POST", "/v1/experiments", &[], body).map_err(e)?;

    let stream: &[(&str, &str)] = &[("X-Progress", "stream")];
    let (mut hd, mut hr, mut ht, mut sd, mut sr) = (vec![], vec![], vec![], vec![], vec![]);
    for i in 0..HIT_PROBES {
        let t = now_s();
        d.send("POST", "/v1/experiments", &[], body).map_err(e)?;
        hd.push(ms_since(t));
        // Traced and untraced routed hits, alternating which goes first.
        for traced in [i % 2 == 0, i % 2 == 1] {
            let t = now_s();
            if traced {
                tracer.span("http.hit.routed.probe", None, i as u64, || {
                    r.send("POST", "/v1/experiments", &[], body)
                })
            } else {
                r.send("POST", "/v1/experiments", &[], body)
            }
            .map_err(e)?;
            if traced { &mut ht } else { &mut hr }.push(ms_since(t));
        }
        let t = now_s();
        d.send("POST", "/v1/experiments", stream, body).map_err(e)?;
        sd.push(ms_since(t));
        let t = now_s();
        r.send("POST", "/v1/experiments", stream, body).map_err(e)?;
        sr.push(ms_since(t));
    }
    let (mut fd, mut fr) = (vec![], vec![]);
    for i in 0..FRESH_PROBES {
        let t = now_s();
        tracer
            .span("http.hit.direct.fresh", None, i as u64, || {
                http::once(&direct, "POST", "/v1/experiments", &[], body)
            })
            .map_err(e)?;
        fd.push(ms_since(t));
        let t = now_s();
        tracer
            .span("http.hit.routed.fresh", None, i as u64, || {
                http::once(&router, "POST", "/v1/experiments", &[], body)
            })
            .map_err(e)?;
        fr.push(ms_since(t));
    }
    let (mut acks, mut polls) = (vec![], vec![]);
    if workload != "annual_jobs" {
        for j in gen::hit_set(seed ^ 0x10b5, JOB_PROBES) {
            let t = now_s();
            let ack = r
                .send("POST", "/v1/jobs", &[], j.body.as_bytes())
                .map_err(e)?;
            acks.push(ms_since(t));
            let id = Json::parse(ack.text())
                .ok()
                .and_then(|d| d.get("job_id").and_then(Json::as_str).map(String::from))
                .ok_or("job probe: no job id")?;
            let mut n = 0.0;
            loop {
                std::thread::sleep(std::time::Duration::from_millis(POLL_MS));
                n += 1.0;
                let p = r
                    .send("GET", &format!("/v1/jobs/{id}"), &[], b"")
                    .map_err(e)?;
                if !matches!(p.header("X-Job-Status"), Some("accepted" | "started")) || n > 1e4 {
                    break;
                }
            }
            polls.push(n);
        }
    }
    Ok(HttpObs {
        hit_direct: median(&hd),
        hit_routed: median(&hr),
        hit_routed_traced: median(&ht),
        fresh_direct: median(&fd),
        fresh_routed: median(&fr),
        stream_direct: median(&sd),
        stream_routed: median(&sr),
        miss_overhead,
        job_ack: acks,
        job_polls: polls,
        samples: HIT_PROBES,
    })
}

pub struct Context<'a> {
    pub workload: &'a str,
    pub run: &'a Run,
    pub refs: &'a HashMap<usize, Reference>,
    pub good: &'a [bool],
    pub window: Window<'a>,
    pub http: &'a HttpObs,
    pub e2e: &'a Metrics,
    pub tracer: &'a Tracer,
    pub seed: u64,
}

/// Median time of `f` over `reps` calls, µs.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = now_s();
        f();
        v.push((now_s() - t) * 1e6);
    }
    median(&v)
}

fn ratio(num: f64, den: f64, empty: f64) -> f64 {
    if den == 0.0 {
        empty
    } else {
        num / den
    }
}

/// Mean |a - b| / mean(a, b) over pairs.
fn pair_spread(pairs: &[(f64, f64)]) -> f64 {
    let v: Vec<f64> = pairs
        .iter()
        .map(|(a, b)| ratio((a - b).abs(), (a + b) / 2.0, 0.0))
        .collect();
    ratio(v.iter().sum(), v.len() as f64, 0.0)
}

pub fn per_layer(cx: Context<'_>) -> Metrics {
    let mut m = Metrics::default();
    let tr = cx.tracer;
    let w = &cx.window;
    let h = cx.http;
    let good: Vec<&crate::workload::Sample> = cx
        .run
        .samples
        .iter()
        .zip(cx.good)
        .filter(|(_, g)| **g)
        .map(|(s, _)| s)
        .collect();

    // --- router ---------------------------------------------------------
    let hop_us = (h.hit_routed - h.hit_direct) * 1e3;
    m.push(
        "router.hop_us",
        hop_us,
        "us",
        h.samples,
        "-> latency_p50_ms on hit_heavy, not run",
    );
    m.push(
        "router.fresh_conn_ms",
        h.fresh_routed,
        "ms",
        FRESH_PROBES,
        "-> latency_tail_ms, sustained_rps on hit_heavy, not run",
    );
    m.push(
        "router.stream_relay_us",
        (h.stream_routed - h.stream_direct) * 1e3,
        "us",
        h.samples,
        "-> latency_p50_ms on hit_heavy, not run",
    );
    let requests = w.fleet("received");
    // Distinct specs first seen in the window miss even on one backend.
    let mut new_specs: Vec<usize> = cx.run.samples.iter().map(|s| s.idx).collect();
    new_specs.sort_unstable();
    new_specs.dedup();
    let new_specs = new_specs.len() as f64;
    let hits = w.fleet("cache_hits");
    m.push(
        "router.affinity_ratio",
        ratio(hits, (requests - new_specs).max(0.0), 1.0),
        "ratio",
        requests as usize,
        "-> sustained_rps on hit_heavy, not run (fleet hits / single-backend ideal)",
    );
    m.push(
        "router.failovers",
        w.router("failovers"),
        "count",
        1,
        "-> fail_ratio, all workloads",
    );
    m.push(
        "router.aborted_relays",
        w.router("aborted_relays"),
        "count",
        1,
        "-> fail_ratio, all workloads",
    );

    // --- serve ----------------------------------------------------------
    m.push(
        "serve.hit_us",
        h.hit_direct * 1e3,
        "us",
        h.samples,
        "-> latency_p50_ms on hit_heavy, not run",
    );
    m.push(
        "serve.fresh_conn_ms",
        h.fresh_direct,
        "ms",
        FRESH_PROBES,
        "-> latency_tail_ms on hit_heavy, not run",
    );
    m.push(
        "serve.cache_hit_ratio",
        ratio(hits, requests, 0.0),
        "ratio",
        requests as usize,
        "-> sustained_rps on hit_heavy, not run",
    );
    let overheads: Vec<f64> = good
        .iter()
        .filter_map(|s| Some(s.lat_ms - report_wall_ms(s.body.as_deref()?)?))
        .collect();
    let (miss_overhead, n_over, src) = if overheads.is_empty() {
        (h.miss_overhead, 1, "probe miss")
    } else {
        (median(&overheads), overheads.len(), "workload misses")
    };
    m.push(
        "serve.miss_overhead_ms",
        miss_overhead,
        "ms",
        n_over,
        format!("-> latency_p50_ms on exact_miss, annual_jobs ({src}: latency minus the report's engine wall_ms)"),
    );
    m.push("serve.shed", w.fleet("shed"), "count", 1, "-> fail_ratio");
    m.push(
        "serve.errors",
        w.fleet("client_errors") + w.fleet("solve_errors") + w.fleet("server_errors"),
        "count",
        1,
        "-> fail_ratio",
    );

    // --- store ----------------------------------------------------------
    let (acks, polls): (Vec<f64>, Vec<f64>) = if cx.workload == "annual_jobs" {
        (
            good.iter().map(|s| s.ack_ms).collect(),
            good.iter().map(|s| s.polls as f64).collect(),
        )
    } else {
        (h.job_ack.clone(), h.job_polls.clone())
    };
    let jobs = acks.len().max(1) as f64;
    let store_note = if cx.workload == "annual_jobs" {
        "-> latency_p50_ms, latency_tail_ms on annual_jobs"
    } else {
        "-> latency_p50_ms, latency_tail_ms on annual_jobs (probe jobs; --no-persist here)"
    };
    m.push("store.ack_ms", median(&acks), "ms", acks.len(), store_note);
    m.push(
        "store.polls_per_job",
        polls.iter().sum::<f64>() / jobs,
        "count",
        polls.len(),
        store_note,
    );
    m.push(
        "store.journal_bytes_per_job",
        w.fleet("journal_bytes") / jobs,
        "B",
        acks.len(),
        store_note,
    );
    m.push(
        "store.compactions",
        w.fleet("compactions"),
        "count",
        1,
        store_note,
    );

    // --- in-process layers ---------------------------------------------
    let engine = crate::check::engine();
    let params = CostParams::default();

    // Engine runs: the workload's own references where it has them, probe
    // specs otherwise (two sitings, one exact siting, two annual jobs).
    let siting_specs: Vec<Input> = gen::sitings(cx.seed ^ 0x7a0be, 2);
    let exact_specs: Vec<Input> = gen::exact_sitings(cx.seed ^ 0x7a0be, 1);
    let annual_specs: Vec<Input> = gen::annual_jobs(cx.seed ^ 0x7a0be, 2);
    let mut runs: HashMap<&str, Vec<(Report, f64)>> = HashMap::new();
    for r in cx.refs.values() {
        let kind = match r.report.body {
            ReportBody::Annual(_) => "annual",
            _ => "exact_siting",
        };
        runs.entry(kind)
            .or_default()
            .push((r.report.clone(), r.wall_ms));
    }
    // engine.candidates_ms: a fresh engine builds the profile's set.
    let profile = repro_search(true).profile;
    let cand_ms: Vec<f64> = (0..3)
        .map(|i| {
            let e = crate::check::engine();
            let t = now_s();
            tr.span("Engine::candidates", None, i, || e.candidates(&profile));
            ms_since(t)
        })
        .collect();
    // Warm the probe engine so its Engine::run timings exclude the build.
    let candidates = engine.candidates(&profile);
    // Report mismatches between two runs of one Siting spec (the known
    // defect), from running each probe siting twice.
    let mut engine_runs = |kind: &'static str, specs: &[Input], reps: usize| {
        let mut differ = (0, 0);
        if runs.get(kind).is_some_and(|v| !v.is_empty()) {
            return None;
        }
        for (i, s) in specs.iter().enumerate() {
            let mut bytes = Vec::new();
            for _ in 0..reps {
                let t = now_s();
                if let Ok(r) = tr.span("Engine::run", None, i as u64, || engine.run(&s.spec)) {
                    bytes.push(crate::check::comparable(&r.normalized().to_json_string()));
                    runs.entry(kind).or_default().push((r, ms_since(t)));
                }
            }
            if let [a, b] = &bytes[..] {
                differ.0 += usize::from(a != b);
                differ.1 += 1;
            }
        }
        Some(differ)
    };
    let mismatch = engine_runs("siting", &siting_specs, 2).unwrap_or_default();
    engine_runs("exact_siting", &exact_specs, 1);
    engine_runs("annual", &annual_specs, 1);
    let wall = |kind: &str| {
        let v: Vec<f64> = runs
            .get(kind)
            .map_or_else(Vec::new, |v| v.iter().map(|r| r.1).collect());
        (median(&v), v.len())
    };
    let (siting_ms, n_siting) = wall("siting");
    let (exact_ms, n_exact) = wall("exact_siting");
    let (annual_ms, n_annual) = wall("annual");
    m.push(
        "engine.siting_ms",
        siting_ms,
        "ms",
        n_siting,
        "-> throughput_rps on siting_miss, not run (probe sitings)",
    );
    m.push(
        "engine.exact_ms",
        exact_ms,
        "ms",
        n_exact,
        "-> throughput_rps on exact_miss",
    );
    m.push(
        "engine.annual_ms",
        annual_ms,
        "ms",
        n_annual,
        "-> throughput_rps on annual_jobs",
    );
    m.push(
        "engine.candidates_ms",
        median(&cand_ms),
        "ms",
        cand_ms.len(),
        "-> setup_s on exact_miss",
    );
    let siting_runs = runs.remove("siting").unwrap_or_default();
    let annual_runs = runs.remove("annual").unwrap_or_default();

    // anneal + siteblock + lp, on the probe sitings run twice each.
    let (mut evals, mut cache_ratio, mut eval_ms, mut reuse) = (vec![], vec![], vec![], vec![]);
    let (mut eval_pairs, mut iter_pairs) = (vec![], vec![]);
    let (mut block_ms, mut cold_ms, mut warm_ms) = (vec![], vec![], vec![]);
    // (rows, basic-slack share) of the first cold solve's final basis.
    let mut basis_shape = None;
    for (i, s) in siting_specs.iter().enumerate() {
        let ExperimentSpec::Siting(spec) = &s.spec else {
            continue;
        };
        let kept = filter_candidates(&params, &spec.input, &candidates, spec.search.filter_keep);
        let filtered: Vec<_> = kept.iter().map(|&k| candidates[k].clone()).collect();
        let opts = spec.search.anneal_options();
        let mut pair = Vec::new();
        let mut best = None;
        for rep in 0..2 {
            let t = now_s();
            let Ok(res) = tr.span("anneal", None, (i * 2 + rep) as u64, || {
                anneal(&params, &spec.input, &filtered, &opts)
            }) else {
                continue;
            };
            let ms = ms_since(t);
            let st = res.stats;
            evals.push(st.evaluations as f64);
            cache_ratio.push(st.cache_rate());
            eval_ms.push(ratio(ms, st.evaluations as f64, 0.0));
            reuse.push(ratio(
                st.block_hits as f64,
                (st.block_hits + st.block_misses) as f64,
                0.0,
            ));
            pair.push((st.evaluations as f64, st.simplex_iterations as f64));
            best = Some(res.siting);
        }
        if let [a, b] = pair[..] {
            eval_pairs.push((a.0, b.0));
            iter_pairs.push((a.1, b.1));
        }
        let Some(siting) = best else { continue };
        for (k, &(ci, class)) in siting.iter().enumerate() {
            let t = now_s();
            tr.span("SiteBlock::build", None, k as u64, || {
                SiteBlock::build(&params, &spec.input, ci, &filtered[ci], class)
            });
            block_ms.push(ms_since(t));
        }
        // Cold solve of the best siting, then a warm solve of a same-shape
        // neighbour (last site swapped) from its basis.
        let cache = SiteBlockCache::new();
        let lp_span = tr.begin("lp.probe", None, i as u64);
        let lp = tr.span("build_network_lp_cached", Some(lp_span), i as u64, || {
            build_network_lp_cached(&params, &spec.input, &filtered, &siting, &cache)
        });
        let solver = RevisedSimplex::new(opts.lp.clone());
        let t = now_s();
        let cold = tr.span("RevisedSimplex::solve", Some(lp_span), i as u64, || {
            solver.solve(lp.model())
        });
        cold_ms.push(ms_since(t));
        if let (Ok(sol), None) = (&cold, basis_shape) {
            basis_shape = sol.basis.as_ref().map(|b| {
                let rows = lp.model().num_cons();
                let slacks = b.statuses()[lp.model().num_vars()..]
                    .iter()
                    .filter(|s| matches!(s, BasisStatus::Basic))
                    .count()
                    + b.artificial_rows().len();
                (rows, ratio(slacks as f64, rows as f64, 0.0))
            });
        }
        let swap = (0..filtered.len()).find(|c| siting.iter().all(|(s, _)| s != c));
        if let (Ok(cold), Some(c), Some(last)) = (cold, swap, siting.last()) {
            let mut next = siting.clone();
            let n = next.len();
            next[n - 1] = (c, last.1);
            next.sort();
            let lp2 = tr.span("build_network_lp_cached", Some(lp_span), i as u64, || {
                build_network_lp_cached(&params, &spec.input, &filtered, &next, &cache)
            });
            let t = now_s();
            let _ = tr.span(
                "RevisedSimplex::solve_warm",
                Some(lp_span),
                i as u64,
                || solver.solve_warm(lp2.model(), cold.basis.as_ref()),
            );
            warm_ms.push(ms_since(t));
        }
        tr.end(lp_span);
    }
    let spread_note = "nondeterministic: mean |run1 - run2| / mean over 2 runs of each probe spec";
    m.push(
        "anneal.evaluations",
        median(&evals),
        "count",
        evals.len(),
        "-> latency_p50_ms on siting_miss, not run (probe sitings)",
    );
    m.push(
        "anneal.evaluations_spread",
        pair_spread(&eval_pairs),
        "ratio",
        eval_pairs.len(),
        spread_note,
    );
    m.push(
        "anneal.report_mismatch_ratio",
        ratio(mismatch.0 as f64, mismatch.1 as f64, 0.0),
        "ratio",
        mismatch.1,
        "known defect: Siting reports differing beyond the counters between two runs of one spec",
    );
    m.push(
        "anneal.eval_cache_ratio",
        median(&cache_ratio),
        "ratio",
        cache_ratio.len(),
        "-> latency_p50_ms on siting_miss, not run (probe sitings)",
    );
    m.push(
        "anneal.eval_ms",
        median(&eval_ms),
        "ms",
        eval_ms.len(),
        "-> latency_p50_ms on siting_miss, not run (probe sitings)",
    );
    m.push(
        "siteblock.build_ms",
        median(&block_ms),
        "ms",
        block_ms.len(),
        "-> latency_p50_ms on exact_miss",
    );
    m.push(
        "siteblock.reuse_ratio",
        median(&reuse),
        "ratio",
        reuse.len(),
        "-> latency_p50_ms on exact_miss",
    );

    // lp: per-solve rollups from the siting reports.
    let lp_note = "-> throughput_rps on exact_miss (small effect on annual_jobs)";
    let roll: Vec<(greencloud_api::SolverRollup, f64)> = siting_runs
        .iter()
        .filter_map(|(r, _)| match &r.body {
            ReportBody::Siting(s) => s.solver.map(|x| (x, r.wall_ms)),
            _ => None,
        })
        .collect();
    let per = |f: &dyn Fn(&greencloud_api::SolverRollup) -> f64| {
        median(
            &roll
                .iter()
                .map(|(x, _)| ratio(f(x), x.solves as f64, 0.0))
                .collect::<Vec<_>>(),
        )
    };
    m.push(
        "lp.solve_cold_ms",
        median(&cold_ms),
        "ms",
        cold_ms.len(),
        lp_note,
    );
    m.push(
        "lp.solve_warm_ms",
        median(&warm_ms),
        "ms",
        warm_ms.len(),
        lp_note,
    );
    m.push(
        "lp.iterations_per_solve",
        per(&|x| x.iterations as f64),
        "count",
        roll.len(),
        lp_note,
    );
    m.push(
        "lp.iterations_spread",
        pair_spread(&iter_pairs),
        "ratio",
        iter_pairs.len(),
        spread_note,
    );
    m.push(
        "lp.pricing_share",
        median(
            &roll
                .iter()
                .map(|(x, wall)| ratio(x.pricing_ms, *wall, 0.0))
                .collect::<Vec<_>>(),
        ),
        "ratio",
        roll.len(),
        format!("{lp_note}; pricing ms (all threads) / engine wall ms"),
    );
    m.push(
        "lp.warm_rate",
        median(&roll.iter().map(|(x, _)| x.warm_rate).collect::<Vec<_>>()),
        "ratio",
        roll.len(),
        lp_note,
    );
    m.push(
        "lp.refactor_per_solve",
        per(&|x| x.refactorizations as f64),
        "count",
        roll.len(),
        lp_note,
    );
    let (rows, slack_share) = basis_shape.unwrap_or((LU_FALLBACK_ROWS, 0.5));
    let (lu, ftran, btran) = lu_probe(tr, cx.seed, rows, slack_share);
    let lu_note = format!(
        "{lp_note}; synthetic basis with the siting LP's {rows} rows and {:.0}% basic slacks",
        slack_share * 100.0
    );
    m.push("lp.lu_factor_us", lu, "us", 50, lu_note.clone());
    m.push("lp.ftran_us", ftran, "us", 200, lu_note.clone());
    m.push("lp.btran_us", btran, "us", 200, lu_note);

    // nebula: the hourly rolling re-solve, warm across rounds.
    let (resolve_us, warm_rate, rounds) = nebula_probe(tr, &engine);
    let annual_rounds = median(
        &annual_runs
            .iter()
            .filter_map(|(r, _)| match &r.body {
                ReportBody::Annual(a) => Some(a.solver.solves as f64),
                _ => None,
            })
            .collect::<Vec<_>>(),
    );
    let neb_note = "-> throughput_rps on annual_jobs";
    m.push("nebula.resolve_us", resolve_us, "us", rounds, neb_note);
    m.push("nebula.warm_rate", warm_rate, "ratio", rounds, neb_note);
    m.push(
        "nebula.hours_per_s",
        ratio(720.0, annual_ms / 1e3, 0.0),
        "h/s",
        annual_runs.len(),
        neb_note,
    );
    m.push(
        "nebula.lp_share",
        ratio(resolve_us * annual_rounds / 1e3, annual_ms, 0.0),
        "ratio",
        annual_runs.len(),
        format!("{neb_note}; resolve_us x rounds / engine.annual_ms"),
    );

    // codec
    let bodies: Vec<&str> = siting_specs
        .iter()
        .chain(&annual_specs)
        .map(|s| s.body.as_str())
        .collect();
    let codec_note = "-> latency_p50_ms on hit_heavy, not run";
    let parse = median(
        &bodies
            .iter()
            .map(|b| {
                tr.span("ExperimentSpec::from_json_str", None, 0, || {
                    time_us(50, || {
                        black_box(ExperimentSpec::from_json_str(black_box(b)).is_ok());
                    })
                })
            })
            .collect::<Vec<_>>(),
    );
    let digest = median(
        &bodies
            .iter()
            .map(|b| {
                tr.span("job_id", None, 0, || {
                    time_us(50, || {
                        black_box(job_id(black_box(b.as_bytes())));
                    })
                })
            })
            .collect::<Vec<_>>(),
    );
    let render = median(
        &siting_runs
            .iter()
            .chain(&annual_runs)
            .map(|(r, _)| {
                tr.span("Report::to_json_string", None, 0, || {
                    time_us(50, || {
                        black_box(black_box(r).to_json_string());
                    })
                })
            })
            .collect::<Vec<_>>(),
    );
    m.push(
        "codec.spec_parse_us",
        parse,
        "us",
        bodies.len() * 50,
        codec_note,
    );
    m.push(
        "codec.spec_digest_us",
        digest,
        "us",
        bodies.len() * 50,
        codec_note,
    );
    m.push(
        "codec.report_render_us",
        render,
        "us",
        (siting_runs.len() + annual_runs.len()) * 50,
        codec_note,
    );

    // tracing overhead and the share of the end-to-end p50 the layers
    // above do not explain.
    m.push(
        "trace.overhead_us",
        (h.hit_routed_traced - h.hit_routed) * 1e3,
        "us",
        h.samples,
        "traced minus untraced keep-alive routed hit (p50)",
    );
    let p50 = cx.e2e.get("latency_p50_ms");
    let (explained, parts) = match cx.workload {
        "exact_miss" => (
            exact_ms + miss_overhead + hop_us / 1e3,
            "engine.exact_ms + serve.miss_overhead_ms + router.hop_us",
        ),
        _ => (
            annual_ms + miss_overhead,
            "engine.annual_ms + serve.miss_overhead_ms",
        ),
    };
    m.push(
        "trace.unexplained_share",
        ratio(p50 - explained, p50, 0.0),
        "ratio",
        1,
        format!("(latency_p50_ms {p50:.4} - ({parts}) {explained:.4}) / latency_p50_ms"),
    );
    m
}

/// Basis rows when no probe siting solved (the siting LP's size on the
/// coarse clock).
const LU_FALLBACK_ROWS: usize = 1200;

/// Factorizes a seeded synthetic `m`-row basis and times
/// `SparseLu::factorize`, `ftran` and `btran`, µs. The row count and the
/// share of slack (identity) columns come from a real siting LP's optimal
/// basis; the other columns' shape is assumed: four in five are two-entry
/// battery state-of-charge chains, one in five a dense coupling column
/// with up to 12 entries.
fn lu_probe(tr: &Tracer, seed: u64, m: usize, slack_share: f64) -> (f64, f64, f64) {
    let mut rng = Rng::new(seed ^ 0x1u64.rotate_left(40));
    let mut b = ColMatrix::new(m);
    for j in 0..m {
        let mut col: Vec<(usize, f64)> = Vec::new();
        // Slack columns spread evenly; structural ones split 4:1.
        let u = (j as f64 * 0.618_034).fract();
        if u < slack_share {
            col.push((j, 1.0));
        } else if j % 5 != 4 {
            col.push((j, 1.0));
            if j + 1 < m {
                col.push((j + 1, -rng.range(0.7, 0.99)));
            }
        } else {
            col.push((j, rng.range(1.0, 2.0)));
            for _ in 0..12 {
                let r = rng.below(m);
                if r != j {
                    col.push((r, rng.range(-1.0, 1.0) * 0.1));
                }
            }
        }
        col.sort_by_key(|e| e.0);
        col.dedup_by_key(|e| e.0);
        b.push_col(col);
    }
    let lu_span = tr.begin("lu.probe", None, 0);
    let lu_us = time_us(50, || {
        tr.span("SparseLu::factorize", Some(lu_span), 0, || {
            black_box(SparseLu::factorize(black_box(&b)).is_ok());
        });
    });
    let (ftran, btran) = match SparseLu::factorize(&b) {
        Ok(lu) => {
            let rhs: Vec<f64> = (0..m).map(|_| rng.range(-1.0, 1.0)).collect();
            let mut scratch = Vec::new();
            let f = time_us(200, || {
                let mut x = rhs.clone();
                tr.span("ftran", Some(lu_span), 0, || {
                    lu.ftran(black_box(&mut x), &mut scratch)
                });
                black_box(&x);
            });
            let bt = time_us(200, || {
                let mut x = rhs.clone();
                tr.span("btran", Some(lu_span), 0, || {
                    lu.btran(black_box(&mut x), &mut scratch)
                });
                black_box(&x);
            });
            (f, bt)
        }
        Err(_) => (0.0, 0.0),
    };
    tr.end(lu_span);
    (lu_us, ftran, btran)
}

/// 72 warm rolling rounds of the Table III network's hourly scheduler:
/// `(median µs per RollingScheduler::plan, warm rate, rounds)`.
fn nebula_probe(tr: &Tracer, engine: &greencloud_api::Engine) -> (f64, f64, usize) {
    let Some(profiles) = table3_profiles(engine.catalog()) else {
        return (0.0, 0.0, 0);
    };
    let cfg = SchedulerConfig {
        window_hours: 12,
        ..SchedulerConfig::default()
    };
    let mut sched = RollingScheduler::new(cfg);
    let mut loads = vec![50.0 / profiles.len() as f64; profiles.len()];
    let mut us = Vec::new();
    let rounds = 72;
    for t in 0..rounds {
        let states = rolling_states(&profiles, 4080 + t, 12, &loads);
        let t0 = now_s();
        let plan = tr.span("RollingScheduler::plan", None, t as u64, || {
            sched.plan(&states)
        });
        us.push((now_s() - t0) * 1e6);
        if let Ok(p) = plan {
            loads = p.target_mw;
        }
    }
    (median(&us), sched.stats().warm_rate(), rounds)
}
