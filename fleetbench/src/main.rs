//! `fleetbench` — the repository's seeded benchmark.
//!
//! One process starts a fleet of `repro router` plus two `repro serve`
//! backends, replays one workload through it, checks every report
//! against an in-process `Engine::run` of the same spec, and prints the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace
//! 1`). The last line of standard output is the result object:
//!
//! ```text
//! {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//! ```
//!
//! Run it through `fleetbench/run.sh`, which builds `repro` and this
//! binary first; see `fleetbench/README.md` for the workloads and the
//! metric-to-layer map.

mod check;
mod fleet;
mod gen;
mod http;
mod probe;
mod trace;
mod util;
mod workload;

use crate::fleet::{Exit, Fleet};
use crate::gen::Input;
use crate::trace::Tracer;
use crate::util::{median, now_s, tail, Metrics};
use crate::workload::{Run, Sample};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Fleet set-ups per run; `setup_s` is their median and the last one
/// serves the measured window.
const SETUPS: usize = 5;
/// Generator threads and connections: the host's 2 cores.
const CLIENT_THREADS: usize = 2;
/// Distinct `exact_miss` specs generated: several times what a 20 s run
/// uses on a 2-core host.
const EXACT_INPUTS: usize = 2000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repro: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        // BENCHMARK.json's run_seconds: the window the bounds were set on.
        seconds: 20.0,
        trace: false,
        repro: PathBuf::new(),
        out_dir: PathBuf::from(".bench_build/fleetbench"),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => a.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => a.trace = value()? == "1",
            "--repro" => a.repro = PathBuf::from(value()?),
            "--out-dir" => a.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !matches!(a.workload.as_str(), "exact_miss" | "annual_jobs") {
        return Err(format!(
            "--workload must be exact_miss or annual_jobs (got {:?})",
            a.workload
        ));
    }
    if !a.repro.is_file() {
        return Err(format!("repro binary not found at {:?}", a.repro));
    }
    if !a.seconds.is_finite() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn inputs_for(workload: &str, seed: u64) -> Vec<Input> {
    match workload {
        "exact_miss" => gen::exact_sitings(seed, EXACT_INPUTS),
        _ => gen::annual_jobs(seed, 600),
    }
}

/// Brings the fleet to the measured state: for `exact_miss`, the
/// candidate cache built on both backends.
fn warm_up(fleet: &Fleet, workload: &str) -> Result<(), String> {
    if workload != "exact_miss" {
        return Ok(());
    }
    let w = gen::candidate_warmup();
    for addr in fleet.backend_addrs() {
        let r = http::once(&addr, "POST", "/v1/experiments", &[], w.body.as_bytes())
            .map_err(|e| format!("warm-up: {e}"))?;
        if !r.ok() {
            return Err(format!("warm-up: HTTP {} {}", r.status, r.text()));
        }
    }
    Ok(())
}

/// The outcome of the output check.
struct Checked {
    attempted: usize,
    failed: usize,
    /// Per sample: passed the check.
    good: Vec<bool>,
    refs: HashMap<usize, check::Reference>,
    first_error: Option<String>,
    /// Reports compared against a reference, and how many differed.
    compared: usize,
    mismatched: usize,
}

/// Compares every 2xx report with an in-process `Engine::run` of its spec
/// (one reference per distinct spec, computed after the fleet stopped).
///
/// References run one at a time in a traced run, so their wall times are
/// clean `engine.*` figures, and two at a time otherwise.
fn check_outputs(
    inputs: &[Input],
    samples: &[Sample],
    tracer: &Tracer,
    dump_dir: &Path,
) -> Checked {
    let mut need: Vec<usize> = samples
        .iter()
        .filter(|s| s.body.is_some())
        .map(|s| s.idx)
        .collect();
    need.sort_unstable();
    need.dedup();
    let engine = check::engine();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let refs = std::sync::Mutex::new(HashMap::new());
    std::thread::scope(|scope| {
        let workers = if tracer.on() { 1 } else { CLIENT_THREADS };
        for _ in 0..workers {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                let Some(&idx) = need.get(k) else { break };
                let r = tracer.span("Engine::run", None, idx as u64, || {
                    check::reference(&engine, &inputs[idx].spec)
                });
                refs.lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .insert(idx, r);
            });
        }
    });
    let refs = refs.into_inner().unwrap_or_else(|p| p.into_inner());
    let mut out = Checked {
        attempted: samples.len(),
        failed: 0,
        good: Vec::with_capacity(samples.len()),
        refs: HashMap::new(),
        first_error: None,
        compared: 0,
        mismatched: 0,
    };
    for s in samples {
        out.compared += usize::from(s.body.is_some());
        let verdict = match (&s.err, &s.body) {
            (Some(e), _) => Err(e.clone()),
            (None, None) => Err("no report".into()),
            (None, Some(body)) => match refs.get(&s.idx) {
                Some(Ok(r))
                    if check::comparable(body).as_deref() == Some(r.comparable.as_str()) =>
                {
                    Ok(())
                }
                Some(Ok(r)) => {
                    let served = dump_dir.join(format!("mismatch-{}-served.json", s.idx));
                    let _ = std::fs::write(&served, check::comparable(body).unwrap_or_default());
                    let _ = std::fs::write(
                        dump_dir.join(format!("mismatch-{}-reference.json", s.idx)),
                        &r.comparable,
                    );
                    Err(format!(
                        "report for input {} differs from Engine::run (both written beside {})",
                        s.idx,
                        served.display()
                    ))
                }
                Some(Err(e)) => Err(format!("reference run failed: {e}")),
                None => Err("no reference".into()),
            },
        };
        if let Err(e) = verdict {
            out.mismatched += usize::from(s.err.is_none());
            out.failed += 1;
            out.first_error.get_or_insert(e);
            out.good.push(false);
        } else {
            out.good.push(true);
        }
    }
    out.refs = refs
        .into_iter()
        .filter_map(|(k, v)| v.ok().map(|v| (k, v)))
        .collect();
    out
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("fleetbench: {msg}");
    ExitCode::from(1)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

fn run(args: &Args) -> Result<(), String> {
    let inputs = inputs_for(&args.workload, args.seed);
    println!(
        "fleetbench: workload {} seed {} seconds {} trace {} | inputs {} digest {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        inputs.len(),
        gen::digest(&inputs)
    );
    let scratch = args.out_dir.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{scratch:?}: {e}"))?;
    let result = measure(args, &inputs, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn measure(args: &Args, inputs: &[Input], scratch: &Path) -> Result<(), String> {
    let tracer = Tracer::new(args.trace);
    let durable = args.workload == "annual_jobs";
    let mut exits: Vec<Exit> = Vec::new();
    let mut setup_s = Vec::new();
    let fleet = loop {
        let journal = scratch.join(format!("journal-{}", setup_s.len()));
        if durable {
            std::fs::create_dir_all(&journal).map_err(|e| e.to_string())?;
        }
        let t0 = now_s();
        let f = Fleet::start(&args.repro, durable.then_some(journal.as_path()))?;
        warm_up(&f, &args.workload)?;
        setup_s.push(now_s() - t0);
        if setup_s.len() == SETUPS {
            break f;
        }
        exits.extend(f.stop());
    };
    let router = fleet.router.addr.clone();
    let before = args.trace.then(|| probe::FleetObs::collect(&fleet));
    let run: Run = if durable {
        workload::annual_jobs(&router, inputs, args.seconds, CLIENT_THREADS, &tracer)
    } else {
        workload::sync_misses(&router, inputs, args.seconds, CLIENT_THREADS, &tracer)
    };
    // Traced runs: counters after the window, then HTTP probes on the
    // live fleet.
    let layer_obs = match before {
        Some(before) => {
            let after = probe::FleetObs::collect(&fleet);
            let http = probe::http_probes(&fleet, &args.workload, args.seed, &tracer)?;
            Some((before, after, http))
        }
        None => None,
    };
    let peak_rss_mb = fleet.peak_rss_mb();
    exits.extend(fleet.stop());
    let checked = check_outputs(inputs, &run.samples, &tracer, &args.out_dir);

    // End-to-end metrics, always computed (printed as the result with
    // --trace 0, as context with --trace 1).
    let e2e = end_to_end(&run, &checked, &setup_s, peak_rss_mb);
    let clean = exits.iter().all(Exit::clean);
    for e in &exits {
        println!(
            "  exit {:<8} code {:?} drained {} summary: {}",
            e.name,
            e.code,
            e.drained,
            e.summary
                .iter()
                .map(|l| l.trim())
                .collect::<Vec<_>>()
                .join("; ")
        );
    }
    println!("known defect: {}", check::KNOWN_DEFECT);
    println!(
        "  this run: {} of {} compared reports differ from Engine::run",
        checked.mismatched, checked.compared
    );
    if let Some(e) = &checked.first_error {
        println!("first failure: {e}");
    }
    println!(
        "fail_ratio {:.6} ({} failed of {} attempted); fleet exits clean: {clean}",
        checked.failed as f64 / checked.attempted.max(1) as f64,
        checked.failed,
        checked.attempted
    );
    println!("end-to-end:\n{}", e2e.render_table());
    let traced = layer_obs.as_ref().map(|(before, after, http)| {
        probe::per_layer(probe::Context {
            workload: &args.workload,
            run: &run,
            refs: &checked.refs,
            good: &checked.good,
            window: probe::Window { before, after },
            http,
            e2e: &e2e,
            tracer: &tracer,
            seed: args.seed,
        })
    });
    let metrics = if let Some(m) = traced {
        println!(
            "per-layer (metric -> end-to-end target):\n{}",
            m.render_table()
        );
        println!(
            "span self times ({} spans; name: count, total ms, self ms):",
            tracer.len()
        );
        for (name, (n, total, own)) in tracer.self_times() {
            println!("  {name:<32} {n:>7} {total:>12.3} {own:>12.3}");
        }
        let path = args
            .out_dir
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("spans not written: {e}"),
        }
        m
    } else {
        e2e
    };
    let correct = checked.failed == 0 && clean && checked.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checked.attempted.max(1),
        checked.failed,
        metrics.render_json()
    );
    Ok(())
}

fn end_to_end(run: &Run, checked: &Checked, setup_s: &[f64], peak_rss_mb: f64) -> Metrics {
    let mut m = Metrics::default();
    m.push(
        "setup_s",
        median(setup_s),
        "s",
        setup_s.len(),
        "median of fleet set-ups",
    );
    let lat: Vec<f64> = run
        .samples
        .iter()
        .zip(&checked.good)
        .filter(|(_, g)| **g)
        .map(|(s, _)| s.lat_ms)
        .collect();
    m.push(
        "throughput_rps",
        lat.len() as f64 / run.elapsed_s.max(1e-9),
        "1/s",
        lat.len(),
        "correct completions",
    );
    m.push("latency_p50_ms", median(&lat), "ms", lat.len(), "");
    let (t, pct) = tail(&lat);
    m.push("latency_tail_ms", t, "ms", lat.len(), format!("p{pct:.2}"));
    m.push(
        "peak_rss_mb",
        peak_rss_mb,
        "MiB",
        3,
        "sum of VmHWM, router + 2 backends",
    );
    m
}
