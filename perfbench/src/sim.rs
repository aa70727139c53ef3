//! The simulation workloads: regenerate a fixed set of quick-scale figures
//! in a fresh process, with an empty cache and one sweep worker.
//!
//! Every regeneration runs in a child process (`perfbench sim-child`), so
//! each one starts with a cold process-wide memory cache tier and its own
//! peak RSS. The untraced child takes the same path as
//! `figures --jobs 1 --quick`: `run_figure` with a serial, cached
//! `SweepConfig`. It then regenerates the same figures warm, every job a
//! cache hit, as a warm served run does without HTTP, queue and registry.
//! The traced child makes the cold calls one layer at a time and records a
//! span around each.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use serde::Value;
use xtsim::des::trace::{self as des_trace, SpanCategory};
use xtsim::figures::{figure, Figure};
use xtsim::report::{FigureResult, Scale};
use xtsim::sweep::{
    run_figure, CacheLookup, DiskCache, FigureSpec, PreparedKey, SweepConfig, DEFAULT_MEM_CAP,
};

use crate::checks::{check_figure, digest};
use crate::spans::{object, Recorder};
use crate::stats::{median, percentile};
use crate::{field, probe, procfs, Metric, Outcome, Rng, RunArgs};

/// Set-up repetitions per child; the child reports each one.
const SETUP_REPS: usize = 5;
/// Untraced regenerations per run, however long they take.
const MIN_CHILDREN: usize = 2;
/// Warm regenerations per untraced child (about 1 s), in blocks of 500:
/// fifty lie beyond each block's p90.
const WARM_BLOCKS: usize = 4;
const WARM_BLOCK_OPS: usize = 500;

/// CAM: every job runs at <= 256 ranks, where the fluid model prices every
/// transfer.
pub const CAM_FLUID: &[&str] = &["fig14", "fig15", "fig16"];
/// POP and AORSA: Counting contention above 256 ranks, modeled collectives
/// above 128, heavy p2p halo matching; AORSA emits no flow spans.
pub const POP_AORSA_MPI: &[&str] = &["fig17", "fig18", "fig19", "fig23"];

// ------------------------------------------------------------ child side

/// `perfbench sim-child --figures a,b,c --dir DIR --seed N [--traced]`:
/// regenerate once into `DIR/out` with the cache at `DIR/cache` (then, if
/// untraced, warm in an order seeded by `N`), and print one JSON line
/// describing the run.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let mut ids: Vec<String> = Vec::new();
    let mut dir = None;
    let mut seed = 0;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--figures" => {
                ids = it
                    .next()
                    .ok_or("--figures needs ids")?
                    .split(',')
                    .map(String::from)
                    .collect()
            }
            "--dir" => dir = Some(PathBuf::from(it.next().ok_or("--dir needs a path")?)),
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs a number")?
            }
            "--traced" => traced = true,
            other => return Err(format!("sim-child: unknown argument {other}")),
        }
    }
    let dir = dir.ok_or("sim-child needs --dir")?;
    let figs: Vec<Figure> = ids
        .iter()
        .map(|id| figure(id).ok_or_else(|| format!("unknown figure {id}")))
        .collect::<Result<_, _>>()?;
    let out = dir.join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let cache_dir = dir.join("cache");
    let report = if traced {
        traced_regen(&figs, &cache_dir, &out, &dir.join("trace.json"))?
    } else {
        plain_regen(&figs, &cache_dir, &out, seed)?
    };
    println!(
        "{}",
        serde_json::to_string(&report).expect("report serializes")
    );
    Ok(())
}

fn open_cache(dir: &Path) -> Result<DiskCache, String> {
    DiskCache::with_mem_cap(dir, DEFAULT_MEM_CAP)
        .map_err(|e| format!("open cache {}: {e}", dir.display()))
}

fn write_outputs(out: &Path, result: &FigureResult, json: &str) -> Result<(), String> {
    std::fs::write(out.join(format!("{}.csv", result.id)), result.to_csv())
        .and_then(|()| std::fs::write(out.join(format!("{}.json", result.id)), json))
        .map_err(|e| format!("write {}: {e}", result.id))
}

fn vmhwm_kb() -> u64 {
    procfs::status_kb("self", "VmHWM").unwrap_or(0)
}

/// Time the probe without counting its buffer in the child's peak RSS:
/// the peak so far is kept in `peak_kb`, and the kernel's high-water mark
/// is reset once the probe has freed its memory.
fn probe_once(peak_kb: &mut u64) -> Result<f64, String> {
    *peak_kb = (*peak_kb).max(vmhwm_kb());
    let t = probe::once();
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("reset the peak RSS after a probe: {e}"))?;
    Ok(t)
}

/// The untraced regeneration, then the warm phase.
fn plain_regen(figs: &[Figure], cache_dir: &Path, out: &Path, seed: u64) -> Result<Value, String> {
    // Set-up: the workload's FigureSpecs, every JobKey prepared, the cache
    // opened once per figure (as the `figures` CLI opens it). The keys are
    // only measured here; run_figure prepares its own.
    let mut setup = Vec::new();
    let mut ready: Vec<(FigureSpec, DiskCache)> = Vec::new();
    let mut digests = BTreeSet::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let specs: Vec<FigureSpec> = figs.iter().map(|f| f.spec(Scale::Quick)).collect();
        let keys: Vec<PreparedKey> = specs
            .iter()
            .flat_map(|s| s.jobs.iter().map(|j| j.key.prepare()))
            .collect();
        let caches: Vec<DiskCache> = specs
            .iter()
            .map(|_| open_cache(cache_dir))
            .collect::<Result<_, _>>()?;
        setup.push(Value::Float(t.elapsed().as_secs_f64()));
        digests = keys.into_iter().map(|k| k.digest).collect();
        ready = specs.into_iter().zip(caches).collect();
    }

    // The regeneration's wall time is the sum of its figures'; a probe
    // between figures gives each its own host factor.
    let (mut jobs, mut computed, mut cached) = (0, 0, 0);
    let mut cold = BTreeMap::new();
    let mut peak_kb = 0;
    let mut probes = vec![probe_once(&mut peak_kb)?];
    let (mut regen, mut regen_ref) = (0.0, 0.0);
    for (spec, cache) in ready {
        let t = Instant::now();
        let (result, stats) = run_figure(spec, &SweepConfig::serial().with_cache(cache));
        let json =
            serde_json::to_string_pretty(&result).map_err(|e| format!("serialize: {e:?}"))?;
        write_outputs(out, &result, &json)?;
        let secs = t.elapsed().as_secs_f64();
        let before = probes[probes.len() - 1];
        probes.push(probe_once(&mut peak_kb)?);
        regen += secs;
        regen_ref += secs / probe::factor(before, probes[probes.len() - 1]);
        jobs += stats.total;
        computed += stats.computed;
        cached += stats.cached;
        cold.insert(result.id, json);
    }
    let warm = warm_phase(figs, cache_dir, &cold, seed, &mut probes, &mut peak_kb)?;
    Ok(object(vec![
        ("warm", warm),
        ("regen_ref_s", Value::Float(regen_ref)),
        (
            "setup_host_factor",
            Value::Float(probes[0] / probe::REFERENCE_S),
        ),
        (
            "probe_s",
            Value::Array(probes.into_iter().map(Value::Float).collect()),
        ),
        ("setup_s", Value::Array(setup)),
        ("regen_s", Value::Float(regen)),
        ("vmhwm_kb", peak_kb.max(vmhwm_kb()).into()),
        ("jobs", (jobs as u64).into()),
        ("computed", (computed as u64).into()),
        ("cached", (cached as u64).into()),
        ("distinct", (digests.len() as u64).into()),
    ]))
}

/// The warm phase: `WARM_BLOCKS` blocks of `WARM_BLOCK_OPS` warm
/// regenerations, each figure once per round of the schedule in a seeded
/// order, with a probe after each block. One op opens the cache, runs the
/// figure and serialises it, as the server's executor does; its output must
/// equal the cold one and compute nothing. Each block's p50, p90 and CPU
/// time per op are divided by the host factor of the probes around it, and
/// the phase reports their medians over blocks, so a burst on the host
/// during one block does not move them.
fn warm_phase(
    figs: &[Figure],
    cache_dir: &Path,
    cold: &BTreeMap<String, String>,
    seed: u64,
    probes: &mut Vec<f64>,
    peak_kb: &mut u64,
) -> Result<Value, String> {
    let mut rng = Rng::new(seed);
    let mut schedule: Vec<&Figure> = Vec::new();
    let mut failures: Vec<Value> = Vec::new();
    let (mut p50, mut p90, mut cpu) = (Vec::new(), Vec::new(), Vec::new());
    let thread_cpu = || procfs::thread_cpu_ms().ok_or("cannot read CPU time");
    for _ in 0..WARM_BLOCKS {
        let cpu0 = thread_cpu()?;
        let ms = warm_block(
            figs,
            cache_dir,
            cold,
            &mut rng,
            &mut schedule,
            &mut failures,
        )?;
        let cpu1 = thread_cpu()?;
        let before = probes[probes.len() - 1];
        probes.push(probe_once(peak_kb)?);
        let f = probe::factor(before, probes[probes.len() - 1]);
        p50.push(percentile(&ms, 50.0) / f);
        p90.push(percentile(&ms, 90.0) / f);
        cpu.push((cpu1 - cpu0) / WARM_BLOCK_OPS as f64 / f);
    }
    Ok(object(vec![
        ("ops", ((WARM_BLOCKS * WARM_BLOCK_OPS) as u64).into()),
        ("p50_ms", Value::Float(median(&p50))),
        ("p90_ms", Value::Float(median(&p90))),
        ("cpu_ms", Value::Float(median(&cpu))),
        ("failures", Value::Array(failures)),
    ]))
}

/// One block of warm regenerations: their latencies in ms.
fn warm_block<'a>(
    figs: &'a [Figure],
    cache_dir: &Path,
    cold: &BTreeMap<String, String>,
    rng: &mut Rng,
    schedule: &mut Vec<&'a Figure>,
    failures: &mut Vec<Value>,
) -> Result<Vec<f64>, String> {
    let mut ms = Vec::with_capacity(WARM_BLOCK_OPS);
    for _ in 0..WARM_BLOCK_OPS {
        if schedule.is_empty() {
            schedule.extend(figs);
            rng.shuffle(schedule);
        }
        let fig = schedule.pop().expect("refilled");
        let t = Instant::now();
        let cache = open_cache(cache_dir)?;
        let (result, stats) = run_figure(
            fig.spec(Scale::Quick),
            &SweepConfig::serial().with_cache(cache),
        );
        let json =
            serde_json::to_string_pretty(&result).map_err(|e| format!("serialize: {e:?}"))?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        if stats.computed != 0 || cold.get(fig.id) != Some(&json) {
            failures.push(Value::Str(format!(
                "warm {}: {} job(s) computed, output {} the cold one",
                fig.id,
                stats.computed,
                if cold.get(fig.id) == Some(&json) {
                    "equals"
                } else {
                    "differs from"
                }
            )));
        }
    }
    Ok(ms)
}

#[derive(Default)]
struct KindTotals {
    secs: f64,
    spans: u64,
}

/// The traced regeneration: `run_figure`'s serial sequence (spec, prepare,
/// load every job, run the misses, store them, assemble) made through the
/// public calls, then serialise and write as the CLI does. Each call gets a
/// span with its figure as parent and its job index as id.
pub(crate) fn traced_regen(
    figs: &[Figure],
    cache_dir: &Path,
    out: &Path,
    trace_path: &Path,
) -> Result<Value, String> {
    let mut rec = Recorder::new();
    let t0 = Instant::now();
    let cache = rec.time("cache", "cache.open", 0, None, || open_cache(cache_dir))?;
    let (mut lookups, mut hits, mut stores, mut store_bytes, mut out_bytes) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut job_secs: Vec<f64> = Vec::new();
    let mut kinds: BTreeMap<String, KindTotals> = BTreeMap::new();
    let mut span_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut digests = BTreeSet::new();
    for (fi, fig) in figs.iter().enumerate() {
        let fig_span = rec.open("figure", fig.id, fi as u64, None);
        let parent = Some(fig_span);
        let FigureSpec { jobs, assemble, .. } =
            rec.time("figures", "figures.spec", 0, parent, || {
                fig.spec(Scale::Quick)
            });
        let keys: Vec<PreparedKey> = rec.time("sweep", "sweep.prepare", 0, parent, || {
            jobs.iter().map(|j| j.key.prepare()).collect()
        });
        digests.extend(keys.iter().map(|k| k.digest.clone()));

        let mut slots: Vec<Option<Value>> = vec![None; jobs.len()];
        let mut pending = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            lookups += 1;
            match rec.time("cache", "cache.load", i as u64, parent, || cache.load(key)) {
                CacheLookup::Hit(v) => {
                    hits += 1;
                    slots[i] = Some(v);
                }
                CacheLookup::Miss | CacheLookup::KeyMismatch => pending.push(i),
            }
        }
        let mut fresh = Vec::with_capacity(pending.len());
        for &i in &pending {
            let kind = jobs[i].key.kind.clone();
            let t = Instant::now();
            des_trace::capture_begin();
            let v = rec.time("apps", format!("apps.{kind}"), i as u64, parent, || {
                (jobs[i].run)()
            });
            let secs = t.elapsed().as_secs_f64();
            // Counting the simulator's spans is the benchmark's own work.
            let bench = rec.open("bench", "bench.count_spans", i as u64, parent);
            let data = des_trace::capture_end().unwrap_or_default();
            job_secs.push(secs);
            let k = kinds.entry(kind).or_default();
            k.secs += secs;
            k.spans += data.spans.len() as u64;
            for s in &data.spans {
                *span_counts.entry(s.category.as_str()).or_default() += 1;
            }
            drop(data);
            rec.close(bench);
            fresh.push((i, v));
        }
        for (i, v) in fresh {
            // A failed store is not a figure failure (run_figure drops it too).
            if rec
                .time("cache", "cache.store", i as u64, parent, || {
                    cache.store(&keys[i], &v)
                })
                .is_ok()
            {
                stores += 1;
                let d = &keys[i].digest;
                let path = cache_dir.join(&d[..2]).join(format!("{d}.json"));
                store_bytes += std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            }
            slots[i] = Some(v);
        }
        let values: Vec<Value> = slots
            .into_iter()
            .map(|s| s.expect("every job answered"))
            .collect();
        let result = rec.time("report", "report.assemble", 0, parent, || assemble(&values));
        let json = rec.time("serde", "serde.serialize", 0, parent, || {
            serde_json::to_string_pretty(&result)
        });
        let json = json.map_err(|e| format!("serialize: {e:?}"))?;
        out_bytes += json.len() as u64;
        rec.time("io", "io.write", 0, parent, || {
            write_outputs(out, &result, &json)
        })?;
        rec.close(fig_span);
    }
    let wall = t0.elapsed();

    let ms = |name: &str| Value::Float(rec.total_of(name).as_secs_f64() * 1e3);
    let mut layers = vec![
        ("figures.spec_ms".to_string(), ms("figures.spec")),
        ("sweep.prepare_ms".into(), ms("sweep.prepare")),
        ("cache.open_ms".into(), ms("cache.open")),
        ("cache.lookups".into(), lookups.into()),
        (
            "cache.hit_ratio".into(),
            Value::Float(hits as f64 / lookups.max(1) as f64),
        ),
        ("cache.load_ms".into(), ms("cache.load")),
        ("cache.stores".into(), stores.into()),
        ("cache.store_ms".into(), ms("cache.store")),
        (
            "cache.store_kb".into(),
            Value::Float(store_bytes as f64 / 1024.0),
        ),
        ("report.assemble_ms".into(), ms("report.assemble")),
        ("serde.serialize_ms".into(), ms("serde.serialize")),
        (
            "serde.out_kb".into(),
            Value::Float(out_bytes as f64 / 1024.0),
        ),
        ("apps.jobs".into(), (job_secs.len() as u64).into()),
        ("apps.job_s".into(), Value::Float(job_secs.iter().sum())),
        (
            "apps.job_max_s".into(),
            Value::Float(job_secs.iter().copied().fold(0.0, f64::max)),
        ),
    ];
    for (kind, k) in &kinds {
        layers.push((format!("apps.{kind}.job_s"), Value::Float(k.secs)));
        layers.push((
            format!("apps.{kind}.ns_per_span"),
            Value::Float(k.secs * 1e9 / k.spans.max(1) as f64),
        ));
    }
    for (name, cat) in [
        ("net.flow_spans", SpanCategory::Flow),
        ("mpi.p2p_spans", SpanCategory::P2p),
        ("mpi.collective_spans", SpanCategory::Collective),
        ("mpi.compute_spans", SpanCategory::Compute),
    ] {
        layers.push((
            name.into(),
            span_counts.get(cat.as_str()).copied().unwrap_or(0).into(),
        ));
    }

    let ids: Vec<Value> = figs.iter().map(|f| Value::Str(f.id.to_string())).collect();
    let trace = rec.chrome_json(&[("figures", Value::Array(ids))]);
    std::fs::write(trace_path, trace)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    Ok(object(vec![
        ("regen_s", Value::Float(wall.as_secs_f64())),
        ("vmhwm_kb", vmhwm_kb().into()),
        ("jobs", (lookups).into()),
        ("computed", (lookups - hits).into()),
        ("cached", hits.into()),
        ("distinct", (digests.len() as u64).into()),
        ("layers", Value::Object(layers.into_iter().collect())),
        (
            "table",
            Value::Str(rec.wall_table("traced regeneration", wall)),
        ),
    ]))
}

// ----------------------------------------------------------- parent side

/// One finished child: its report and its output files.
struct ChildRun {
    report: Value,
    outputs: Vec<(String, Vec<u8>)>,
}

fn spawn_child(ids: &[String], dir: &Path, seed: u64, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("sim-child")
        .arg("--figures")
        .arg(ids.join(","))
        .arg("--dir")
        .arg(dir)
        .arg("--seed")
        .arg(seed.to_string());
    if traced {
        cmd.arg("--traced");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn sim-child: {e}"))?;
    if !out.status.success() {
        return Err(format!("sim-child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("sim-child printed nothing")?;
    let report: Value =
        serde_json::from_str(line).map_err(|e| format!("sim-child report: {e:?}"))?;
    let outputs = ids
        .iter()
        .map(|id| {
            let bytes = std::fs::read(dir.join("out").join(format!("{id}.json")))
                .map_err(|e| format!("read output {id}: {e}"))?;
            Ok((id.clone(), bytes))
        })
        .collect::<Result<_, String>>()?;
    Ok(ChildRun { report, outputs })
}

/// Run a simulation workload: seeded figure order, one child per
/// regeneration until `--seconds` is used (untraced), or one untraced and
/// one traced child (`--trace 1`).
pub fn run(args: &RunArgs, figures: &[&str]) -> Outcome {
    let mut ids: Vec<String> = figures.iter().map(|s| s.to_string()).collect();
    Rng::new(args.seed).shuffle(&mut ids);
    let mut o = Outcome::default();
    o.notes.push(format!("figure order: {}", ids.join(",")));

    let mut reference: Option<Vec<(String, Vec<u8>)>> = None;
    let mut children: Vec<Value> = Vec::new();
    let mut traced_report = None;
    let t_run = Instant::now();
    let mut last = Duration::ZERO;
    for k in 0.. {
        let traced = args.trace && k == 1;
        if args.trace && k == 2 {
            break;
        }
        if !args.trace
            && k >= MIN_CHILDREN
            && t_run.elapsed() + last > Duration::from_secs_f64(args.seconds)
        {
            break;
        }
        let dir = args.run_dir.join(format!("child{k}"));
        let t = Instant::now();
        let seed = args.seed ^ (k as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f);
        let child = spawn_child(&ids, &dir, seed, traced);
        last = t.elapsed();
        // One op per sweep job, per figure check, and for the job accounting.
        let checks = ids.len() as u64 + 1;
        let child = match child {
            Ok(c) => c,
            Err(e) => {
                // Nothing of this regeneration can be checked.
                o.attempted += checks;
                o.failed += checks - 1;
                o.fail(&format!("child {k}: {e}"));
                continue;
            }
        };
        let r = &child.report;
        let jobs = field(r, "jobs") as u64;
        o.attempted += jobs + checks;
        if let Some(warm) = r.as_object().and_then(|m| m.get("warm")) {
            o.attempted += field(warm, "ops") as u64;
            let failures = warm.as_object().and_then(|m| m.get("failures"));
            for f in failures.and_then(Value::as_array).into_iter().flatten() {
                o.fail(&format!("child {k}: {}", f.as_str().unwrap_or("?")));
            }
        }
        // Shared jobs are computed once: computed == distinct keys.
        if field(r, "computed") != field(r, "distinct")
            || field(r, "cached") + field(r, "distinct") != jobs as f64
        {
            o.fail(&format!(
                "child {k}: job accounting {} computed, {} cached, {} distinct keys",
                field(r, "computed"),
                field(r, "cached"),
                field(r, "distinct")
            ));
        }
        for (i, (id, bytes)) in child.outputs.iter().enumerate() {
            let mut verdict = check_figure(id, bytes);
            if let Some(want) = &reference {
                if verdict.is_ok() && want[i].1 != *bytes {
                    verdict = Err(format!(
                        "{id}: output differs from the first regeneration{}",
                        if traced { " (traced vs untraced)" } else { "" }
                    ));
                }
            }
            if let Err(e) = verdict {
                o.fail(&format!("child {k}: {e}"));
            }
        }
        if reference.is_none() {
            for (id, bytes) in &child.outputs {
                o.digests.push((format!("{id}.json"), digest(bytes)));
            }
            reference = Some(child.outputs);
        }
        if traced {
            traced_report = Some(child.report);
        } else {
            children.push(child.report);
        }
        // Outputs are checked; caches and figures are not kept.
        let _ = std::fs::remove_dir_all(dir.join("cache"));
        let _ = std::fs::remove_dir_all(dir.join("out"));
    }

    let regen: Vec<f64> = children.iter().map(|c| field(c, "regen_ref_s")).collect();
    if let Some(t) = traced_report {
        let obj = t.as_object().expect("report object");
        o.metrics.extend(layer_metrics(&t));
        let traced = field(&t, "regen_s");
        let plain = children
            .first()
            .map(|c| field(c, "regen_s") + median(&setups(c)))
            .unwrap_or(f64::NAN);
        o.metrics.push(Metric::new(
            "bench.trace_overhead_pct",
            100.0 * (traced / plain - 1.0),
            "%",
        ));
        if let Some(table) = obj.get("table").and_then(Value::as_str) {
            o.table = table.to_string();
        }
        o.trace_files
            .push(args.run_dir.join("child1").join("trace.json"));
    } else {
        // Every timing is divided by the host factor of the probes next to
        // it (see probe.rs); the raw values stay in the result record.
        let setup_raw: Vec<f64> = children.iter().map(|c| median(&setups(c))).collect();
        let setup: Vec<f64> = children
            .iter()
            .zip(&setup_raw)
            .map(|(c, s)| s / field(c, "setup_host_factor"))
            .collect();
        let regen_raw: Vec<f64> = children.iter().map(|c| field(c, "regen_s")).collect();
        let rss: Vec<f64> = children
            .iter()
            .map(|c| field(c, "vmhwm_kb") / 1024.0)
            .collect();
        let warm = |name: &str| -> Vec<f64> {
            children
                .iter()
                .filter_map(|c| c.as_object()?.get("warm"))
                .map(|w| field(w, name))
                .collect()
        };
        let (p50, p90, cpu) = (warm("p50_ms"), warm("p90_ms"), warm("cpu_ms"));
        let probes: Vec<f64> = children
            .iter()
            .filter_map(|c| c.as_object()?.get("probe_s")?.as_array().cloned())
            .flatten()
            .filter_map(|v| v.as_f64())
            .collect();
        o.metrics = vec![
            Metric::new("setup_s", median(&setup), "s"),
            Metric::new("peak_rss_mb", median(&rss), "MB"),
            Metric::new("regen_s", median(&regen), "s"),
            Metric::new("warm_p50_ms", median(&p50), "ms"),
            Metric::new("warm_p90_ms", median(&p90), "ms"),
            Metric::new("warm_cpu_ms", median(&cpu), "ms"),
        ];
        o.samples.push(("regen_s", regen));
        o.samples.push(("setup_s", setup));
        o.samples.push(("warm_p50_ms", p50));
        o.samples.push(("warm_p90_ms", p90));
        o.samples.push(("warm_cpu_ms", cpu));
        o.samples.push(("peak_rss_mb", rss));
        o.samples.push(("raw_setup_s", setup_raw));
        o.samples.push(("raw_regen_s", regen_raw));
        o.samples.push(("probe_s", probes));
    }
    o
}

fn setups(report: &Value) -> Vec<f64> {
    report
        .as_object()
        .and_then(|o| o.get("setup_s"))
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// The per-layer metrics of a traced regeneration's report; `main` gives
/// them their units.
pub(crate) fn layer_metrics(report: &Value) -> Vec<Metric> {
    let layers = report.as_object().and_then(|o| o.get("layers"));
    match layers {
        Some(Value::Object(layers)) => layers
            .iter()
            .map(|(name, v)| Metric::new(name, v.as_f64().unwrap_or(f64::NAN), ""))
            .collect(),
        _ => Vec::new(),
    }
}
