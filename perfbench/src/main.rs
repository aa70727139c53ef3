#![forbid(unsafe_code)]
//! `perfbench` — the repository benchmark: end-to-end metrics of serial
//! figure regeneration and of a served run mix, plus a separate traced run
//! that times the benchmark's calls into each layer.
//!
//! ```text
//! perfbench --workload cam-fluid|pop-aorsa-mpi|serve-mix --seed N
//!           --seconds S --trace 0|1 [--serve-bin PATH]
//! ```
//!
//! `perfbench/run.py` builds this binary and `xtsim-serve` and runs it; see
//! `perfbench/README.md`. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Work files go
//! under `.bench_run/<workload>-seed<N>-trace<T>/`, which keeps the full
//! result record (seed, provenance, samples, digests) and, for a traced
//! run, the Chrome trace and the "where the wall went" table.

mod checks;
mod manifest;
mod probe;
mod procfs;
mod serve;
mod sim;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::Command;

use serde::Value;

use crate::spans::object;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations: sweep jobs, figure checks, and HTTP operations.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// `(output, FNV-1a digest)` of each checked output.
    pub digests: Vec<(String, String)>,
    /// Raw samples behind the medians, kept in the result record.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Lines printed before the result (failures, seeded order).
    pub notes: Vec<String>,
    /// "Where the wall went" table of a traced run.
    pub table: String,
    /// Chrome trace files of a traced run.
    pub trace_files: Vec<PathBuf>,
}

impl Outcome {
    /// Count one failed operation and say why.
    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {why}"));
    }
}

/// Parsed command line.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
    pub run_dir: PathBuf,
}

/// Numeric field `name` of a JSON object, NaN when absent: a missing
/// number fails the run's finiteness check instead of panicking.
pub fn field(v: &Value, name: &str) -> f64 {
    v.as_object()
        .and_then(|o| o.get(name))
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN)
}

/// SplitMix64: the benchmark's only source of randomness, seeded by
/// `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

const WORKLOADS: [&str; 3] = ["cam-fluid", "pop-aorsa-mpi", "serve-mix"];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 [--serve-bin PATH]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> RunArgs {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut serve_bin = PathBuf::from(".bench_build/release/xtsim-serve");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(v) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&v.as_str()) => workload = Some(v.clone()),
            "--seed" => seed = v.parse::<u64>().ok(),
            "--seconds" => seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(v.as_str(), "0" | "1").then(|| v == "1"),
            "--serve-bin" => serve_bin = PathBuf::from(v),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let run_dir =
        PathBuf::from(".bench_run").join(format!("{workload}-seed{seed}-trace{}", u8::from(trace)));
    RunArgs {
        workload,
        seed,
        seconds,
        trace,
        serve_bin,
        run_dir,
    }
}

fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status
        .success()
        .then(|| text.lines().next().unwrap_or("").trim().to_string())
}

/// Where the numbers were measured and with what.
fn provenance(args: &RunArgs) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let serving = args.workload == "serve-mix";
    object(vec![
        (
            "git",
            // Only this directory's own repository: git would otherwise
            // report an enclosing one.
            std::path::Path::new(".git")
                .exists()
                .then(|| first_line("git", &["rev-parse", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "unknown (not a git checkout)".into())
                .into(),
        ),
        ("nproc", (nproc as u64).into()),
        ("cpu_model", cpu.into()),
        (
            "rustc",
            first_line("rustc", &["--version"])
                .unwrap_or_else(|| "unknown".into())
                .into(),
        ),
        (
            "build_profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("sweep_workers", 1u64.into()),
        ("client_threads", (if serving { 1u64 } else { 0 }).into()),
        (
            "server_max_concurrent",
            (if serving { 1u64 } else { 0 }).into(),
        ),
    ])
}

/// Samples behind a median, with their quartiles and spread (IQR over
/// median).
fn sample_summary(xs: &[f64]) -> Value {
    let floats = |v: &[f64]| Value::Array(v.iter().map(|x| Value::Float(*x)).collect());
    object(vec![
        ("values", floats(xs)),
        ("quartiles", floats(&stats::quartiles(xs))),
        ("spread", Value::Float(stats::spread(xs))),
    ])
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("sim-child") {
        if let Err(e) = sim::child_main(&argv[1..]) {
            eprintln!("sim-child: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = parse_args(&argv);
    let _ = std::fs::remove_dir_all(&args.run_dir);
    if let Err(e) = std::fs::create_dir_all(&args.run_dir) {
        eprintln!("cannot create {}: {e}", args.run_dir.display());
        std::process::exit(1);
    }
    let mut o = match args.workload.as_str() {
        "cam-fluid" => sim::run(&args, sim::CAM_FLUID),
        "pop-aorsa-mpi" => sim::run(&args, sim::POP_AORSA_MPI),
        _ => match serve::run(&args) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("serve-mix: {e}");
                std::process::exit(1);
            }
        },
    };

    // Exactly the manifest's metrics, in its order and units; anything else
    // a workload measured stays in the result record.
    let table = if args.trace {
        &manifest::PER_LAYER[..]
    } else {
        &manifest::END_TO_END[..]
    };
    let mut measured: Vec<Metric> = std::mem::take(&mut o.metrics);
    for (name, unit) in table {
        let value = match measured.iter().position(|m| m.name == *name) {
            Some(i) => measured.swap_remove(i).value,
            None if args.trace => {
                o.notes.push(format!(
                    "{name} = 0: a layer this workload does not exercise"
                ));
                0.0
            }
            // A missing end-to-end metric fails the run's finiteness check.
            None => f64::NAN,
        };
        o.metrics.push(Metric::new(name, value, unit));
    }
    let extra: Vec<(String, Value)> = measured
        .into_iter()
        .map(|m| (m.name, Value::Float(m.value)))
        .collect();

    for note in &o.notes {
        println!("{note}");
    }
    for (name, d) in &o.digests {
        println!("digest {name} fnv1a64={d}");
    }
    if !o.table.is_empty() {
        print!("{}", o.table);
        let _ = std::fs::write(args.run_dir.join("wall.txt"), &o.table);
    }
    for f in &o.trace_files {
        println!("trace: {} (load in https://ui.perfetto.dev)", f.display());
    }
    let correct = o.failed == 0 && o.metrics.iter().all(|m| m.value.is_finite());
    let metrics = Value::Object(
        o.metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    object(vec![
                        ("value", Value::Float(m.value)),
                        ("unit", m.unit.into()),
                    ]),
                )
            })
            .collect(),
    );
    let record = object(vec![
        ("workload", args.workload.as_str().into()),
        ("seed", Value::Int(args.seed as i64)),
        ("seconds", Value::Float(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("provenance", provenance(&args)),
        ("correct", Value::Bool(correct)),
        ("attempted", o.attempted.into()),
        ("failed", o.failed.into()),
        ("metrics", metrics.clone()),
        ("other_metrics", Value::Object(extra.into_iter().collect())),
        (
            "samples",
            object(
                o.samples
                    .iter()
                    .map(|(k, v)| (*k, sample_summary(v)))
                    .collect(),
            ),
        ),
        (
            "digests",
            object(
                o.digests
                    .iter()
                    .map(|(k, v)| (k.as_str(), Value::Str(v.clone())))
                    .collect(),
            ),
        ),
        (
            "notes",
            Value::Array(o.notes.iter().map(|n| Value::Str(n.clone())).collect()),
        ),
    ]);
    let path = args.run_dir.join("result.json");
    let _ = std::fs::write(
        &path,
        serde_json::to_string_pretty(&record).expect("record serializes"),
    );
    println!("result record: {}", path.display());
    let line = object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", o.attempted.into()),
        ("failed", o.failed.into()),
        ("metrics", metrics),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("result serializes")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_seeded_and_a_permutation() {
        let base: Vec<u32> = (0..12).collect();
        let (mut a, mut b, mut c) = (base.clone(), base.clone(), base.clone());
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        Rng::new(8).shuffle(&mut c);
        assert_eq!(a, b);
        assert_ne!(a, c);
        a.sort();
        assert_eq!(a, base);
    }
}
