//! The `serve-mix` workload: one `xtsim-serve` process, started with
//! `--max-concurrent 1 --jobs 1` on a fresh cache and registry, driven by
//! one closed-loop client thread that waits for each reply.
//!
//! A round is a cold phase (each figure of a catalog with disjoint job keys
//! requested once: the only served runs that compute) then a warm phase of
//! `WARM_OPS` operations over the catalog and the siblings that share its
//! jobs, every tenth operation a dashboard read (GET /stats, /runs,
//! /metrics). A round's work is fixed, so a faster server does not buy
//! itself more retained runs and slower reads. Rounds repeat, each on a
//! fresh server, until `--seconds` is used.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use serde::Value;
use xtsim::figures::{figure, Figure};
use xtsim::report::Scale;
use xtsim::sweep::{run_figure, DiskCache, SweepConfig};

use crate::spans::Recorder;
use crate::stats::{highest_percentile, median, percentile};
use crate::{field, procfs, Metric, Outcome, Rng, RunArgs};

/// Figures whose job keys are pairwise disjoint: each computes every job
/// the first time it is served.
const COLD: [&str; 10] = [
    "table1", "fig01", "fig02", "fig08", "fig09", "fig10", "fig11", "fig12", "fig20", "fig22",
];
/// Siblings answered entirely from the cold figures' jobs (fig03 from
/// fig02, fig13 from fig12). fig21 is not one: only 6 of its 12 jobs are
/// fig20's, so it would compute in the warm phase.
const SIBLINGS: [&str; 2] = ["fig03", "fig13"];
/// Warm operations per round: 504 runs, so fifty lie beyond p90, and 56
/// reads. The traced run has one untraced and one traced round; their
/// 1,008 runs and 112 reads together leave ten beyond p99 and p90.
const WARM_OPS: usize = 560;
const READ_EVERY: usize = 10;
const MIN_ROUNDS: usize = 3;
/// Server spawns used only to sample set-up time, on top of one per round.
const SETUP_SPAWNS: usize = 4;

/// One HTTP/1.1 response (the server closes every connection).
struct Reply {
    status: u16,
    body: Vec<u8>,
}

fn http(port: u16, method: &str, path: &str, body: &[u8]) -> Result<Reply, String> {
    let err = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut s = TcpStream::connect(("127.0.0.1", port)).map_err(err)?;
    s.set_nodelay(true).map_err(err)?;
    // A hung server fails the operation instead of the whole run.
    s.set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(err)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes())
        .and_then(|()| s.write_all(body))
        .map_err(err)?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).map_err(err)?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or(format!("{method} {path}: no header end"))?;
    let head =
        std::str::from_utf8(&raw[..split]).map_err(|_| format!("{method} {path}: bad header"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(format!("{method} {path}: bad status line"))?;
    let length: Option<usize> = head
        .lines()
        .find_map(|l| {
            l.split_once(':')
                .filter(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        })
        .and_then(|(_, v)| v.trim().parse().ok());
    let body = raw[split + 4..].to_vec();
    if length != Some(body.len()) {
        return Err(format!(
            "{method} {path}: body is {} bytes, header says {length:?}",
            body.len()
        ));
    }
    Ok(Reply { status, body })
}

fn json_field(body: &[u8], name: &str) -> Option<Value> {
    let v: Value = serde_json::from_str(std::str::from_utf8(body).ok()?).ok()?;
    v.as_object()?.get(name).cloned()
}

/// A running `xtsim-serve` on an ephemeral port, killed on drop.
struct Server {
    child: Child,
    /// Held open so the server never writes to a closed pipe.
    stdout: Option<BufReader<ChildStdout>>,
    port: u16,
    pid: String,
    dir: PathBuf,
    /// Spawn to the first 200 on `GET /`.
    setup_s: f64,
}

impl Server {
    fn spawn(bin: &Path, dir: &Path) -> Result<Server, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let stderr = std::fs::File::create(dir.join("server.stderr")).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let child = Command::new(bin)
            .args([
                "--port",
                "0",
                "--max-concurrent",
                "1",
                "--jobs",
                "1",
                "--cache-dir",
            ])
            .arg(dir.join("cache"))
            .arg("--registry-dir")
            .arg(dir.join("registry"))
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let pid = child.id().to_string();
        let mut server = Server {
            child,
            stdout: None,
            port: 0,
            pid,
            dir: dir.to_path_buf(),
            setup_s: 0.0,
        };
        let mut stdout = BufReader::new(server.child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        while server.port == 0 {
            line.clear();
            if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                return Err("xtsim-serve exited before listening".into());
            }
            if let Some(addr) = line.trim().strip_prefix("xtsim-serve listening on http://") {
                server.port = addr
                    .rsplit(':')
                    .next()
                    .and_then(|p| p.parse().ok())
                    .ok_or("bad listen line")?;
            }
        }
        server.stdout = Some(stdout);
        loop {
            match http(server.port, "GET", "/", b"") {
                Ok(r) if r.status == 200 => break,
                _ if t0.elapsed() > Duration::from_secs(30) => {
                    return Err("xtsim-serve never answered GET /".into())
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        server.setup_s = t0.elapsed().as_secs_f64();
        Ok(server)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(self.dir.join("cache"));
        let _ = std::fs::remove_dir_all(self.dir.join("registry"));
    }
}

/// The one client thread. A traced client also records a span per request
/// (served runs and reads as parents, requests as children) and per-request
/// times by span name.
struct Client {
    port: u16,
    requests: u64,
    non_2xx: u64,
    polls: u64,
    polls_202: u64,
    runs_bytes: usize,
    rec: Option<Recorder>,
    times: BTreeMap<&'static str, Vec<f64>>,
}

/// Re-poll delay: a twentieth of the time already waited, within
/// [50 us, 2 ms], so a poll lands within ~5% of completion for a 2 ms warm
/// run and a 2 s cold run alike without flooding the server.
fn poll_delay(waited: Duration) -> Duration {
    (waited / 20).clamp(Duration::from_micros(50), Duration::from_millis(2))
}

impl Client {
    fn new(port: u16, traced: bool) -> Client {
        Client {
            port,
            requests: 0,
            non_2xx: 0,
            polls: 0,
            polls_202: 0,
            runs_bytes: 0,
            rec: traced.then(Recorder::new),
            times: BTreeMap::new(),
        }
    }

    fn open(&mut self, name: &'static str, id: u64) -> Option<usize> {
        self.rec.as_mut().map(|r| r.open("client", name, id, None))
    }

    fn close(&mut self, span: Option<usize>, id: u64) {
        if let (Some(r), Some(s)) = (self.rec.as_mut(), span) {
            r.close(s);
            r.set_id(s, id);
        }
    }

    fn call(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<Reply, String> {
        let span = self.rec.as_mut().map(|r| r.open("http", name, id, parent));
        let t = Instant::now();
        let reply = http(self.port, method, path, body);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some(r) = self.rec.as_mut() {
            r.close(span.expect("span opened"));
            self.times.entry(name).or_default().push(ms);
        }
        self.requests += 1;
        if !matches!(&reply, Ok(r) if (200..300).contains(&r.status)) {
            self.non_2xx += 1;
        }
        reply
    }

    /// POST /runs, then poll the result until it is 200: returns the run
    /// id, the result body, and the latency from the POST to its last byte.
    fn served_run(&mut self, fig: &str, name: &'static str) -> Result<(u64, Vec<u8>, f64), String> {
        let t0 = Instant::now();
        let span = self.open(name, 0);
        let body = format!("{{\"figure\": \"{fig}\", \"scale\": \"quick\"}}");
        let post = self.call("http.post", 0, span, "POST", "/runs", body.as_bytes())?;
        if post.status != 202 {
            return Err(format!("POST /runs {fig}: status {}", post.status));
        }
        let id = json_field(&post.body, "id")
            .and_then(|v| v.as_i64())
            .ok_or("POST /runs: no id")? as u64;
        let path = format!("/runs/{id}/result");
        let result = loop {
            let r = self.call("http.poll", id, span, "GET", &path, b"")?;
            self.polls += 1;
            match r.status {
                200 => break r.body,
                202 => {
                    self.polls_202 += 1;
                    std::thread::sleep(poll_delay(t0.elapsed()));
                }
                s => return Err(format!("GET {path} ({fig}): status {s}")),
            }
        };
        let latency = t0.elapsed().as_secs_f64() * 1e3;
        self.close(span, id);
        Ok((id, result, latency))
    }

    /// One dashboard read: GET /stats, /runs and /metrics, timed together.
    fn read(&mut self, n: u64) -> Result<f64, String> {
        let t0 = Instant::now();
        let span = self.open("serve.read", n);
        for (name, path) in [
            ("http.stats", "/stats"),
            ("http.runs", "/runs"),
            ("http.metrics", "/metrics"),
        ] {
            let r = self.call(name, n, span, "GET", path, b"")?;
            if r.status != 200 {
                return Err(format!("GET {path}: status {}", r.status));
            }
            if path == "/runs" {
                self.runs_bytes = r.body.len();
            }
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.close(span, n);
        Ok(ms)
    }
}

/// What one round measured.
struct Round {
    setup_s: f64,
    cold_s: f64,
    warm_s: f64,
    warm_ms: Vec<f64>,
    read_ms: Vec<f64>,
    cpu_ms_per_op: f64,
    hwm_kb: f64,
    layers: Vec<Metric>,
    table: String,
}

/// Sum of a Prometheus series over the lines matching `name` and every
/// `label="value"` pair in `labels`.
fn prom_sum(text: &str, name: &str, labels: &[(&str, &str)]) -> f64 {
    text.lines()
        .filter(|l| l.starts_with(name) && l[name.len()..].starts_with(['{', ' ']))
        .filter(|l| {
            labels
                .iter()
                .all(|(k, v)| l.contains(&format!("{k}=\"{v}\"")))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// `GET /runs/:id/result` -> `get_runs_id_result`, `GET /` -> `get_root`.
fn route_metric(route: &str) -> String {
    let (method, path) = route.split_once(' ').unwrap_or((route, ""));
    let segs: Vec<&str> = path
        .split('/')
        .filter(|s| !s.is_empty())
        .map(|s| s.trim_start_matches(':'))
        .collect();
    let path = if segs.is_empty() {
        "root".to_string()
    } else {
        segs.join("_")
    };
    format!("serve.busy_ms.{}_{path}", method.to_lowercase())
}

fn round(
    args: &RunArgs,
    k: usize,
    traced: bool,
    reference: &BTreeMap<String, Vec<u8>>,
    o: &mut Outcome,
) -> Result<Round, String> {
    let server = Server::spawn(&args.serve_bin, &args.run_dir.join(format!("round{k}")))?;
    let mut c = Client::new(server.port, traced);
    let mut rng = Rng::new(args.seed ^ (k as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
    let check = |o: &mut Outcome, fig: &str, body: &[u8]| {
        if reference.get(fig).map(Vec::as_slice) != Some(body) {
            o.fail(&format!(
                "round {k}: served {fig} differs from the in-process figure"
            ));
        }
    };

    let mut cold_ids = Vec::new();
    let mut order: Vec<&str> = COLD.to_vec();
    rng.shuffle(&mut order);
    let t = Instant::now();
    for fig in order {
        o.attempted += 1;
        match c.served_run(fig, "serve.cold") {
            Ok((id, body, _)) => {
                check(o, fig, &body);
                cold_ids.push(id);
            }
            Err(e) => o.fail(&format!("round {k}: cold {e}")),
        }
    }
    let cold_s = t.elapsed().as_secs_f64();

    let rss_cold = procfs::status_kb(&server.pid, "VmRSS").unwrap_or(0) as f64;
    let (polls_before, waste_before) = (c.polls, c.polls_202);
    let cpu0 = procfs::cpu_ms(&server.pid).ok_or("cannot read server CPU time")?;
    let warm: Vec<&str> = COLD.iter().chain(&SIBLINGS).copied().collect();
    let mut schedule: Vec<&str> = Vec::new();
    let (mut warm_ms, mut read_ms) = (Vec::new(), Vec::new());
    let t = Instant::now();
    for op in 0..WARM_OPS {
        o.attempted += 1;
        if op % READ_EVERY == READ_EVERY - 1 {
            match c.read(op as u64) {
                Ok(ms) => read_ms.push(ms),
                Err(e) => o.fail(&format!("round {k}: read {e}")),
            }
            continue;
        }
        // Every block of runs requests each warm figure once, in a seeded
        // order, so every seed serves the same mix.
        if schedule.is_empty() {
            schedule = warm.clone();
            rng.shuffle(&mut schedule);
        }
        let fig = schedule.pop().expect("refilled");
        match c.served_run(fig, "serve.warm") {
            Ok((_, body, ms)) => {
                check(o, fig, &body);
                warm_ms.push(ms);
            }
            Err(e) => o.fail(&format!("round {k}: warm {e}")),
        }
    }
    let warm_s = t.elapsed().as_secs_f64();
    let cpu1 = procfs::cpu_ms(&server.pid).ok_or("cannot read server CPU time")?;
    let hwm_kb = procfs::status_kb(&server.pid, "VmHWM").unwrap_or(0) as f64;
    let rss_end = procfs::status_kb(&server.pid, "VmRSS").unwrap_or(0) as f64;

    // Envelopes of every run: cold runs computed everything, warm runs
    // nothing. These two reads are outside the timed phases and the trace.
    o.attempted += 2;
    let runs = http(c.port, "GET", "/runs", b"")?;
    let scrape = http(c.port, "GET", "/metrics", b"")?;
    if runs.status != 200 || scrape.status != 200 {
        o.fail(&format!(
            "round {k}: end-of-round reads returned {} and {}",
            runs.status, scrape.status
        ));
    }
    let envelopes: Vec<Value> = std::str::from_utf8(&runs.body)
        .ok()
        .and_then(|t| serde_json::from_str::<Value>(t).ok())
        .and_then(|v| v.as_array().cloned())
        .ok_or("GET /runs: not a JSON array")?;
    let (mut cold_env, mut warm_env) = (Vec::new(), Vec::new());
    for env in &envelopes {
        let id = field(env, "id") as u64;
        let status = env
            .as_object()
            .and_then(|m| m.get("status"))
            .and_then(Value::as_str)
            .unwrap_or("?");
        let is_cold = cold_ids.contains(&id);
        let (field, want_zero) = if is_cold {
            ("cached", field(env, "cached"))
        } else {
            ("computed", field(env, "computed"))
        };
        if status != "done" || want_zero != 0.0 {
            o.fail(&format!(
                "round {k}: run {id} is {status} with {field} = {want_zero}"
            ));
        }
        if is_cold {
            cold_env.push(env)
        } else {
            warm_env.push(env)
        }
    }
    let warm_runs = warm_ms.len().max(1) as f64;

    let mut layers = Vec::new();
    let mut table = String::new();
    if let Some(rec) = c.rec.take() {
        let text = String::from_utf8_lossy(&scrape.body).into_owned();
        let med = |name: &str| median(c.times.get(name).map(Vec::as_slice).unwrap_or(&[]));
        let waits: Vec<f64> = warm_env
            .iter()
            .map(|e| field(e, "wait_secs") * 1e3)
            .collect();
        let exec: Vec<f64> = warm_env
            .iter()
            .map(|e| field(e, "exec_secs") * 1e3)
            .collect();
        let wall: Vec<f64> = warm_env
            .iter()
            .map(|e| field(e, "wall_secs") * 1e3)
            .collect();
        let over: Vec<f64> = exec.iter().zip(&wall).map(|(e, w)| e - w).collect();
        let polls = (c.polls - polls_before) as f64;
        let registry = std::fs::metadata(server.dir.join("registry").join("runs.jsonl"))
            .map(|m| m.len())
            .unwrap_or(0);
        let lookups = prom_sum(&text, "xtsim_cache_lookups_total", &[]);
        let mem_hits = prom_sum(
            &text,
            "xtsim_cache_lookups_total",
            &[("result", "hit"), ("tier", "memory")],
        );
        layers = vec![
            Metric::new("serve.http.post_ms", med("http.post"), "ms"),
            Metric::new("serve.http.poll_ms", med("http.poll"), "ms"),
            Metric::new("serve.polls_per_run", polls / warm_runs, "polls/run"),
            Metric::new(
                "serve.poll_waste_ratio",
                (c.polls_202 - waste_before) as f64 / polls.max(1.0),
                "ratio",
            ),
            Metric::new("serve.queue.wait_p50_ms", percentile(&waits, 50.0), "ms"),
            Metric::new("serve.queue.wait_p99_ms", percentile(&waits, 99.0), "ms"),
            Metric::new("serve.exec_ms", median(&exec), "ms"),
            Metric::new("sweep.wall_ms", median(&wall), "ms"),
            Metric::new("serve.exec_overhead_ms", median(&over), "ms"),
            Metric::new("serve.http.stats_ms", med("http.stats"), "ms"),
            Metric::new("serve.http.runs_ms", med("http.runs"), "ms"),
            Metric::new("serve.http.metrics_ms", med("http.metrics"), "ms"),
            Metric::new("serve.runs_kb", c.runs_bytes as f64 / 1024.0, "KB"),
            Metric::new("serve.registry_kb", registry as f64 / 1024.0, "KB"),
            Metric::new(
                "serve.rss_kb_per_run",
                (rss_end - rss_cold) / warm_runs,
                "KB",
            ),
            Metric::new("cache.mem_hit_ratio", mem_hits / lookups.max(1.0), "ratio"),
            Metric::new(
                "serve.cold.computed_jobs",
                cold_env.iter().map(|e| field(e, "computed")).sum(),
                "count",
            ),
            Metric::new(
                "serve.cold.exec_s",
                cold_env.iter().map(|e| field(e, "exec_secs")).sum(),
                "s",
            ),
            Metric::new(
                "serve.errors",
                c.non_2xx as f64 / c.requests.max(1) as f64,
                "ratio",
            ),
        ];
        let mut routes: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("xtsim_http_request_seconds_sum{"))
            .filter_map(|l| l.split("route=\"").nth(1)?.split('"').next())
            .collect();
        routes.dedup();
        for route in routes {
            let ms = prom_sum(&text, "xtsim_http_request_seconds_sum", &[("route", route)]) * 1e3;
            layers.push(Metric {
                name: route_metric(route),
                value: ms,
                unit: "ms",
            });
        }
        table = rec.wall_table(
            &format!("traced serve-mix round (cold {cold_s:.3} s + warm {warm_s:.3} s)"),
            Duration::from_secs_f64(cold_s + warm_s),
        );
        let trace = rec.chrome_json(&[("workload", "serve-mix".into())]);
        let path = args.run_dir.join("trace.json");
        std::fs::write(&path, trace).map_err(|e| format!("write {}: {e}", path.display()))?;
        o.trace_files.push(path);
    }
    Ok(Round {
        setup_s: server.setup_s,
        cold_s,
        warm_s,
        warm_ms,
        read_ms,
        cpu_ms_per_op: (cpu1 - cpu0) / WARM_OPS as f64,
        hwm_kb,
        layers,
        table,
    })
}

/// The figures served, computed in-process (serial, one cache): the bytes
/// every served result must equal. A traced run computes them through the
/// simulation workloads' traced regeneration, which gives serve-mix the
/// in-process layers' metrics for its own figures.
fn reference_bodies(
    dir: &Path,
    traced: bool,
    o: &mut Outcome,
) -> Result<BTreeMap<String, Vec<u8>>, String> {
    let dir = dir.join("reference");
    let cache_dir = dir.join("cache");
    let mut out = BTreeMap::new();
    if traced {
        let figs: Vec<Figure> = COLD
            .iter()
            .chain(&SIBLINGS)
            .map(|id| figure(id).ok_or_else(|| format!("unknown figure {id}")))
            .collect::<Result<_, _>>()?;
        let out_dir = dir.join("out");
        std::fs::create_dir_all(&out_dir)
            .map_err(|e| format!("create {}: {e}", out_dir.display()))?;
        let trace = dir.join("trace.json");
        let report = crate::sim::traced_regen(&figs, &cache_dir, &out_dir, &trace)?;
        for fig in &figs {
            let path = out_dir.join(format!("{}.json", fig.id));
            let bytes =
                std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            out.insert(fig.id.to_string(), bytes);
        }
        o.metrics.extend(crate::sim::layer_metrics(&report));
        if let Some(table) = report
            .as_object()
            .and_then(|m| m.get("table"))
            .and_then(Value::as_str)
        {
            o.table.push_str(table);
        }
        o.trace_files.push(trace);
        let _ = std::fs::remove_dir_all(&out_dir);
    } else {
        for id in COLD.iter().chain(&SIBLINGS) {
            let fig = figure(id).ok_or_else(|| format!("unknown figure {id}"))?;
            let cache = DiskCache::new(&cache_dir).map_err(|e| format!("reference cache: {e}"))?;
            let (result, _) = run_figure(
                fig.spec(Scale::Quick),
                &SweepConfig::serial().with_cache(cache),
            );
            let json =
                serde_json::to_string_pretty(&result).map_err(|e| format!("serialize: {e:?}"))?;
            out.insert(id.to_string(), json.into_bytes());
        }
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
    Ok(out)
}

/// Run the serve-mix workload.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let t_run = Instant::now();
    // The reference is checked like a regenerated figure (goldens, finite
    // series); served bodies are then checked against it.
    let reference = reference_bodies(&args.run_dir, args.trace, &mut o)?;
    for (id, body) in &reference {
        o.attempted += 1;
        if let Err(e) = crate::checks::check_figure(id, body) {
            o.fail(&format!("in-process {e}"));
        }
        o.digests
            .push((format!("{id}.json"), crate::checks::digest(body)));
    }
    // Timings are divided by the host factor of the probes around them, as
    // in the simulation workloads: one before the set-up spawns and one
    // after each round.
    let mut probes = Vec::new();
    let mut setups = Vec::new();
    if !args.trace {
        probes.push(crate::probe::once());
        for i in 0..SETUP_SPAWNS {
            let server = Server::spawn(&args.serve_bin, &args.run_dir.join(format!("setup{i}")))?;
            setups.push(server.setup_s / (probes[0] / crate::probe::REFERENCE_S));
        }
    }
    let mut rounds: Vec<Round> = Vec::new();
    let mut last = Duration::ZERO;
    for k in 0.. {
        let done = if args.trace {
            k == 2
        } else {
            k >= MIN_ROUNDS && t_run.elapsed() + last > Duration::from_secs_f64(args.seconds)
        };
        if done {
            break;
        }
        let t = Instant::now();
        rounds.push(round(args, k, args.trace && k == 1, &reference, &mut o)?);
        if !args.trace {
            probes.push(crate::probe::once());
        }
        last = t.elapsed();
    }

    // Every round's warm runs reach p90; the traced run's two rounds
    // together reach p99 for warm runs and p90 for reads.
    let pooled = |f: &dyn Fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let (warm_all, read_all) = (pooled(&|r| &r.warm_ms), pooled(&|r| &r.read_ms));
    let enough = rounds
        .iter()
        .all(|r| highest_percentile(r.warm_ms.len()).unwrap_or(0.0) >= 90.0)
        && (!args.trace
            || highest_percentile(warm_all.len()).unwrap_or(0.0) >= 99.0
                && highest_percentile(read_all.len()).unwrap_or(0.0) >= 90.0);
    if !enough {
        o.fail(&format!(
            "too few samples: {} warm runs and {} reads over {} round(s)",
            warm_all.len(),
            read_all.len(),
            rounds.len()
        ));
    }

    if args.trace {
        // Tail percentiles over both rounds of the traced run.
        o.metrics.extend([
            Metric::new("serve.warm_p99_ms", percentile(&warm_all, 99.0), "ms"),
            Metric::new("serve.read_p50_ms", percentile(&read_all, 50.0), "ms"),
            Metric::new("serve.read_p90_ms", percentile(&read_all, 90.0), "ms"),
        ]);
        let mut traced = rounds.pop().expect("traced round");
        let plain = &rounds[0];
        o.metrics.append(&mut traced.layers);
        let overhead = (traced.cold_s + traced.warm_s) / (plain.cold_s + plain.warm_s) - 1.0;
        o.metrics.push(Metric::new(
            "bench.trace_overhead_pct",
            100.0 * overhead,
            "%",
        ));
        o.table.push_str(&traced.table);
        return Ok(o);
    }
    let host: Vec<f64> = probes
        .windows(2)
        .map(|w| crate::probe::factor(w[0], w[1]))
        .collect();
    // Percentiles are taken per round, then the median over rounds: one
    // round with a burst of slow replies does not move the result.
    let per_round = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> {
        rounds.iter().zip(&host).map(|(r, h)| f(r) / h).collect()
    };
    setups.extend(per_round(&|r| r.setup_s));
    let regen = per_round(&|r| r.cold_s);
    let p50 = per_round(&|r| percentile(&r.warm_ms, 50.0));
    let p90 = per_round(&|r| percentile(&r.warm_ms, 90.0));
    let cpu = per_round(&|r| r.cpu_ms_per_op);
    let rss: Vec<f64> = rounds.iter().map(|r| r.hwm_kb / 1024.0).collect();
    // The cold phase is the served regeneration of the catalog from an
    // empty cache: serve-mix's `regen_s`.
    o.metrics = vec![
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("peak_rss_mb", median(&rss), "MB"),
        Metric::new("regen_s", median(&regen), "s"),
        Metric::new("warm_p50_ms", median(&p50), "ms"),
        Metric::new("warm_p90_ms", median(&p90), "ms"),
        Metric::new("warm_cpu_ms", median(&cpu), "ms"),
    ];
    o.notes.push(format!(
        "{} round(s) of {} warm runs and {} reads; warm phase {:.2} s per round",
        rounds.len(),
        rounds[0].warm_ms.len(),
        rounds[0].read_ms.len(),
        median(&rounds.iter().map(|r| r.warm_s).collect::<Vec<_>>())
    ));
    o.samples.push(("setup_s", setups));
    o.samples.push(("peak_rss_mb", rss));
    o.samples.push(("regen_s", regen));
    o.samples.push(("warm_p50_ms", p50));
    o.samples.push(("warm_p90_ms", p90));
    o.samples.push(("warm_cpu_ms", cpu));
    o.samples
        .push(("raw_regen_s", rounds.iter().map(|r| r.cold_s).collect()));
    o.samples.push((
        "raw_warm_p50_ms",
        rounds
            .iter()
            .map(|r| percentile(&r.warm_ms, 50.0))
            .collect(),
    ));
    o.samples.push(("probe_s", probes));
    Ok(o)
}
