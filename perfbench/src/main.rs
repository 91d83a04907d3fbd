//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <fleet-ids|web-heavy-tail|fleet-roam> [--seed N]
//!           [--seconds S] [--trace 0|1] [--spans-out PATH]
//! ```
//!
//! `--trace 0` repeats the workload's whole emulator job (scenario build,
//! `Emulator::new`, workload attach, `Emulator::run`) for `--seconds` and
//! prints the end-to-end metrics as medians over the jobs. `--trace 1`
//! alternates untraced and traced jobs, then replays each layer's public
//! entry point on the workload's own generated inputs and prints the
//! per-layer metrics. Every job passes the correctness gate (packet
//! conservation, exact stream budget, identical `RunReport` digest across
//! jobs); a violation exits nonzero. The last stdout line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

mod e2e;
mod replay;
mod spans;
mod workloads;

use e2e::{gate, run_job, Job};
use spans::Spans;
use std::process::ExitCode;
use std::time::Instant;
use workloads::WorkloadDef;

/// Jobs every run makes at least, whatever `--seconds` says, so that a
/// median exists.
const MIN_JOBS: usize = 3;

struct Args {
    workload: WorkloadDef,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|ix| args.get(ix + 1))
            .map(String::as_str)
    };
    let name = value("--workload").ok_or("--workload is required")?;
    let workload = workloads::by_name(name).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; expected one of {}",
            workloads::NAMES.join(", ")
        )
    })?;
    let seed = match value("--seed") {
        Some(v) => v.parse().map_err(|_| format!("bad --seed {v:?}"))?,
        None => 7,
    };
    let seconds: f64 = match value("--seconds") {
        Some(v) => v.parse().map_err(|_| format!("bad --seconds {v:?}"))?,
        None => 10.0,
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace must be 0 or 1, got {v:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        spans_out: value("--spans-out").map(str::to_string),
    })
}

/// The median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A named metric with its unit, in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn print_table(&self) {
        for (name, value, unit) in &self.0 {
            println!("  {name:<34} {value:>16.6} {unit}");
        }
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("{name:?}: {{\"value\": {value:?}, \"unit\": {unit:?}}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Per-job results the gate and the end-to-end metrics need.
struct Ledger {
    jobs: usize,
    failed: usize,
    digest: Option<u64>,
    violations: Vec<String>,
}

impl Ledger {
    fn new() -> Self {
        Ledger {
            jobs: 0,
            failed: 0,
            digest: None,
            violations: Vec::new(),
        }
    }

    /// Gates one job; a job whose report digest differs from the first
    /// job's fails too (reports are deterministic in the seed).
    fn check(&mut self, def: &WorkloadDef, job: &Job, label: &str) -> e2e::Gate {
        self.jobs += 1;
        let (gate, verdict) = gate(def, &job.report);
        let mut problems = Vec::new();
        if let Err(e) = verdict {
            problems.push(e);
        }
        match self.digest {
            None => self.digest = Some(job.digest),
            Some(d) if d != job.digest => problems.push(format!(
                "RunReport digest {:016x} differs from the first job's {d:016x}",
                job.digest
            )),
            Some(_) => {}
        }
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                self.violations.push(format!("{label}: {p}"));
            }
        }
        gate
    }
}

fn print_job(label: &str, job: &Job, gate: &e2e::Gate) {
    let p = &job.report.packets;
    println!(
        "{label}: setup {:.6} s, run {:.4} s, generated {}, retired {}, unaccounted {}, \
         lost {} (gap {}, station-down {}), migrations {}/{} failed, digest {:016x}",
        job.setup_s,
        job.run_s,
        p.generated,
        gate.retired,
        gate.unaccounted,
        gate.lost,
        p.dropped_in_gap,
        p.dropped_station_down,
        job.report.manager.migrations_failed,
        job.report.manager.migrations_started,
        job.digest,
    );
}

/// The end-to-end metrics of a set of untraced jobs.
fn end_to_end_metrics(def: &WorkloadDef, jobs: &[Job], rss_mb: f64) -> Metrics {
    let setups: Vec<f64> = jobs.iter().map(|job| job.setup_s).collect();
    let kpps: Vec<f64> = jobs
        .iter()
        .map(|job| gate(def, &job.report).0.retired as f64 / job.wall_s() / 1e3)
        .collect();
    // Every job's report is identical (the digest gate), so the shares are
    // read off the first.
    let report = &jobs[0].report;
    let g = gate(def, report).0;
    let loss_share = g.lost as f64 / report.packets.generated.max(1) as f64;
    let m = &report.manager;
    let migration_fail_share = if m.migrations_started == 0 {
        0.0
    } else {
        m.migrations_failed as f64 / m.migrations_started as f64
    };
    println!(
        "loss_share {loss_share:.6} fraction | migration_fail_share {migration_fail_share:.6} \
         fraction ({} of {} migrations failed)",
        m.migrations_failed, m.migrations_started
    );
    let mut metrics = Metrics::default();
    metrics.put("kpps", median(&kpps), "kpkt/s");
    metrics.put("setup_s", median(&setups), "s");
    metrics.put("peak_rss_mb", rss_mb, "MiB");
    metrics.put("delivered_share", 1.0 - loss_share, "fraction");
    metrics.put("migration_ok_share", 1.0 - migration_fail_share, "fraction");
    metrics
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let def = args.workload;
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} available_parallelism={}",
        def.name, args.seed, args.seconds, args.trace as u8, parallelism
    );
    println!("knobs: {}", def.knobs());

    let started = Instant::now();
    let mut ledger = Ledger::new();
    let metrics = if args.trace {
        traced_run(&args, &mut ledger, started)
    } else {
        let mut jobs = Vec::new();
        let mut first_job_rss_mb = 0.0;
        while jobs.len() < MIN_JOBS || started.elapsed().as_secs_f64() < args.seconds {
            let job = run_job(&def, args.seed, None);
            let gate = ledger.check(&def, &job, &format!("job {}", jobs.len()));
            print_job(&format!("job {}", jobs.len()), &job, &gate);
            if jobs.is_empty() {
                // The peak of one job in a fresh process: later jobs would
                // add only the allocator's fragmentation from repetition.
                first_job_rss_mb = peak_rss_mb();
            }
            jobs.push(job);
        }
        end_to_end_metrics(&def, &jobs, first_job_rss_mb)
    };

    println!("metrics:");
    metrics.print_table();
    for v in &ledger.violations {
        println!("VIOLATION {v}");
    }
    let correct = ledger.violations.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ledger.jobs,
        ledger.failed,
        metrics.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--trace 1`: untraced and traced jobs alternate for half the budget (the
/// overhead is the difference of their medians), then the layer replay runs
/// on the workload's own inputs.
fn traced_run(args: &Args, ledger: &mut Ledger, started: Instant) -> Metrics {
    let def = &args.workload;
    let mut spans = Spans::new();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    // Pairs alternate which side runs first, so neither side always pays
    // for the cold first job.
    while untraced.len() < 2 || started.elapsed().as_secs_f64() < args.seconds / 2.0 {
        let traced_first = untraced.len() % 2 == 1;
        for with_spans in [traced_first, !traced_first] {
            let (job, side) = if with_spans {
                (run_job(def, args.seed, Some(&mut spans)), &mut traced)
            } else {
                (run_job(def, args.seed, None), &mut untraced)
            };
            let label = format!(
                "{} job {}",
                if with_spans { "traced" } else { "untraced" },
                side.len()
            );
            let gate = ledger.check(def, &job, &label);
            print_job(&label, &job, &gate);
            side.push(job);
        }
    }
    let untraced_wall = median(&untraced.iter().map(Job::wall_s).collect::<Vec<_>>());
    let traced_wall = median(&traced.iter().map(Job::wall_s).collect::<Vec<_>>());
    let last = traced.last().expect("at least one traced job");
    let metrics =
        replay::layer_metrics(def, args.seed, last, traced_wall, untraced_wall, &mut spans);
    if let Some(path) = &args.spans_out {
        match spans.write_json(path) {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("perfbench: cannot write spans to {path}: {e}"),
        }
    }
    metrics
}
