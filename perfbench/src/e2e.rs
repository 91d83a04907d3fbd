//! One end-to-end job: scenario build, `Emulator::new`, workload attach and
//! `Emulator::run`, timed from outside, plus the correctness gate every job
//! passes through.

use crate::spans::Spans;
use crate::workloads::{Traffic, WorkloadDef};
use gnf_core::{Emulator, RunReport};
use gnf_nf::NfKind;
use gnf_types::StationId;
use gnf_workload::{GeneratorStats, SyntheticWorkload, TimedBatch, Workload};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Wall time and call count of `Workload::next_batch`, filled by
/// [`TimedWorkload`] in traced jobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamTiming {
    pub busy_s: f64,
    pub batches: u64,
    pub stats: GeneratorStats,
}

/// The timing decorator around the streaming source.
struct TimedWorkload {
    inner: SyntheticWorkload,
    timing: Rc<RefCell<StreamTiming>>,
}

impl Workload for TimedWorkload {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn next_batch(&mut self) -> Option<TimedBatch> {
        let start = Instant::now();
        let batch = self.inner.next_batch();
        let elapsed = start.elapsed().as_secs_f64();
        let mut timing = self.timing.borrow_mut();
        timing.busy_s += elapsed;
        if batch.is_some() {
            timing.batches += 1;
        }
        timing.stats = self.inner.stats();
        batch
    }
}

/// Operation counts a traced job reads off the emulator after the run:
/// what each layer's replayed per-op cost is multiplied by.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    /// `packets_in` per NF kind, summed over the chains deployed at the end
    /// of the run (bypass credits included).
    pub nf_packets_in: Vec<(NfKind, u64)>,
    /// Manager->Agent commands handled, summed over Agents.
    pub agent_commands: u64,
    /// Station reports made (report timer firings while the station was up).
    pub reports: u64,
    /// Manager ticks the run executed.
    pub ticks: u64,
    /// Region summaries the Manager ingested.
    pub region_summaries: u64,
}

/// What one job measured and produced.
pub struct Job {
    pub setup_s: f64,
    pub run_s: f64,
    pub report: RunReport,
    pub digest: u64,
    pub stream: Option<StreamTiming>,
    pub counts: Option<LayerCounts>,
}

impl Job {
    pub fn wall_s(&self) -> f64 {
        self.setup_s + self.run_s
    }
}

/// FNV-1a over the report's JSON: equal digests mean byte-identical reports.
pub fn digest(report: &RunReport) -> u64 {
    let json = serde_json::to_string(report).expect("run reports serialize");
    json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |hash, byte| {
        (hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs one job. With `spans`, the job is traced: spans wrap each public
/// entry point, the streaming source is wrapped in the timing decorator and
/// the layer counts are collected before the emulator is dropped.
pub fn run_job(def: &WorkloadDef, seed: u64, mut spans: Option<&mut Spans>) -> Job {
    let enter = |spans: &mut Option<&mut Spans>, name: &str| {
        if let Some(s) = spans.as_deref_mut() {
            s.enter(name);
        }
    };
    let exit = |spans: &mut Option<&mut Spans>| {
        if let Some(s) = spans.as_deref_mut() {
            s.exit();
        }
    };
    let traced = spans.is_some();
    enter(&mut spans, "job");

    let start = Instant::now();
    // The stream source is built from the scenario's topology, so it is
    // part of the scenario build.
    enter(&mut spans, "scenario.build");
    let scenario = def.scenario(seed);
    let stream = def.stream(seed, &scenario);
    exit(&mut spans);
    enter(&mut spans, "emulator.new");
    let mut emulator = Emulator::new(scenario);
    exit(&mut spans);
    emulator.set_workers(def.workers);
    let timing = Rc::new(RefCell::new(StreamTiming::default()));
    enter(&mut spans, "workload.attach");
    if let Some(source) = stream {
        if traced {
            emulator.add_workload(Box::new(TimedWorkload {
                inner: source,
                timing: Rc::clone(&timing),
            }));
        } else {
            emulator.add_workload(Box::new(source));
        }
    }
    exit(&mut spans);
    let setup_s = start.elapsed().as_secs_f64();

    enter(&mut spans, "emulator.run");
    let run_start = Instant::now();
    let report = emulator.run();
    let run_s = run_start.elapsed().as_secs_f64();
    exit(&mut spans);

    let counts = traced.then(|| collect_counts(def, &emulator, &report));
    exit(&mut spans);
    drop(emulator);
    let digest = digest(&report);
    let stream =
        (traced && matches!(def.traffic, Traffic::Stream { .. })).then(|| *timing.borrow());
    Job {
        setup_s,
        run_s,
        report,
        digest,
        stream,
        counts,
    }
}

fn collect_counts(def: &WorkloadDef, emulator: &Emulator, report: &RunReport) -> LayerCounts {
    let mut counts = LayerCounts::default();
    let config = def.config(0);
    let horizon = report.duration;
    for ix in 0..def.stations as u64 {
        let station = StationId::new(ix);
        let Some(agent) = emulator.agent(station) else {
            continue;
        };
        counts.agent_commands += agent.commands_handled();
        for deployed in agent.chains() {
            for (_, kind, stats) in deployed.chain.per_nf_stats() {
                match counts.nf_packets_in.iter_mut().find(|(k, _)| *k == kind) {
                    Some((_, n)) => *n += stats.packets_in,
                    None => counts.nf_packets_in.push((kind, stats.packets_in)),
                }
            }
        }
        // Report timers fire at interval + (station % 97) ms, then every
        // interval, up to the horizon.
        let first = config.agent_report_interval.as_secs_f64() + (ix % 97) as f64 / 1e3;
        if first <= horizon.as_secs_f64() {
            counts.reports += 1
                + ((horizon.as_secs_f64() - first) / config.agent_report_interval.as_secs_f64())
                    as u64;
        }
    }
    counts.ticks =
        (horizon.as_secs_f64() / config.hotspot_scan_interval.as_secs_f64()).floor() as u64;
    counts.region_summaries = emulator.manager().control_plane_stats().region_summaries;
    counts
}

/// The outcome of the correctness gate for one job.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Packets that reached a terminal class.
    pub retired: u64,
    /// Generated packets missing from the conservation sum.
    pub unaccounted: u64,
    /// Lost packets: gap drops, station-down drops and unaccounted packets.
    pub lost: u64,
}

/// Checks packet conservation and, for streaming workloads, the exact
/// packet budget. `Err` names the violation; the returned gate still counts
/// the unaccounted packets.
pub fn gate(def: &WorkloadDef, report: &RunReport) -> (Gate, Result<(), String>) {
    let p = &report.packets;
    // A gap-bypassed packet is also counted as forwarded, so it is not added
    // again.
    let retired =
        p.forwarded + p.dropped_by_nf + p.replied_by_nf + p.dropped_in_gap + p.dropped_station_down;
    let unaccounted = p.generated.saturating_sub(retired);
    let gate = Gate {
        retired,
        unaccounted,
        lost: p.dropped_in_gap + p.dropped_station_down + unaccounted,
    };
    if retired != p.generated {
        return (
            gate,
            Err(format!(
                "packet conservation violated: generated {} != retired {retired}",
                p.generated
            )),
        );
    }
    if let Traffic::Stream { budget } = def.traffic {
        if p.generated != budget {
            return (
                gate,
                Err(format!(
                    "streaming source delivered {} packets, budget {budget}",
                    p.generated
                )),
            );
        }
    }
    if p.generated == 0 {
        return (gate, Err("the workload generated no packets".to_string()));
    }
    (gate, Ok(()))
}
