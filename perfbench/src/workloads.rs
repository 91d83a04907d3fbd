//! The benchmark's named workloads: each is a scenario plus the exact knobs
//! the run sets. Everything the emulator receives is generated here from the
//! seed, so a claim can be rechecked on a seed nobody tuned against.

use gnf_bench::dataplane_fixture::hundred_rule_config;
use gnf_core::{Mobility, Scenario};
use gnf_edge::{RandomWalkMobility, TrafficProfile};
use gnf_nf::testing::sample_specs;
use gnf_nf::{NfConfig, NfSpec};
use gnf_sim::Rng;
use gnf_switch::TrafficSelector;
use gnf_types::{GnfConfig, HostClass, SimDuration, SimTime};
use gnf_workload::{ArrivalModel, FlowSizeModel, Population, SyntheticSpec, SyntheticWorkload};

/// Where a workload's packets come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// The scenario's built-in per-client generators, pre-materialized by
    /// `Emulator::new`.
    BuiltIn,
    /// A streaming `SyntheticWorkload` with an exact packet budget, pulled
    /// lazily by the emulator.
    Stream {
        /// Packets the source must deliver.
        budget: u64,
    },
}

/// One named workload: the scenario shape and every knob the run sets.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub stations: usize,
    pub clients: usize,
    pub duration: SimDuration,
    pub traffic: Traffic,
    /// Data-plane worker threads (`Emulator::set_workers`).
    pub workers: usize,
    pub station_shards: usize,
    pub migration_workers: usize,
    pub delta_reports: bool,
    pub region_size: usize,
}

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["fleet-ids", "web-heavy-tail", "fleet-roam"];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<WorkloadDef> {
    let def = match name {
        // The E4 fleet: 8 stations x 4 CBR clients with ~1000-B payloads
        // through firewall -> rate limiter -> IDS, two data-plane workers.
        // The IDS signature scan dominates.
        "fleet-ids" => WorkloadDef {
            name: "fleet-ids",
            stations: 8,
            clients: 32,
            duration: SimDuration::from_secs(20),
            traffic: Traffic::BuiltIn,
            workers: 2,
            station_shards: 1,
            migration_workers: 1,
            delta_reports: false,
            region_size: 0,
        },
        // The E8 heavy-tail-zipf stream through the conntrack-off 100-rule
        // firewall: the chain is almost always megaflow-bypassed, so the
        // generator and the switch do the work.
        "web-heavy-tail" => WorkloadDef {
            name: "web-heavy-tail",
            stations: 4,
            clients: 16,
            duration: SimDuration::from_secs(60),
            traffic: Traffic::Stream { budget: 1_000_000 },
            workers: 1,
            station_shards: 1,
            migration_workers: 1,
            delta_reports: false,
            region_size: 0,
        },
        // 64 stations, 1024 browsing smartphones on a stateful firewall,
        // half of them random-walking: the Manager, migrations, delta
        // telemetry and the region tier do the work.
        "fleet-roam" => WorkloadDef {
            name: "fleet-roam",
            stations: 64,
            clients: 1024,
            duration: SimDuration::from_secs(120),
            traffic: Traffic::BuiltIn,
            workers: 1,
            station_shards: 1,
            migration_workers: 1,
            delta_reports: true,
            region_size: 16,
        },
        _ => return None,
    };
    Some(def)
}

/// Start of the streaming workload's traffic (after chains are deployed).
const STREAM_START: SimTime = SimTime::from_secs(3);
/// Flow arrivals of the stream are spread over this much virtual time.
const ARRIVAL_WINDOW_SECS: f64 = 20.0;
/// Mean flow size of the Zipf(500, 1.2) mix, used to derive the arrival rate.
const ZIPF_MEAN_FLOW_PACKETS: f64 = 36.0;

impl WorkloadDef {
    /// The configuration every component of the run reads.
    pub fn config(&self, seed: u64) -> GnfConfig {
        let mut config = GnfConfig {
            seed,
            station_shards: self.station_shards,
            migration_workers: self.migration_workers,
            delta_reports: self.delta_reports,
            region_size: self.region_size,
            ..GnfConfig::default()
        };
        match self.name {
            // Fewer control events: longer uninterrupted packet runs.
            "fleet-ids" | "web-heavy-tail" => {
                config.agent_report_interval = SimDuration::from_secs(10);
            }
            _ => config.migration_precopy = true,
        }
        config
    }

    /// The NF chain attached to every client.
    pub fn chain(&self) -> Vec<NfSpec> {
        let specs = sample_specs();
        match self.name {
            "fleet-ids" => vec![specs[0].clone(), specs[3].clone(), specs[6].clone()],
            "web-heavy-tail" => vec![NfSpec::new(
                "edge-fw",
                NfConfig::Firewall(hundred_rule_config(false)),
            )],
            _ => vec![specs[0].clone()],
        }
    }

    fn profile(&self) -> TrafficProfile {
        match self.name {
            "fleet-ids" => TrafficProfile::ConstantBitRate {
                packets_per_sec: 500.0,
                payload_bytes: 1000,
            },
            "web-heavy-tail" => TrafficProfile::Idle,
            _ => TrafficProfile::smartphone(),
        }
    }

    /// Builds the scenario for `seed`.
    pub fn scenario(&self, seed: u64) -> Scenario {
        let mut builder =
            Scenario::builder(self.stations, HostClass::EdgeServer).with_config(self.config(seed));
        let clients = builder.add_clients(self.clients, self.profile());
        let mut sb = builder.with_duration(self.duration);
        if self.name == "fleet-roam" {
            sb = sb.with_mobility(Mobility::RandomWalk(RandomWalkMobility {
                mean_residence: SimDuration::from_secs(20),
                mobile_fraction: 0.5,
            }));
        }
        let attach_at = SimTime::from_secs(if self.name == "fleet-roam" { 2 } else { 1 });
        let chain = self.chain();
        for client in &clients {
            sb = sb.attach_policy(*client, chain.clone(), TrafficSelector::all(), attach_at);
        }
        let mut scenario = sb.build();
        if self.name == "fleet-ids" {
            // CBR generators draw nothing from the seed, so each client's
            // rate and payload size are drawn here (uniform around 500 pkt/s
            // and 1000 B): the inputs, and the report, change with the seed.
            let rng = Rng::new(seed);
            for workload in &mut scenario.workloads {
                let mut rng = rng.derive(&format!("cbr-client-{}", workload.client.raw()));
                workload.profile = TrafficProfile::ConstantBitRate {
                    packets_per_sec: rng.range_f64(450.0, 550.0),
                    payload_bytes: rng.range_inclusive(900, 1100) as usize,
                };
            }
        }
        scenario
    }

    /// The streaming source for `seed`, when the workload has one.
    pub fn stream(&self, seed: u64, scenario: &Scenario) -> Option<SyntheticWorkload> {
        let Traffic::Stream { budget } = self.traffic else {
            return None;
        };
        let flows_per_sec = (budget as f64 / ZIPF_MEAN_FLOW_PACKETS / ARRIVAL_WINDOW_SECS).max(1.0);
        let spec = SyntheticSpec::new(self.name, seed)
            .starting_at(STREAM_START)
            .with_flow_sizes(FlowSizeModel::Zipf {
                max_packets: 500,
                exponent: 1.2,
            })
            .with_arrivals(ArrivalModel::Poisson { flows_per_sec })
            .with_packet_budget(budget);
        Some(spec.build(Population::from_topology(&scenario.topology)))
    }

    /// The provenance header: every knob the run sets.
    pub fn knobs(&self) -> String {
        let budget = match self.traffic {
            Traffic::BuiltIn => "built-in".to_string(),
            Traffic::Stream { budget } => budget.to_string(),
        };
        format!(
            "workers={} station_shards={} migration_workers={} delta_reports={} region_size={} \
             duration_s={} packet_budget={} stations={} clients={}",
            self.workers,
            self.station_shards,
            self.migration_workers,
            self.delta_reports,
            self.region_size,
            self.duration.as_secs_f64(),
            budget,
            self.stations,
            self.clients,
        )
    }
}
