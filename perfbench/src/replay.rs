//! The per-layer numbers of a traced run.
//!
//! Spans cannot reach inside `Emulator::run`, so each layer's public entry
//! point is driven again here, outside the emulator, on the workload's own
//! generated inputs (same scenario, same seed): a per-operation cost. A
//! layer's busy time is that cost multiplied by the operation count the
//! traced end-to-end job itself recorded (`RunReport`, the Agents' chains
//! and the Manager's counters). Every replay warms on the first half of its
//! inputs and times the second half, as the long end-to-end run is warm.

use crate::e2e::{Job, LayerCounts};
use crate::spans::Spans;
use crate::workloads::{Traffic, WorkloadDef};
use crate::{median, Metrics};
use gnf_agent::{Agent, AgentConfig};
use gnf_api::{codec, AgentToManager, ManagerToAgent};
use gnf_container::ImageRepository;
use gnf_core::{Mobility, Scenario};
use gnf_edge::{MobilityModel, RoamEvent, TrafficGenerator};
use gnf_manager::{Manager, ManagerAction};
use gnf_nf::{instantiate_chain, Direction, NetworkFunction, NfChain, NfContext, NfKind};
use gnf_packet::{Packet, PacketBatch};
use gnf_sim::Rng;
use gnf_switch::{MegaflowState, SoftwareSwitch, TrafficSelector};
use gnf_telemetry::{DeltaEncoder, RegionAggregator, ReportReassembler};
use gnf_types::{AgentId, ChainId, ClientId, SimDuration, SimTime, StationId};
use gnf_workload::{TimedBatch, Workload};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Packets the data-plane replays run on (half warm-up, half timed).
const SAMPLE_PACKETS: usize = 40_000;
/// Manager ticks timed across the control replay's horizon.
const TICK_SAMPLES: u64 = 2_000;

/// Accumulated wall time and operation count of one replayed entry point.
#[derive(Debug, Clone, Copy, Default)]
struct Cost {
    ns: f64,
    ops: u64,
}

impl Cost {
    fn add(&mut self, start: Instant, ops: u64) {
        self.ns += start.elapsed().as_nanos() as f64;
        self.ops += ops;
    }

    fn per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ns / self.ops as f64
        }
    }
}

/// The seeded roam schedule `Emulator::new` derives for the scenario.
fn roam_schedule(scenario: &Scenario) -> Vec<RoamEvent> {
    let until = SimTime::ZERO + scenario.duration;
    let mut rng = Rng::new(scenario.config.seed);
    match &scenario.mobility {
        Mobility::Static => Vec::new(),
        Mobility::Trace(trace) => trace.schedule(&scenario.topology, until, &mut rng),
        Mobility::RandomWalk(model) => model.schedule(&scenario.topology, until, &mut rng),
    }
}

/// Replays the built-in traffic generation exactly as `Emulator::new` runs
/// it (same per-client seed streams, same per-cell segments), timing every
/// `TrafficGenerator::generate` call. Keeps the first packets of every
/// client as the data-plane sample, coalesced per (time, station) as the
/// emulator coalesces them.
fn generate_builtin(scenario: &Scenario, roams: &[RoamEvent]) -> (Cost, Vec<TimedBatch>) {
    let config = &scenario.config;
    let until = SimTime::ZERO + scenario.duration;
    let per_client = SAMPLE_PACKETS.div_ceil(scenario.workloads.len().max(1));
    let traffic_rng = Rng::new(config.seed ^ 0x7261_6666_6963);
    let mut cost = Cost::default();
    let mut kept: Vec<(SimTime, StationId, ClientId, Packet)> = Vec::new();
    for workload in &scenario.workloads {
        let Ok(device) = scenario.topology.client(workload.client) else {
            continue;
        };
        let Some(initial_cell) = device.attached_cell else {
            continue;
        };
        let mut generator = TrafficGenerator::new(
            workload.profile,
            traffic_rng.derive(&format!("client-{}", workload.client.raw())),
        );
        let mut timeline = vec![(SimTime::ZERO + config.association_latency, initial_cell)];
        timeline.extend(
            roams
                .iter()
                .filter(|e| e.client == workload.client)
                .map(|e| (e.at, e.to_cell)),
        );
        timeline.sort_by_key(|(t, _)| *t);
        let mut kept_here = 0;
        for (ix, (start, cell)) in timeline.iter().enumerate() {
            let end = timeline.get(ix + 1).map_or(until, |(t, _)| *t).min(until);
            if *start >= end {
                continue;
            }
            let Ok(site) = scenario.topology.site_for_cell(*cell) else {
                continue;
            };
            let t = Instant::now();
            let packets = generator.generate(device, site, *start, end);
            cost.add(t, packets.len() as u64);
            for generated in packets {
                if kept_here < per_client {
                    kept_here += 1;
                    kept.push((
                        generated.at,
                        site.station,
                        workload.client,
                        generated.packet,
                    ));
                }
            }
        }
    }
    kept.sort_by_key(|(at, station, _, _)| (*at, *station));
    let mut batches: Vec<TimedBatch> = Vec::new();
    for (at, station, client, packet) in kept {
        match batches.last_mut() {
            Some(b) if b.at == at && b.station == station => b.packets.push((client, packet)),
            _ => batches.push(TimedBatch {
                at,
                station,
                packets: vec![(client, packet)],
            }),
        }
    }
    (cost, batches)
}

/// The first `SAMPLE_PACKETS` packets of the streaming source.
fn stream_sample(def: &WorkloadDef, seed: u64, scenario: &Scenario) -> Vec<TimedBatch> {
    let mut source = def.stream(seed, scenario).expect("stream workload");
    let mut batches = Vec::new();
    let mut packets = 0;
    while packets < SAMPLE_PACKETS {
        let Some(batch) = source.next_batch() else {
            break;
        };
        packets += batch.len();
        batches.push(batch);
    }
    batches
}

/// The Agents of the scenario's topology, configured as `Emulator::new`
/// configures them (delta reporting left off: the telemetry replay encodes
/// the full reports itself).
fn build_agents(
    scenario: &Scenario,
) -> (BTreeMap<StationId, Agent>, Vec<(StationId, AgentToManager)>) {
    let repository = ImageRepository::with_standard_images();
    let mut agents = BTreeMap::new();
    let mut registers = Vec::new();
    for site in scenario.topology.sites() {
        let (mut agent, register) = Agent::new(
            AgentConfig {
                agent: AgentId::new(site.station.raw()),
                station: site.station,
                host_class: site.host_class,
            },
            repository.clone(),
        );
        agent.set_megaflow_enabled(true);
        agent.set_station_shards(scenario.config.station_shards);
        agents.insert(site.station, agent);
        registers.push((site.station, register));
    }
    (agents, registers)
}

/// Per-layer costs of the data-plane replay.
#[derive(Default)]
struct DataPlane {
    parse: Cost,
    agent: Cost,
    classify: Cost,
    steered: u64,
    bypassed: u64,
    stages: Vec<(NfKind, Cost)>,
    chain: Cost,
}

/// Splits a batch into per-client runs, in arrival order of each client's
/// first packet (every client owns its chain).
fn per_client(batch: &TimedBatch) -> Vec<(ClientId, Vec<Packet>)> {
    let mut out: Vec<(ClientId, Vec<Packet>)> = Vec::new();
    for (client, packet) in &batch.packets {
        match out.iter_mut().find(|(c, _)| c == client) {
            Some((_, v)) => v.push(packet.clone()),
            None => out.push((*client, vec![packet.clone()])),
        }
    }
    out
}

fn replay_data_plane(def: &WorkloadDef, scenario: &Scenario, sample: &[TimedBatch]) -> DataPlane {
    let mut dp = DataPlane::default();
    let warm = sample.len() / 2;

    // Packet::parse on the raw frames.
    for (ix, batch) in sample.iter().enumerate() {
        let t = Instant::now();
        for (_, packet) in &batch.packets {
            black_box(Packet::parse(packet.bytes().clone()).expect("generated frames parse"));
        }
        if ix >= warm {
            dp.parse.add(t, batch.len() as u64);
        }
    }

    // Agents with one chain per (client, station) the sample visits.
    let (mut agents, _) = build_agents(scenario);
    let specs = def.chain();
    let pairs: BTreeSet<(StationId, ClientId)> = sample
        .iter()
        .flat_map(|b| b.packets.iter().map(move |(c, _)| (b.station, *c)))
        .collect();
    for (k, (station, client)) in pairs.iter().enumerate() {
        let device = scenario
            .topology
            .client(*client)
            .expect("sampled clients exist");
        let agent = agents.get_mut(station).expect("sampled stations exist");
        agent.client_associated(*client, device.mac, device.ip);
        agent.handle_manager_msg(
            ManagerToAgent::DeployChain {
                chain: ChainId::new(k as u64),
                client: *client,
                client_mac: device.mac,
                specs: specs.clone(),
                selector: TrafficSelector::all(),
                restore_state: None,
                migration: None,
            },
            SimTime::ZERO,
        );
    }

    // Agent::process_upstream_batch; the switches are copied at the half
    // for the classify replay.
    let mut switches: BTreeMap<StationId, SoftwareSwitch> = BTreeMap::new();
    for (ix, batch) in sample.iter().enumerate() {
        if ix == warm {
            switches = agents
                .iter()
                .map(|(s, a)| (*s, a.switch().clone()))
                .collect();
        }
        let agent = agents
            .get_mut(&batch.station)
            .expect("sampled stations exist");
        let packets: Vec<Packet> = batch.packets.iter().map(|(_, p)| p.clone()).collect();
        let t = Instant::now();
        black_box(agent.process_upstream_batch(PacketBatch::from(packets), batch.at));
        black_box(agent.drain_nf_notifications(batch.at));
        if ix >= warm {
            dp.agent.add(t, batch.len() as u64);
        }
    }

    // SoftwareSwitch::classify on the copied (warm) switches.
    for batch in &sample[warm..] {
        let sw = switches
            .get_mut(&batch.station)
            .expect("sampled stations exist");
        let port = sw.client_port();
        let t = Instant::now();
        for (_, packet) in &batch.packets {
            let classified = sw
                .classify(packet, port, batch.at)
                .expect("client port exists");
            if classified.decision.steering.is_some() {
                dp.steered += 1;
                if matches!(
                    classified.megaflow,
                    MegaflowState::Bypass(_) | MegaflowState::DropBypass { .. }
                ) {
                    dp.bypassed += 1;
                }
            }
            black_box(classified);
        }
        dp.classify.add(t, batch.len() as u64);
    }

    // Each NF's process_batch, stage by stage (survivors feed the next
    // stage), and NfChain::process_batch, on fresh per-client instances.
    let mut stage_nfs: HashMap<ClientId, Vec<Box<dyn NetworkFunction>>> = HashMap::new();
    let mut chains: HashMap<ClientId, NfChain> = HashMap::new();
    dp.stages = specs.iter().map(|s| (s.kind(), Cost::default())).collect();
    for (ix, batch) in sample.iter().enumerate() {
        let timed = ix >= warm;
        for (client, packets) in per_client(batch) {
            let ctx = NfContext::for_client(batch.at, client);
            let nfs = stage_nfs
                .entry(client)
                .or_insert_with(|| specs.iter().map(|s| s.instantiate()).collect());
            let mut alive = packets.clone();
            for (stage, nf) in nfs.iter_mut().enumerate() {
                if alive.is_empty() {
                    break;
                }
                let n = alive.len() as u64;
                let t = Instant::now();
                let verdicts = nf.process_batch(PacketBatch::from(alive), Direction::Ingress, &ctx);
                if timed {
                    dp.stages[stage].1.add(t, n);
                }
                alive = verdicts
                    .into_iter()
                    .filter_map(|v| v.into_forwarded())
                    .collect();
            }
            let chain = chains
                .entry(client)
                .or_insert_with(|| instantiate_chain("replay", &specs));
            let n = packets.len() as u64;
            let t = Instant::now();
            black_box(chain.process_batch(PacketBatch::from(packets), Direction::Ingress, &ctx));
            if timed {
                dp.chain.add(t, n);
            }
        }
    }
    dp
}

/// Per-layer costs of the control-plane replay.
#[derive(Default)]
struct ControlPlane {
    manager: Cost,
    region_summary: Cost,
    ticks_us: Vec<f64>,
    agent_control: Cost,
    agent_report: Cost,
    encode: Cost,
    apply: Cost,
    region_ingest: Cost,
    report_bytes: Cost,
}

enum Msg {
    Up(StationId, AgentToManager),
    Down(StationId, ManagerToAgent),
}

/// A Manager and the scenario's Agents joined by a synchronous message
/// pump: every message is delivered at once, in FIFO order.
struct Fleet {
    manager: Manager,
    agents: BTreeMap<StationId, Agent>,
    queue: VecDeque<Msg>,
    cost: ControlPlane,
}

impl Fleet {
    fn send_actions(&mut self, actions: Vec<ManagerAction>) {
        for ManagerAction::Send { station, message } in actions {
            self.queue.push_back(Msg::Down(station, message));
        }
    }

    fn pump(&mut self, now: SimTime) {
        while let Some(msg) = self.queue.pop_front() {
            match msg {
                Msg::Up(station, msg) => {
                    let t = Instant::now();
                    let actions = self.manager.handle_agent_msg(station, msg, now);
                    self.cost.manager.add(t, 1);
                    self.send_actions(actions);
                }
                Msg::Down(station, msg) => {
                    let Some(agent) = self.agents.get_mut(&station) else {
                        continue;
                    };
                    let t = Instant::now();
                    let replies = agent.handle_manager_msg(msg, now);
                    self.cost.agent_control.add(t, 1);
                    self.queue
                        .extend(replies.into_iter().map(|r| Msg::Up(station, r)));
                }
            }
        }
    }
}

/// A control-replay event, ordered by time then kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Roam(usize),
    Report(StationId),
    RegionFlush(u64),
    Tick,
}

/// Drives the Manager and Agents through the run's control events: station
/// registration, client association, policy attach, the seeded roam
/// schedule, report timers (through the delta encoder and the region tier
/// when the workload enables them) and Manager ticks.
fn replay_control_plane(scenario: &Scenario, roams: &[RoamEvent]) -> ControlPlane {
    let config = &scenario.config;
    let (agents, registers) = build_agents(scenario);
    let mut fleet = Fleet {
        manager: Manager::new(config.clone()),
        agents,
        queue: VecDeque::new(),
        cost: ControlPlane::default(),
    };
    let until = SimTime::ZERO + scenario.duration;
    fleet
        .queue
        .extend(registers.into_iter().map(|(s, m)| Msg::Up(s, m)));
    fleet.pump(SimTime::ZERO);

    let mut cell_of: HashMap<ClientId, gnf_types::CellId> = HashMap::new();
    let associated = SimTime::ZERO + config.association_latency;
    for device in scenario.topology.clients() {
        let Some(cell) = device.attached_cell else {
            continue;
        };
        cell_of.insert(device.client, cell);
        let station = scenario
            .topology
            .site_for_cell(cell)
            .expect("cell exists")
            .station;
        let msgs = fleet
            .agents
            .get_mut(&station)
            .expect("station exists")
            .client_associated(device.client, device.mac, device.ip);
        fleet
            .queue
            .extend(msgs.into_iter().map(|m| Msg::Up(station, m)));
    }
    fleet.pump(associated);
    for policy in &scenario.policies {
        // Every client associated above; an attach the Manager refuses is
        // simply not replayed.
        if let Ok((_, actions)) = fleet.manager.attach_chain(
            policy.client,
            policy.specs.clone(),
            policy.selector,
            policy.at,
        ) {
            fleet.send_actions(actions);
            fleet.pump(policy.at);
        }
    }

    // The timed event schedule.
    let interval = config.agent_report_interval;
    let mut events: Vec<(SimTime, Event)> = Vec::new();
    for (ix, roam) in roams.iter().enumerate() {
        events.push((roam.at, Event::Roam(ix)));
    }
    let mut regions: BTreeMap<u64, RegionAggregator> = BTreeMap::new();
    for site in scenario.topology.sites() {
        let mut at = SimTime::ZERO + interval + SimDuration::from_millis(site.station.raw() % 97);
        while at <= until {
            events.push((at, Event::Report(site.station)));
            at += interval;
        }
        if config.region_size > 0 {
            let region = site.station.raw() / config.region_size as u64;
            regions
                .entry(region)
                .or_insert_with(|| {
                    RegionAggregator::new(
                        region,
                        config.hotspot_threshold,
                        interval,
                        config.missed_reports_for_offline,
                    )
                })
                .register_station(site.station);
        }
    }
    for &region in regions.keys() {
        let mut at = SimTime::ZERO + interval + SimDuration::from_millis(200 + region % 89);
        while at <= until {
            events.push((at, Event::RegionFlush(region)));
            at += interval;
        }
    }
    let horizon_ns = scenario.duration.as_secs_f64() * 1e9;
    for k in 1..=TICK_SAMPLES {
        let at = SimTime::ZERO
            + SimDuration::from_secs_f64(horizon_ns * k as f64 / TICK_SAMPLES as f64 / 1e9);
        events.push((at, Event::Tick));
    }
    events.sort();

    let mut encoders: BTreeMap<StationId, DeltaEncoder> = BTreeMap::new();
    let mut reassembler = ReportReassembler::new();
    for (now, event) in events {
        match event {
            Event::Roam(ix) => {
                let roam = roams[ix];
                let old = cell_of.insert(roam.client, roam.to_cell);
                if old == Some(roam.to_cell) {
                    continue;
                }
                let device = scenario
                    .topology
                    .client(roam.client)
                    .expect("client exists");
                if let Some(old) = old {
                    let station = scenario.topology.site_for_cell(old).expect("cell").station;
                    let msgs = fleet
                        .agents
                        .get_mut(&station)
                        .expect("station")
                        .client_disassociated(roam.client);
                    fleet
                        .queue
                        .extend(msgs.into_iter().map(|m| Msg::Up(station, m)));
                }
                let station = scenario
                    .topology
                    .site_for_cell(roam.to_cell)
                    .expect("cell")
                    .station;
                let msgs = fleet
                    .agents
                    .get_mut(&station)
                    .expect("station")
                    .client_associated(roam.client, device.mac, device.ip);
                fleet
                    .queue
                    .extend(msgs.into_iter().map(|m| Msg::Up(station, m)));
                fleet.pump(now);
            }
            Event::Report(station) => {
                let agent = fleet.agents.get_mut(&station).expect("station exists");
                let t = Instant::now();
                let msg = agent.make_report(now);
                fleet.cost.agent_report.add(t, 1);
                let AgentToManager::Report(report) = msg else {
                    unreachable!("replay Agents send full reports");
                };
                let msg = if config.delta_reports {
                    let encoder = encoders
                        .entry(station)
                        .or_insert_with(|| DeltaEncoder::new(config.report_keyframe_interval));
                    let t = Instant::now();
                    let delta = encoder.encode(&report);
                    fleet.cost.encode.add(t, 1);
                    let t = Instant::now();
                    black_box(reassembler.apply(&delta).ok());
                    fleet.cost.apply.add(t, 1);
                    AgentToManager::ReportDelta(Box::new(delta))
                } else {
                    AgentToManager::Report(report)
                };
                let bytes = codec::encode_to_vec(&msg).expect("reports encode").len();
                fleet.cost.report_bytes.ns += bytes as f64;
                fleet.cost.report_bytes.ops += 1;
                let region = (config.region_size > 0)
                    .then(|| station.raw() / config.region_size as u64)
                    .and_then(|r| regions.get_mut(&r));
                match (region, msg) {
                    (Some(aggregator), AgentToManager::ReportDelta(delta)) => {
                        let t = Instant::now();
                        black_box(aggregator.ingest_delta(&delta, now).ok());
                        fleet.cost.region_ingest.add(t, 1);
                    }
                    (Some(aggregator), AgentToManager::Report(report)) => {
                        let t = Instant::now();
                        aggregator.ingest_report(*report, now);
                        fleet.cost.region_ingest.add(t, 1);
                    }
                    (_, msg) => {
                        fleet.queue.push_back(Msg::Up(station, msg));
                        fleet.pump(now);
                    }
                }
            }
            Event::RegionFlush(region) => {
                let aggregator = &regions[&region];
                let t = Instant::now();
                let summary = aggregator.summary(now);
                fleet.manager.ingest_region_summary(summary, now);
                fleet.cost.region_summary.add(t, 1);
            }
            Event::Tick => {
                let t = Instant::now();
                let actions = fleet.manager.tick(now);
                fleet
                    .cost
                    .ticks_us
                    .push(t.elapsed().as_nanos() as f64 / 1e3);
                fleet.send_actions(actions);
                fleet.pump(now);
            }
        }
    }
    fleet.cost
}

/// The `q` quantile (nearest rank) of `values`.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs the layer replays and composes the per-layer metrics of a traced
/// run. `job` is the last traced end-to-end job; `traced_wall` and
/// `untraced_wall` are the median walls of the traced and untraced jobs.
pub fn layer_metrics(
    def: &WorkloadDef,
    seed: u64,
    job: &Job,
    traced_wall: f64,
    untraced_wall: f64,
    spans: &mut Spans,
) -> Metrics {
    let counts: &LayerCounts = job.counts.as_ref().expect("traced jobs collect counts");
    let report = &job.report;
    spans.enter("replay");
    let scenario = def.scenario(seed);
    let roams = roam_schedule(&scenario);

    spans.enter("replay.edge");
    let (edge, sample) = match def.traffic {
        Traffic::BuiltIn => generate_builtin(&scenario, &roams),
        Traffic::Stream { .. } => (Cost::default(), stream_sample(def, seed, &scenario)),
    };
    spans.exit();
    spans.enter("replay.data_plane");
    let dp = replay_data_plane(def, &scenario, &sample);
    drop(sample);
    spans.exit();
    spans.enter("replay.control_plane");
    let cp = replay_control_plane(&scenario, &roams);
    spans.exit();
    spans.exit();

    let mut m = Metrics::default();

    // nf: per-kind cost when the NF actually runs; busy time charges it only
    // for the packets the megaflow cache did not bypass.
    let bypass_share = ratio(dp.bypassed, dp.steered);
    let mut nf_busy = Vec::new();
    for (kind, label) in [
        (NfKind::Ids, "ids"),
        (NfKind::Firewall, "firewall"),
        (NfKind::RateLimiter, "rate_limiter"),
    ] {
        let ns = dp
            .stages
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0.0, |(_, c)| c.per_op());
        let packets_in = counts
            .nf_packets_in
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |(_, n)| *n);
        let busy = ns * 1e-9 * packets_in as f64 * (1.0 - bypass_share);
        nf_busy.push((label, ns, packets_in, busy));
    }
    for (label, ns, _, _) in &nf_busy {
        m.put(format!("nf.{label}.ns_per_pkt"), *ns, "ns");
    }
    m.put("nf.chain.ns_per_pkt", dp.chain.per_op(), "ns");
    for (label, _, packets_in, _) in &nf_busy {
        m.put(
            format!("nf.{label}.packets_in"),
            *packets_in as f64,
            "count",
        );
    }
    for (label, _, _, busy) in &nf_busy {
        m.put(format!("nf.{label}.busy_s"), *busy, "s");
    }
    m.put("nf.chain_bypass_share", bypass_share, "fraction");

    // workload: the timing decorator around next_batch.
    let stream = job.stream.unwrap_or_default();
    let workload_busy = stream.busy_s;
    m.put(
        "workload.ns_per_pkt",
        if stream.stats.packets_emitted == 0 {
            0.0
        } else {
            stream.busy_s * 1e9 / stream.stats.packets_emitted as f64
        },
        "ns",
    );
    m.put("workload.busy_s", workload_busy, "s");
    m.put("workload.batches", stream.batches as f64, "count");
    m.put(
        "workload.peak_active_flows",
        stream.stats.peak_active_flows as f64,
        "count",
    );

    // edge + packet.
    let edge_s = edge.ns * 1e-9;
    m.put("edge.generate_ns_per_pkt", edge.per_op(), "ns");
    m.put("edge.generate_s", edge_s, "s");
    m.put("packet.parse_ns_per_pkt", dp.parse.per_op(), "ns");

    // switch: cost from the replay, cache behaviour from the run itself.
    let fc = &report.flow_cache.stats;
    let mf = &report.megaflow.stats;
    let lookups = fc.hits + fc.misses;
    m.put("switch.classify_ns_per_pkt", dp.classify.per_op(), "ns");
    m.put(
        "switch.exact_hit_ratio",
        ratio(fc.hits, lookups),
        "fraction",
    );
    m.put(
        "switch.megaflow_hit_ratio",
        ratio(mf.hits, mf.hits + mf.misses),
        "fraction",
    );
    m.put(
        "switch.slow_path_share",
        ratio(mf.misses, lookups),
        "fraction",
    );
    m.put("switch.megaflow_installs", mf.installs as f64, "count");
    m.put(
        "switch.flow_evictions",
        (fc.evictions + fc.invalidations) as f64,
        "count",
    );

    // agent.
    let agent_up_s = dp.agent.per_op() * 1e-9 * report.batches.packets as f64;
    let agent_ctl_s = (cp.agent_control.per_op() * counts.agent_commands as f64
        + cp.agent_report.per_op() * counts.reports as f64)
        * 1e-9;
    m.put("agent.upstream_ns_per_pkt", dp.agent.per_op(), "ns");
    m.put("agent.upstream_busy_s", agent_up_s, "s");
    m.put("agent.control_ns_per_msg", cp.agent_control.per_op(), "ns");
    m.put("agent.report_ns", cp.agent_report.per_op(), "ns");

    // manager + migration.
    let tick_mean_ns = cp.ticks_us.iter().sum::<f64>() * 1e3 / cp.ticks_us.len().max(1) as f64;
    let manager_s = (cp.manager.per_op() * report.manager.messages_received as f64
        + tick_mean_ns * counts.ticks as f64
        + cp.region_summary.per_op() * counts.region_summaries as f64)
        * 1e-9;

    // telemetry: encoding happens on the station, region ingest in the
    // aggregator; a Manager-side apply is inside the Manager's handle cost.
    let config = &scenario.config;
    let telemetry_s = (if config.delta_reports {
        cp.encode.per_op()
    } else {
        0.0
    } + if config.region_size > 0 {
        cp.region_ingest.per_op()
    } else {
        0.0
    }) * counts.reports as f64
        * 1e-9;

    let core_self =
        traced_wall - edge_s - workload_busy - agent_up_s - agent_ctl_s - manager_s - telemetry_s;
    m.put("core.self_s", core_self, "s");
    m.put("core.events", report.events_processed as f64, "count");
    m.put("core.batches", report.batches.batches as f64, "count");
    m.put(
        "core.mean_batch_pkts",
        report.batches.mean_batch_size(),
        "pkt",
    );

    m.put("manager.handle_ns_per_msg", cp.manager.per_op(), "ns");
    m.put("manager.tick_p50_us", median(&cp.ticks_us), "us");
    m.put("manager.tick_p99_us", quantile(&cp.ticks_us, 0.99), "us");
    m.put("manager.tick_samples", cp.ticks_us.len() as f64, "count");
    m.put(
        "manager.messages_in",
        report.manager.messages_received as f64,
        "count",
    );
    m.put(
        "manager.messages_out",
        report.manager.messages_sent as f64,
        "count",
    );
    m.put(
        "manager.migration_retries",
        report.manager.migration_retries as f64,
        "count",
    );
    m.put(
        "migration.completed",
        report.migration.completed as f64,
        "count",
    );
    m.put(
        "migration.deltas_replayed",
        report.migration.deltas_replayed as f64,
        "count",
    );
    m.put(
        "migration.delta_bytes",
        report.migration.delta_bytes_total as f64,
        "B",
    );

    let on = |enabled: bool, v: f64| if enabled { v } else { 0.0 };
    m.put(
        "telemetry.delta_encode_ns",
        on(config.delta_reports, cp.encode.per_op()),
        "ns",
    );
    m.put(
        "telemetry.delta_apply_ns",
        on(config.delta_reports, cp.apply.per_op()),
        "ns",
    );
    m.put("telemetry.bytes_per_report", cp.report_bytes.per_op(), "B");
    m.put(
        "telemetry.region_ingest_ns",
        on(config.region_size > 0, cp.region_ingest.per_op()),
        "ns",
    );

    m.put(
        "trace.overhead_share",
        (traced_wall - untraced_wall) / untraced_wall,
        "fraction",
    );
    m.put("trace.traced_wall_s", traced_wall, "s");
    m.put("trace.untraced_wall_s", untraced_wall, "s");

    println!(
        "busy (s): edge.generate {edge_s:.4} | workload {workload_busy:.4} | agent.upstream {agent_up_s:.4} \
         (of which nf {:.4}) | agent.control+report {agent_ctl_s:.4} | manager {manager_s:.4} | \
         telemetry {telemetry_s:.4} | core.self {core_self:.4} | traced wall {traced_wall:.4}",
        nf_busy.iter().map(|(_, _, _, b)| b).sum::<f64>()
    );
    println!(
        "replay ops: sample {} packets (timed half {}), {} control msgs to the Manager, {} to Agents, \
         {} reports, {} ticks",
        dp.parse.ops * 2,
        dp.agent.ops,
        cp.manager.ops,
        cp.agent_control.ops,
        cp.agent_report.ops,
        cp.ticks_us.len()
    );
    m
}
