//! A lightweight intrusion-detection NF.
//!
//! The paper's Manager "relays notifications ... such as an intrusion attempt
//! or detected malware" from NFs. This IDS provides that signal: it watches
//! the client's traffic for (a) SYN-flood behaviour (too many TCP SYNs from
//! one source within a window) and (b) payload signatures, and raises alert
//! events that the Agent forwards to the Manager. Detection is monitor-only by
//! default; it can optionally drop offending packets.
//!
//! Payload signatures are matched by a Set-Horspool scanner: Horspool's
//! bad-character skip generalised to a set of patterns (Navarro & Raffinot,
//! *Flexible Pattern Matching in Strings*, 2002). With `m` the length of the
//! shortest non-empty signature, the scan slides an `m`-byte window over the
//! payload and reads only the window's last byte. The signatures whose `m`-th
//! byte is that byte are compared at the window start; then a 256-entry
//! shift table moves the window to the byte's rightmost occurrence in any
//! signature's first `m - 1` bytes, or past the byte when it occurs in none.
//! On payloads that seldom hold signature bytes the window jumps up to `m`
//! bytes per step. In the worst case, a payload of one byte repeated that is
//! also the last two bytes of a signature's `m`-byte prefix, the window
//! advances one byte per step and each candidate signature is compared once
//! per position. That is never more comparisons than the naive per-signature
//! `windows().any(..)` scan the scanner replaced, though its serial table
//! lookups make such input about twice as slow in wall time
//! (`ids_scan/worst_case` in the data-plane benches).
//!
//! The scanner is built once per [`IdsConfig`], in [`Ids::new`]. It is derived
//! state: it is not part of [`NfStateSnapshot`] and is never migrated, because
//! the target station's NF is built from the same configuration.

use crate::nf::{Direction, NetworkFunction, NfContext, NfEvent, NfStats, Verdict};
use crate::spec::NfKind;
use crate::state::NfStateSnapshot;
use gnf_packet::{Packet, PacketBatch};
use gnf_types::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// IDS configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IdsConfig {
    /// Number of TCP SYNs from a single source within the window that
    /// triggers a SYN-flood alert.
    pub syn_flood_threshold: u64,
    /// Length of the SYN-counting window in seconds.
    pub window_secs: u64,
    /// Byte sequences treated as malicious payload signatures.
    pub signatures: Vec<Vec<u8>>,
    /// Whether packets matching a signature are dropped (true) or only
    /// reported (false).
    pub block_on_signature: bool,
}

impl Default for IdsConfig {
    fn default() -> Self {
        IdsConfig {
            syn_flood_threshold: 100,
            window_secs: 10,
            signatures: vec![b"MALWARE-TEST-SIGNATURE".to_vec()],
            block_on_signature: false,
        }
    }
}

/// One-pass Set-Horspool matcher over all of an [`IdsConfig`]'s signatures
/// (see the module docs). Empty signatures never match and are left out.
struct SignatureScanner {
    /// Window length: the length of the shortest non-empty signature, or 0
    /// when there is none (the scanner then matches nothing).
    window: usize,
    /// `shift[b]`: how far the window moves after a window ending in `b`:
    /// the distance from the rightmost `b` in any signature's first
    /// `window - 1` bytes to the window's end, or `window` when there is
    /// none. Never 0.
    shift: [usize; 256],
    /// `candidates[b]`: the distinct signatures whose byte at `window - 1`
    /// is `b`, i.e. those that can start at a window ending in `b`.
    candidates: Vec<Vec<Vec<u8>>>,
}

impl SignatureScanner {
    fn new(signatures: &[Vec<u8>]) -> Self {
        let window = signatures
            .iter()
            .map(Vec::len)
            .filter(|&len| len > 0)
            .min()
            .unwrap_or(0);
        let mut shift = [window; 256];
        let mut candidates = vec![Vec::new(); 256];
        for sig in signatures.iter().filter(|sig| !sig.is_empty()) {
            for (i, &byte) in sig[..window - 1].iter().enumerate() {
                let slot = &mut shift[usize::from(byte)];
                *slot = (*slot).min(window - 1 - i);
            }
            let bucket = &mut candidates[usize::from(sig[window - 1])];
            if !bucket.contains(sig) {
                bucket.push(sig.clone());
            }
        }
        SignatureScanner {
            window,
            shift,
            candidates,
        }
    }

    fn is_empty(&self) -> bool {
        self.window == 0
    }

    /// Whether any signature occurs anywhere in `payload`.
    fn matches(&self, payload: &[u8]) -> bool {
        if self.is_empty() || payload.len() < self.window {
            return false;
        }
        let last_start = payload.len() - self.window;
        let mut start = 0;
        while start <= last_start {
            let byte = usize::from(payload[start + self.window - 1]);
            let rest = &payload[start..];
            if self.candidates[byte]
                .iter()
                .any(|sig| rest.starts_with(sig))
            {
                return true;
            }
            start += self.shift[byte];
        }
        false
    }
}

/// The IDS NF.
pub struct Ids {
    name: String,
    config: IdsConfig,
    scanner: SignatureScanner,
    syn_counts: BTreeMap<Ipv4Addr, u64>,
    window_start: SimTime,
    alerted_sources: Vec<Ipv4Addr>,
    signature_matches: u64,
    stats: NfStats,
    events: Vec<NfEvent>,
}

impl Ids {
    /// Creates an IDS from its configuration.
    pub fn new(name: &str, config: IdsConfig) -> Self {
        Ids {
            name: name.to_string(),
            scanner: SignatureScanner::new(&config.signatures),
            config,
            syn_counts: BTreeMap::new(),
            window_start: SimTime::ZERO,
            alerted_sources: Vec::new(),
            signature_matches: 0,
            stats: NfStats::default(),
            events: Vec::new(),
        }
    }

    /// Number of payload-signature matches seen so far.
    pub fn signature_matches(&self) -> u64 {
        self.signature_matches
    }

    /// Sources that have triggered a SYN-flood alert in the current window.
    pub fn alerted_sources(&self) -> &[Ipv4Addr] {
        &self.alerted_sources
    }

    fn roll_window(&mut self, now: SimTime) {
        let window = SimDuration::from_secs(self.config.window_secs);
        if now.duration_since(self.window_start) >= window {
            self.syn_counts.clear();
            self.alerted_sources.clear();
            self.window_start = now;
        }
    }

    fn payload_of(packet: &Packet) -> Option<&[u8]> {
        packet.tcp_payload().or_else(|| packet.udp_payload())
    }

    /// Inspects one packet (window already rolled): SYN counting plus
    /// signature matching. Works entirely off the fast header scan
    /// (`tcp_flags`/`five_tuple`/raw payload), so the pass-through path
    /// never materializes the packet's typed layer view.
    fn inspect(&mut self, packet: Packet) -> Verdict {
        // SYN-flood detection.
        if let Some(flags) = packet.tcp_flags() {
            if flags.syn && !flags.ack {
                let src = packet
                    .five_tuple()
                    .expect("TCP flags imply a transport flow")
                    .src_ip;
                let count = self.syn_counts.entry(src).or_insert(0);
                *count += 1;
                if *count == self.config.syn_flood_threshold && !self.alerted_sources.contains(&src)
                {
                    self.alerted_sources.push(src);
                    self.events.push(NfEvent::alert(
                        "syn-flood",
                        format!(
                            "{} sent {} SYNs within {}s",
                            src, count, self.config.window_secs
                        ),
                    ));
                }
            }
        }

        // Signature matching.
        let signature_hit = !self.scanner.is_empty()
            && Self::payload_of(&packet).is_some_and(|p| self.scanner.matches(p));
        if signature_hit {
            self.signature_matches += 1;
            self.events.push(NfEvent::alert(
                "malware-signature",
                format!("payload signature matched in {}", packet.summary()),
            ));
            if self.config.block_on_signature {
                return Verdict::Drop("malicious payload signature".into());
            }
        }
        Verdict::Forward(packet)
    }
}

impl NetworkFunction for Ids {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> NfKind {
        NfKind::Ids
    }

    fn process(&mut self, packet: Packet, _direction: Direction, ctx: &NfContext) -> Verdict {
        self.stats.record_in(packet.len());
        self.roll_window(ctx.now);
        let verdict = self.inspect(packet);
        self.stats.record_verdict(&verdict);
        verdict
    }

    fn process_batch(
        &mut self,
        batch: PacketBatch,
        _direction: Direction,
        ctx: &NfContext,
    ) -> Vec<Verdict> {
        // One window roll and one stats add per batch; the per-packet scan
        // state (SYN counters, signature scanner) is shared across the batch.
        self.stats
            .record_in_batch(batch.len() as u64, batch.total_bytes());
        self.roll_window(ctx.now);
        let mut out = Vec::with_capacity(batch.len());
        for packet in batch {
            let verdict = self.inspect(packet);
            self.stats.record_verdict(&verdict);
            out.push(verdict);
        }
        out
    }

    fn stats(&self) -> NfStats {
        self.stats
    }

    fn fields_consulted(&self) -> crate::nf::FieldsConsulted {
        // Deliberately opaque, always: detection reads the payload (signature
        // scan) and TCP flags and updates the per-source SYN window — a
        // wildcard bypass would blind the detector to exactly the repetitive
        // traffic (floods) it exists to count.
        crate::nf::FieldsConsulted::Opaque
    }

    fn export_state(&self) -> NfStateSnapshot {
        NfStateSnapshot::Ids {
            syn_counts: self.syn_counts.clone(),
            window_start_nanos: self.window_start.as_nanos(),
        }
    }

    fn import_state(&mut self, state: NfStateSnapshot) {
        if let NfStateSnapshot::Ids {
            syn_counts,
            window_start_nanos,
        } = state
        {
            self.syn_counts = syn_counts;
            self.window_start = SimTime::from_nanos(window_start_nanos);
        }
    }

    // IDS import already replaces its window wholesale, so replace == import.
    fn replace_state(&mut self, state: NfStateSnapshot) {
        self.import_state(state);
    }

    fn drain_events(&mut self) -> Vec<NfEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nf::NfEventSeverity;
    use gnf_packet::builder;
    use gnf_types::MacAddr;

    fn syn_from(src: Ipv4Addr, port: u16) -> Packet {
        builder::tcp_syn(
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            src,
            Ipv4Addr::new(203, 0, 113, 9),
            port,
            80,
        )
    }

    #[test]
    fn syn_flood_raises_a_single_alert_per_window() {
        let config = IdsConfig {
            syn_flood_threshold: 10,
            window_secs: 10,
            ..Default::default()
        };
        let mut ids = Ids::new("ids", config);
        let attacker = Ipv4Addr::new(10, 0, 0, 66);
        let ctx = NfContext::at(SimTime::from_secs(1));
        for i in 0..25 {
            let v = ids.process(syn_from(attacker, 10_000 + i), Direction::Ingress, &ctx);
            assert!(v.is_forward(), "IDS is monitor-only by default");
        }
        let events = ids.drain_events();
        assert_eq!(events.len(), 1, "one alert per source per window");
        assert_eq!(events[0].severity, NfEventSeverity::Alert);
        assert_eq!(events[0].category, "syn-flood");
        assert_eq!(ids.alerted_sources(), &[attacker]);
    }

    #[test]
    fn window_roll_resets_counts() {
        let config = IdsConfig {
            syn_flood_threshold: 5,
            window_secs: 10,
            ..Default::default()
        };
        let mut ids = Ids::new("ids", config);
        let src = Ipv4Addr::new(10, 0, 0, 5);
        let early = NfContext::at(SimTime::from_secs(1));
        for i in 0..4 {
            ids.process(syn_from(src, 20_000 + i), Direction::Ingress, &early);
        }
        // A new window starts; the earlier 4 SYNs no longer count.
        let late = NfContext::at(SimTime::from_secs(30));
        for i in 0..4 {
            ids.process(syn_from(src, 21_000 + i), Direction::Ingress, &late);
        }
        assert!(ids.drain_events().is_empty());
    }

    #[test]
    fn below_threshold_traffic_raises_nothing() {
        let mut ids = Ids::new("ids", IdsConfig::default());
        let ctx = NfContext::at(SimTime::from_secs(1));
        for i in 0..20 {
            ids.process(
                syn_from(Ipv4Addr::new(10, 0, 0, 2), 30_000 + i),
                Direction::Ingress,
                &ctx,
            );
        }
        assert!(ids.drain_events().is_empty());
    }

    #[test]
    fn signature_matching_detects_and_optionally_blocks() {
        let mut monitor = Ids::new("ids", IdsConfig::default());
        let ctx = NfContext::at(SimTime::from_secs(1));
        let malicious = builder::tcp_data(
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(203, 0, 113, 9),
            40_000,
            80,
            b"xxxxMALWARE-TEST-SIGNATUREyyyy",
        );
        assert!(monitor
            .process(malicious.clone(), Direction::Ingress, &ctx)
            .is_forward());
        assert_eq!(monitor.signature_matches(), 1);
        let events = monitor.drain_events();
        assert_eq!(events[0].category, "malware-signature");

        let mut blocker = Ids::new(
            "ids",
            IdsConfig {
                block_on_signature: true,
                ..IdsConfig::default()
            },
        );
        assert!(blocker
            .process(malicious, Direction::Ingress, &ctx)
            .is_drop());
    }

    #[test]
    fn benign_payloads_pass() {
        let mut ids = Ids::new("ids", IdsConfig::default());
        let ctx = NfContext::at(SimTime::from_secs(1));
        let benign = builder::http_get(
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(203, 0, 113, 9),
            40_100,
            "www.example",
            "/",
        );
        assert!(ids.process(benign, Direction::Ingress, &ctx).is_forward());
        assert_eq!(ids.signature_matches(), 0);
    }

    /// The scan the scanner replaced, kept as its oracle.
    fn naive_matches(signatures: &[Vec<u8>], payload: &[u8]) -> bool {
        signatures
            .iter()
            .any(|sig| !sig.is_empty() && payload.windows(sig.len()).any(|w| w == sig.as_slice()))
    }

    fn assert_agrees(signatures: &[Vec<u8>], payload: &[u8]) {
        assert_eq!(
            SignatureScanner::new(signatures).matches(payload),
            naive_matches(signatures, payload),
            "signatures {signatures:?}, payload {payload:?}"
        );
    }

    /// SplitMix64: a dependency-free seeded stream for the oracle loop.
    fn next_u64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(state: &mut u64, bound: u64) -> usize {
        (next_u64(state) % bound) as usize
    }

    #[test]
    fn scanner_agrees_with_naive_scan_on_random_small_alphabets() {
        // A 1–4-symbol alphabet makes matches, near misses and overlapping
        // signatures frequent, which is where a skip table can go wrong.
        let mut rng = 0x1d5_5ca7;
        let mut hits = 0;
        for _ in 0..20_000 {
            let alphabet = 1 + below(&mut rng, 4) as u64;
            let symbol = |rng: &mut u64| b'a' + below(rng, alphabet) as u8;
            let signatures: Vec<Vec<u8>> = (0..below(&mut rng, 6))
                .map(|_| (0..below(&mut rng, 7)).map(|_| symbol(&mut rng)).collect())
                .collect();
            let payload: Vec<u8> = (0..below(&mut rng, 48)).map(|_| symbol(&mut rng)).collect();
            assert_agrees(&signatures, &payload);
            hits += usize::from(naive_matches(&signatures, &payload));
        }
        assert!(hits > 1_000, "the oracle loop must exercise matches");
    }

    #[test]
    fn scanner_edge_cases_agree_with_naive_scan() {
        let sig = |s: &str| s.as_bytes().to_vec();
        let cases: Vec<(Vec<Vec<u8>>, &str)> = vec![
            // No signatures, only empty ones, and empty payloads.
            (vec![], "anything"),
            (vec![sig("")], "anything"),
            (vec![sig(""), sig("")], ""),
            (vec![sig("abc")], ""),
            // Empty signatures are skipped, not treated as "matches all".
            (vec![sig(""), sig("xyz")], "abc"),
            (vec![sig(""), sig("xyz")], "axyzb"),
            // Duplicates.
            (vec![sig("abc"), sig("abc")], "zzabczz"),
            (vec![sig("abc"), sig("abc")], "zzabzz"),
            // Single-byte signatures, alone and beside longer ones.
            (vec![sig("q")], "q"),
            (vec![sig("q")], "abcq"),
            (vec![sig("q")], "abc"),
            (vec![sig("longer-one"), sig("z")], "aaaaaaaz"),
            (vec![sig("longer-one"), sig("z")], "aaaaaaaa"),
            // Prefix-overlapping signatures.
            (vec![sig("ab"), sig("abc"), sig("abcd")], "xxabcd"),
            (vec![sig("abcd"), sig("abc")], "xxab"),
            (vec![sig("abcd"), sig("abce")], "abcabcabce"),
            (vec![sig("aab"), sig("aaab")], "aaaaaaab"),
            // Signatures longer than the payload.
            (vec![sig("abcdef")], "abcde"),
            (vec![sig("abcdef"), sig("cde")], "abcde"),
            // Matches at offset 0 and ending on the last byte.
            (vec![sig("head")], "head-of-payload"),
            (vec![sig("tail")], "payload-tail"),
            (vec![sig("whole")], "whole"),
            (vec![sig("ab"), sig("tail")], "payload-tail"),
        ];
        for (signatures, payload) in &cases {
            assert_agrees(signatures, payload.as_bytes());
        }
        // Spot-check the oracle itself on the cases that must match.
        assert!(naive_matches(&[sig("tail")], b"payload-tail"));
        assert!(naive_matches(&[sig("head")], b"head-of-payload"));
        assert!(!naive_matches(&[sig("")], b"anything"));
    }

    #[test]
    fn batch_and_per_packet_signature_scans_agree() {
        let config = IdsConfig {
            signatures: vec![b"EVIL".to_vec(), b"MALWARE-TEST-SIGNATURE".to_vec()],
            block_on_signature: true,
            ..IdsConfig::default()
        };
        let payloads: [&[u8]; 6] = [
            b"EVIL at the start",
            b"clean payload",
            b"ends with EVIL",
            b"xxMALWARE-TEST-SIGNATUREyy",
            b"EVI",
            b"",
        ];
        let packets: Vec<Packet> = payloads
            .iter()
            .enumerate()
            .map(|(i, payload)| {
                let (src, dst, port) = (
                    Ipv4Addr::new(10, 0, 0, 2),
                    Ipv4Addr::new(203, 0, 113, 9),
                    41_000 + i as u16,
                );
                let (a, b) = (MacAddr::derived(1, 1), MacAddr::derived(2, 1));
                if i % 2 == 0 {
                    builder::tcp_data(a, b, src, dst, port, 80, payload)
                } else {
                    builder::udp_packet(a, b, src, dst, port, 53, payload)
                }
            })
            .collect();
        let ctx = NfContext::at(SimTime::from_secs(1));

        let mut per_packet = Ids::new("ids", config.clone());
        let one_by_one: Vec<Verdict> = packets
            .iter()
            .map(|p| per_packet.process(p.clone(), Direction::Ingress, &ctx))
            .collect();
        let mut batched = Ids::new("ids", config);
        let all_at_once =
            batched.process_batch(packets.into_iter().collect(), Direction::Ingress, &ctx);

        assert_eq!(all_at_once, one_by_one);
        let drops: Vec<bool> = one_by_one.iter().map(Verdict::is_drop).collect();
        assert_eq!(drops, [true, false, true, true, false, false]);
        assert_eq!(batched.signature_matches(), 3);
        assert_eq!(batched.signature_matches(), per_packet.signature_matches());
        assert_eq!(batched.drain_events(), per_packet.drain_events());
        assert_eq!(batched.stats(), per_packet.stats());
    }

    #[test]
    fn syn_window_state_migrates() {
        let config = IdsConfig {
            syn_flood_threshold: 10,
            window_secs: 60,
            ..Default::default()
        };
        let mut ids1 = Ids::new("ids", config.clone());
        let attacker = Ipv4Addr::new(10, 0, 0, 66);
        let ctx = NfContext::at(SimTime::from_secs(5));
        for i in 0..6 {
            ids1.process(syn_from(attacker, 11_000 + i), Direction::Ingress, &ctx);
        }
        let snapshot = ids1.export_state();

        // The remaining SYNs arrive after the migration; the alert still fires
        // because the count carried over.
        let mut ids2 = Ids::new("ids", config);
        ids2.import_state(snapshot);
        let ctx2 = NfContext::at(SimTime::from_secs(8));
        for i in 0..4 {
            ids2.process(syn_from(attacker, 12_000 + i), Direction::Ingress, &ctx2);
        }
        let events = ids2.drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].category, "syn-flood");
    }
}
