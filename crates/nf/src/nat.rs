//! A source-NAT (masquerading) NF.
//!
//! On the client's upstream traffic the NAT rewrites the source address to a
//! configured public address and allocates an ephemeral source port per flow;
//! on downstream traffic it reverses the translation. The translation table is
//! part of the migratable state so established flows survive a roam.

use crate::nf::{Direction, NetworkFunction, NfContext, NfStats, Verdict};
use crate::spec::NfKind;
use crate::state::NfStateSnapshot;
use gnf_packet::builder::{self, Transport};
use gnf_packet::{FiveTuple, IpProtocol, Ipv4Header, Packet, TcpHeader};

use std::collections::HashMap;
use std::net::Ipv4Addr;

/// The first ephemeral port the NAT allocates.
pub const NAT_PORT_BASE: u16 = 40_000;

/// The source-NAT NF.
pub struct Nat {
    name: String,
    public_ip: Ipv4Addr,
    /// Original (client-side) tuple → allocated public port.
    forward: HashMap<FiveTuple, u16>,
    /// Allocated public port → original tuple.
    reverse: HashMap<u16, FiveTuple>,
    next_port: u16,
    translated_packets: u64,
    stats: NfStats,
}

impl Nat {
    /// Creates a NAT masquerading behind `public_ip`.
    pub fn new(name: &str, public_ip: Ipv4Addr) -> Self {
        Nat {
            name: name.to_string(),
            public_ip,
            forward: HashMap::new(),
            reverse: HashMap::new(),
            next_port: NAT_PORT_BASE,
            translated_packets: 0,
            stats: NfStats::default(),
        }
    }

    /// The public address used for translated flows.
    pub fn public_ip(&self) -> Ipv4Addr {
        self.public_ip
    }

    /// Number of active translations.
    pub fn active_translations(&self) -> usize {
        self.forward.len()
    }

    /// Total packets whose headers were rewritten.
    pub fn translated_packets(&self) -> u64 {
        self.translated_packets
    }

    fn allocate_port(&mut self, original: FiveTuple) -> u16 {
        if let Some(port) = self.forward.get(&original) {
            return *port;
        }
        // Skip ports that are still in use (wrap around the ephemeral range).
        let mut candidate = self.next_port;
        loop {
            if !self.reverse.contains_key(&candidate) {
                break;
            }
            candidate = if candidate == u16::MAX {
                NAT_PORT_BASE
            } else {
                candidate + 1
            };
        }
        self.next_port = if candidate == u16::MAX {
            NAT_PORT_BASE
        } else {
            candidate + 1
        };
        self.forward.insert(original, candidate);
        self.reverse.insert(candidate, original);
        candidate
    }

    /// Rebuilds a packet with rewritten IPv4 addresses and transport ports
    /// through the builder's single-buffer frame writer, preserving the
    /// Ethernet addresses, every IPv4 field but the options, every TCP
    /// field and the payload. UDP lengths and both checksums are recomputed.
    fn rewrite(
        packet: &Packet,
        new_src: Ipv4Addr,
        new_dst: Ipv4Addr,
        new_src_port: u16,
        new_dst_port: u16,
    ) -> Option<Packet> {
        let ip = packet.ipv4()?;
        let ip_out = Ipv4Header {
            src: new_src,
            dst: new_dst,
            options: Vec::new(),
            ..*ip
        };
        let tcp_out;
        let (transport, payload) = match ip.protocol {
            IpProtocol::Tcp => {
                tcp_out = TcpHeader {
                    src_port: new_src_port,
                    dst_port: new_dst_port,
                    ..packet.tcp()?.clone()
                };
                (
                    Transport::Tcp(&tcp_out),
                    packet.tcp_payload().unwrap_or(&[]),
                )
            }
            IpProtocol::Udp => {
                // The UDP length is recomputed from the payload.
                packet.udp()?;
                (
                    Transport::Udp {
                        src_port: new_src_port,
                        dst_port: new_dst_port,
                    },
                    packet.udp_payload().unwrap_or(&[]),
                )
            }
            _ => return None,
        };
        let eth = packet.ethernet();
        let frame =
            builder::ipv4_frame(eth.src, eth.dst, &ip_out, transport, payload.len(), |out| {
                out.extend_from_slice(payload)
            });
        Packet::parse(frame).ok()
    }
}

impl NetworkFunction for Nat {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> NfKind {
        NfKind::Nat
    }

    fn process(&mut self, packet: Packet, direction: Direction, _ctx: &NfContext) -> Verdict {
        self.stats.record_in(packet.len());
        let Some(tuple) = packet.five_tuple() else {
            let verdict = Verdict::Forward(packet);
            self.stats.record_verdict(&verdict);
            return verdict;
        };
        // Only TCP/UDP flows are translated; ICMP and others pass through.
        if !matches!(tuple.protocol, IpProtocol::Tcp | IpProtocol::Udp) {
            let verdict = Verdict::Forward(packet);
            self.stats.record_verdict(&verdict);
            return verdict;
        }

        let verdict = match direction {
            Direction::Ingress => {
                let public_port = self.allocate_port(tuple);
                match Self::rewrite(
                    &packet,
                    self.public_ip,
                    tuple.dst_ip,
                    public_port,
                    tuple.dst_port,
                ) {
                    Some(rewritten) => {
                        self.translated_packets += 1;
                        Verdict::Forward(rewritten)
                    }
                    None => Verdict::Forward(packet),
                }
            }
            Direction::Egress => {
                // Downstream: the packet is addressed to (public_ip, public_port).
                if tuple.dst_ip == self.public_ip {
                    if let Some(original) = self.reverse.get(&tuple.dst_port).copied() {
                        match Self::rewrite(
                            &packet,
                            tuple.src_ip,
                            original.src_ip,
                            tuple.src_port,
                            original.src_port,
                        ) {
                            Some(rewritten) => {
                                self.translated_packets += 1;
                                Verdict::Forward(rewritten)
                            }
                            None => Verdict::Forward(packet),
                        }
                    } else {
                        Verdict::Drop(
                            format!("no NAT translation for public port {}", tuple.dst_port).into(),
                        )
                    }
                } else {
                    Verdict::Forward(packet)
                }
            }
        };
        self.stats.record_verdict(&verdict);
        verdict
    }

    fn stats(&self) -> NfStats {
        self.stats
    }

    fn export_state(&self) -> NfStateSnapshot {
        let mut mappings: Vec<(FiveTuple, u16)> =
            self.forward.iter().map(|(k, v)| (*k, *v)).collect();
        mappings.sort_by_key(|(_, port)| *port);
        NfStateSnapshot::Nat {
            mappings,
            next_port: self.next_port,
        }
    }

    fn import_state(&mut self, state: NfStateSnapshot) {
        if let NfStateSnapshot::Nat {
            mappings,
            next_port,
        } = state
        {
            for (tuple, port) in mappings {
                self.forward.insert(tuple, port);
                self.reverse.insert(port, tuple);
            }
            self.next_port = next_port;
        }
    }

    fn replace_state(&mut self, state: NfStateSnapshot) {
        if matches!(state, NfStateSnapshot::Nat { .. }) {
            self.forward.clear();
            self.reverse.clear();
        }
        self.import_state(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnf_packet::builder;
    use gnf_types::{MacAddr, SimTime};

    fn public_ip() -> Ipv4Addr {
        Ipv4Addr::new(198, 51, 100, 1)
    }
    fn client_ip() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 2)
    }
    fn server_ip() -> Ipv4Addr {
        Ipv4Addr::new(203, 0, 113, 10)
    }
    fn ctx() -> NfContext {
        NfContext::at(SimTime::from_secs(1))
    }

    fn upstream_tcp(src_port: u16, payload: &[u8]) -> Packet {
        builder::tcp_data(
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            client_ip(),
            server_ip(),
            src_port,
            80,
            payload,
        )
    }

    #[test]
    fn upstream_traffic_is_masqueraded() {
        let mut nat = Nat::new("nat", public_ip());
        let verdict = nat.process(upstream_tcp(50_000, b"hello"), Direction::Ingress, &ctx());
        let Verdict::Forward(out) = verdict else {
            panic!("expected forward")
        };
        let ip = out.ipv4().unwrap();
        assert_eq!(ip.src, public_ip());
        assert_eq!(ip.dst, server_ip());
        let tcp = out.tcp().unwrap();
        assert_eq!(tcp.src_port, NAT_PORT_BASE);
        assert_eq!(tcp.dst_port, 80);
        // Payload survives the rewrite.
        assert_eq!(out.tcp_payload().unwrap(), b"hello");
        assert_eq!(nat.active_translations(), 1);
    }

    #[test]
    fn downstream_traffic_is_restored_to_the_client() {
        let mut nat = Nat::new("nat", public_ip());
        nat.process(upstream_tcp(50_000, b"req"), Direction::Ingress, &ctx());

        // The server replies to the public endpoint.
        let reply = builder::tcp_data(
            MacAddr::derived(2, 1),
            MacAddr::derived(1, 1),
            server_ip(),
            public_ip(),
            80,
            NAT_PORT_BASE,
            b"resp",
        );
        let verdict = nat.process(reply, Direction::Egress, &ctx());
        let Verdict::Forward(out) = verdict else {
            panic!("expected forward")
        };
        assert_eq!(out.ipv4().unwrap().dst, client_ip());
        assert_eq!(out.tcp().unwrap().dst_port, 50_000);
        assert_eq!(out.tcp_payload().unwrap(), b"resp");
    }

    #[test]
    fn each_flow_gets_a_distinct_public_port() {
        let mut nat = Nat::new("nat", public_ip());
        let a = nat
            .process(upstream_tcp(50_000, b""), Direction::Ingress, &ctx())
            .into_forwarded()
            .unwrap();
        let b = nat
            .process(upstream_tcp(50_001, b""), Direction::Ingress, &ctx())
            .into_forwarded()
            .unwrap();
        assert_ne!(a.tcp().unwrap().src_port, b.tcp().unwrap().src_port);
        assert_eq!(nat.active_translations(), 2);
        // Re-sending on the first flow reuses its port.
        let again = nat
            .process(upstream_tcp(50_000, b""), Direction::Ingress, &ctx())
            .into_forwarded()
            .unwrap();
        assert_eq!(again.tcp().unwrap().src_port, a.tcp().unwrap().src_port);
        assert_eq!(nat.active_translations(), 2);
    }

    #[test]
    fn unknown_downstream_ports_are_dropped() {
        let mut nat = Nat::new("nat", public_ip());
        let stray = builder::tcp_data(
            MacAddr::derived(2, 1),
            MacAddr::derived(1, 1),
            server_ip(),
            public_ip(),
            80,
            45_555,
            b"stray",
        );
        assert!(nat.process(stray, Direction::Egress, &ctx()).is_drop());
    }

    #[test]
    fn udp_flows_are_translated_too() {
        let mut nat = Nat::new("nat", public_ip());
        let dns = builder::dns_query(
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            client_ip(),
            Ipv4Addr::new(8, 8, 8, 8),
            5353,
            7,
            "example.com",
        );
        let out = nat
            .process(dns, Direction::Ingress, &ctx())
            .into_forwarded()
            .unwrap();
        assert_eq!(out.ipv4().unwrap().src, public_ip());
        assert_eq!(out.udp().unwrap().src_port, NAT_PORT_BASE);
        // The DNS payload still parses after the rewrite.
        assert_eq!(
            out.dns().unwrap().first_question_name(),
            Some("example.com")
        );
    }

    #[test]
    fn icmp_and_non_ip_traffic_pass_through_unchanged() {
        let mut nat = Nat::new("nat", public_ip());
        let ping = builder::icmp_echo_request(
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            client_ip(),
            server_ip(),
            1,
            1,
        );
        let out = nat
            .process(ping.clone(), Direction::Ingress, &ctx())
            .into_forwarded()
            .unwrap();
        assert_eq!(out, ping);
        let arp = builder::arp_request(MacAddr::derived(1, 1), client_ip(), server_ip());
        assert!(nat.process(arp, Direction::Ingress, &ctx()).is_forward());
        assert_eq!(nat.translated_packets(), 0);
    }

    #[test]
    fn translation_table_migrates() {
        let mut nat1 = Nat::new("nat", public_ip());
        nat1.process(upstream_tcp(50_000, b"x"), Direction::Ingress, &ctx());
        let snapshot = nat1.export_state();

        let mut nat2 = Nat::new("nat", public_ip());
        nat2.import_state(snapshot);
        // The reply arrives at the *new* station and is still translated back.
        let reply = builder::tcp_data(
            MacAddr::derived(2, 1),
            MacAddr::derived(1, 1),
            server_ip(),
            public_ip(),
            80,
            NAT_PORT_BASE,
            b"resp",
        );
        let out = nat2
            .process(reply, Direction::Egress, &ctx())
            .into_forwarded()
            .unwrap();
        assert_eq!(out.ipv4().unwrap().dst, client_ip());
        // And new flows on the target continue the port sequence.
        let fresh = nat2
            .process(upstream_tcp(50_009, b""), Direction::Ingress, &ctx())
            .into_forwarded()
            .unwrap();
        assert_eq!(fresh.tcp().unwrap().src_port, NAT_PORT_BASE + 1);
    }

    /// The three-buffer rewrite the frame writer replaced: the transport
    /// segment, then IPv4 around it, then Ethernet around that.
    fn layered_rewrite(
        packet: &Packet,
        new_src: Ipv4Addr,
        new_dst: Ipv4Addr,
        new_src_port: u16,
        new_dst_port: u16,
    ) -> Vec<u8> {
        use bytes::BytesMut;
        use gnf_packet::{EthernetHeader, UdpHeader};
        let ip = packet.ipv4().unwrap();
        let mut l4 = BytesMut::new();
        if let Some(tcp) = packet.tcp() {
            let mut new_tcp = tcp.clone();
            new_tcp.src_port = new_src_port;
            new_tcp.dst_port = new_dst_port;
            new_tcp.emit(&mut l4, new_src, new_dst, packet.tcp_payload().unwrap());
        } else {
            let payload = packet.udp_payload().unwrap();
            UdpHeader::new(new_src_port, new_dst_port, payload.len())
                .emit(&mut l4, new_src, new_dst, payload);
        }
        let eth = packet.ethernet();
        let mut frame = BytesMut::new();
        EthernetHeader {
            dst: eth.dst,
            src: eth.src,
            ethertype: eth.ethertype,
        }
        .emit(&mut frame);
        let ip_out = Ipv4Header {
            src: new_src,
            dst: new_dst,
            options: Vec::new(),
            ..ip.clone()
        };
        ip_out.emit(&mut frame, l4.len());
        frame.extend_from_slice(&l4);
        frame.to_vec()
    }

    /// A TCP frame with IPv4 and TCP options and non-default header fields,
    /// which the rewrite must carry over (IPv4 options excepted).
    fn tcp_with_options(payload: &[u8]) -> Packet {
        use bytes::BytesMut;
        use gnf_packet::{EtherType, EthernetHeader, TcpFlags};
        let mut tcp = TcpHeader::new(51_000, 443, TcpFlags::ACK);
        tcp.seq = 0xdead_beef;
        tcp.ack = 0x0102_0304;
        tcp.window = 1_234;
        tcp.urgent = 7;
        tcp.options = vec![2, 4, 5, 180, 1, 1, 4, 2];
        let mut l4 = BytesMut::new();
        tcp.emit(&mut l4, client_ip(), server_ip(), payload);
        let mut ip = Ipv4Header::new(client_ip(), server_ip(), IpProtocol::Tcp, l4.len());
        ip.dscp_ecn = 0xb8;
        ip.identification = 0x4242;
        ip.dont_fragment = false;
        ip.ttl = 17;
        ip.options = vec![1, 1, 1, 0];
        let mut frame = BytesMut::new();
        EthernetHeader {
            dst: MacAddr::derived(2, 1),
            src: MacAddr::derived(1, 1),
            ethertype: EtherType::Ipv4,
        }
        .emit(&mut frame);
        ip.emit(&mut frame, l4.len());
        frame.extend_from_slice(&l4);
        Packet::parse(frame.freeze()).unwrap()
    }

    #[test]
    fn rewritten_frames_match_the_layered_rewrite_byte_for_byte() {
        let mut inputs = vec![
            tcp_with_options(b""),
            tcp_with_options(b"GET / HTTP/1.1\r\n"),
        ];
        for len in [0usize, 1, 7, 64, 513, 1400] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            inputs.push(upstream_tcp(50_000, &payload));
            inputs.push(builder::udp_packet(
                MacAddr::derived(1, 1),
                MacAddr::derived(2, 1),
                client_ip(),
                server_ip(),
                5_353,
                53,
                &payload,
            ));
        }
        for (i, packet) in inputs.iter().enumerate() {
            let port = NAT_PORT_BASE + i as u16;
            let expected = layered_rewrite(packet, public_ip(), server_ip(), port, 80);
            let rewritten = Nat::rewrite(packet, public_ip(), server_ip(), port, 80).unwrap();
            assert_eq!(rewritten.bytes()[..], expected[..], "input {i}");
        }
        let with_options = Nat::rewrite(&inputs[1], public_ip(), server_ip(), 40_000, 80).unwrap();
        let tcp = with_options.tcp().unwrap();
        assert_eq!(tcp.options, vec![2, 4, 5, 180, 1, 1, 4, 2]);
        assert_eq!((tcp.seq, tcp.window, tcp.urgent), (0xdead_beef, 1_234, 7));
        let ip = with_options.ipv4().unwrap();
        assert_eq!((ip.dscp_ecn, ip.identification, ip.ttl), (0xb8, 0x4242, 17));
        assert!(ip.options.is_empty());
    }
}
