//! Seeded equivalence tests for single-buffer frame construction.
//!
//! Every builder must produce exactly the bytes of a reference frame
//! assembled layer by layer from the typed `emit` methods (Ethernet, IPv4,
//! TCP/UDP/ICMP, ARP) and the typed HTTP and DNS encoders. The wide
//! [`Checksum`] accumulator must match a 16-bit word-at-a-time reference
//! sum, including for several odd-length `add_bytes` calls in a row.

use bytes::BytesMut;
use gnf_packet::arp::ArpPacket;
use gnf_packet::builder;
use gnf_packet::checksum::{transport_checksum, Checksum};
use gnf_packet::{
    DnsMessage, EtherType, EthernetHeader, HttpRequest, IcmpMessage, IpProtocol, Ipv4Header,
    TcpFlags, TcpHeader, UdpHeader,
};
use gnf_types::MacAddr;
use std::net::Ipv4Addr;

/// SplitMix64: a tiny seeded generator, so the cases are reproducible.
struct Seeded(u64);

impl Seeded {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }

    fn mac(&mut self) -> MacAddr {
        MacAddr::derived(self.next() as u8, self.next() as u32)
    }

    fn ip(&mut self) -> Ipv4Addr {
        Ipv4Addr::from(self.next() as u32)
    }

    fn port(&mut self) -> u16 {
        self.next() as u16
    }

    /// A string over `alphabet` of up to `max_len` characters.
    fn text(&mut self, alphabet: &str, max_len: usize) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        let len = self.below(max_len + 1);
        (0..len).map(|_| chars[self.below(chars.len())]).collect()
    }

    /// A DNS name with mixed case, possible empty labels, labels over 63
    /// bytes and trailing dots.
    fn dns_name(&mut self) -> String {
        let labels = self.below(5);
        let mut name = (0..labels)
            .map(|_| {
                if self.below(8) == 0 {
                    self.text("abcXYZ09-", 90)
                } else {
                    self.text("abcdefXYZ09-", 12)
                }
            })
            .collect::<Vec<_>>()
            .join(".");
        for _ in 0..self.below(3) {
            name.push('.');
        }
        name
    }
}

struct Ends {
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
}

fn ends(rng: &mut Seeded) -> Ends {
    Ends {
        src_mac: rng.mac(),
        dst_mac: rng.mac(),
        src_ip: rng.ip(),
        dst_ip: rng.ip(),
        src_port: rng.port(),
        dst_port: rng.port(),
    }
}

/// Ethernet header followed by `payload`, through the typed emitter.
fn reference_frame(src: MacAddr, dst: MacAddr, ethertype: EtherType, payload: &[u8]) -> Vec<u8> {
    let mut frame = BytesMut::new();
    EthernetHeader {
        dst,
        src,
        ethertype,
    }
    .emit(&mut frame);
    frame.extend_from_slice(payload);
    frame.to_vec()
}

/// Ethernet + IPv4 around an encoded transport segment.
fn reference_ipv4(e: &Ends, protocol: IpProtocol, l4: &[u8]) -> Vec<u8> {
    let mut packet = BytesMut::new();
    Ipv4Header::new(e.src_ip, e.dst_ip, protocol, l4.len()).emit(&mut packet, l4.len());
    packet.extend_from_slice(l4);
    reference_frame(e.src_mac, e.dst_mac, EtherType::Ipv4, &packet)
}

fn reference_tcp(e: &Ends, dst_port: u16, flags: TcpFlags, payload: &[u8]) -> Vec<u8> {
    let mut tcp = TcpHeader::new(e.src_port, dst_port, flags);
    tcp.seq = 1;
    let mut l4 = BytesMut::new();
    tcp.emit(&mut l4, e.src_ip, e.dst_ip, payload);
    reference_ipv4(e, IpProtocol::Tcp, &l4)
}

fn reference_udp(e: &Ends, dst_port: u16, payload: &[u8]) -> Vec<u8> {
    let mut l4 = BytesMut::new();
    UdpHeader::new(e.src_port, dst_port, payload.len()).emit(&mut l4, e.src_ip, e.dst_ip, payload);
    reference_ipv4(e, IpProtocol::Udp, &l4)
}

fn data_flags(payload: &[u8]) -> TcpFlags {
    TcpFlags {
        ack: true,
        psh: !payload.is_empty(),
        ..TcpFlags::default()
    }
}

#[test]
fn tcp_udp_and_fill_builders_match_the_typed_reference_for_every_payload_length() {
    let mut rng = Seeded(0x5eed_0001);
    for len in 0..=1500 {
        let e = ends(&mut rng);
        let payload = rng.bytes(len);
        let flags = TcpFlags::from_byte(rng.next() as u8);

        let pkt = builder::tcp_packet(
            e.src_mac, e.dst_mac, e.src_ip, e.dst_ip, e.src_port, e.dst_port, flags, &payload,
        );
        assert_eq!(
            pkt.bytes()[..],
            reference_tcp(&e, e.dst_port, flags, &payload)[..],
            "tcp_packet, {len}-byte payload"
        );

        let pkt = builder::tcp_data(
            e.src_mac, e.dst_mac, e.src_ip, e.dst_ip, e.src_port, e.dst_port, &payload,
        );
        assert_eq!(
            pkt.bytes()[..],
            reference_tcp(&e, e.dst_port, data_flags(&payload), &payload)[..],
            "tcp_data, {len}-byte payload"
        );

        let pkt = builder::udp_packet(
            e.src_mac, e.dst_mac, e.src_ip, e.dst_ip, e.src_port, e.dst_port, &payload,
        );
        assert_eq!(
            pkt.bytes()[..],
            reference_udp(&e, e.dst_port, &payload)[..],
            "udp_packet, {len}-byte payload"
        );

        let fill = rng.next() as u8;
        let pkt = builder::udp_fill(
            e.src_mac, e.dst_mac, e.src_ip, e.dst_ip, e.src_port, e.dst_port, fill, len,
        );
        assert_eq!(
            pkt.bytes()[..],
            reference_udp(&e, e.dst_port, &vec![fill; len])[..],
            "udp_fill, {len}-byte payload"
        );
    }
}

#[test]
fn syn_icmp_and_arp_builders_match_the_typed_reference() {
    let mut rng = Seeded(0x5eed_0002);
    for _ in 0..2_000 {
        let e = ends(&mut rng);
        let pkt = builder::tcp_syn(
            e.src_mac, e.dst_mac, e.src_ip, e.dst_ip, e.src_port, e.dst_port,
        );
        assert_eq!(
            pkt.bytes()[..],
            reference_tcp(&e, e.dst_port, TcpFlags::SYN, b"")[..]
        );

        let pkt = builder::icmp_echo_request(
            e.src_mac, e.dst_mac, e.src_ip, e.dst_ip, e.src_port, e.dst_port,
        );
        let mut icmp = BytesMut::new();
        IcmpMessage::echo_request(e.src_port, e.dst_port, vec![0x47; 32]).emit(&mut icmp);
        assert_eq!(
            pkt.bytes()[..],
            reference_ipv4(&e, IpProtocol::Icmp, &icmp)[..]
        );

        let request = ArpPacket::request(e.src_mac, e.src_ip, e.dst_ip);
        let mut arp = BytesMut::new();
        request.emit(&mut arp);
        let pkt = builder::arp_request(e.src_mac, e.src_ip, e.dst_ip);
        assert_eq!(
            pkt.bytes()[..],
            reference_frame(e.src_mac, MacAddr::BROADCAST, EtherType::Arp, &arp)[..]
        );

        let mut reply = BytesMut::new();
        ArpPacket::reply_to(&request, e.dst_mac).emit(&mut reply);
        let pkt = builder::arp_reply(&request, e.dst_mac);
        assert_eq!(
            pkt.bytes()[..],
            reference_frame(e.dst_mac, e.src_mac, EtherType::Arp, &reply)[..]
        );
    }
}

#[test]
fn http_get_matches_the_encoded_http_request() {
    let mut rng = Seeded(0x5eed_0003);
    let url_chars = "abcXYZ019./-_?=&%~ ";
    for _ in 0..5_000 {
        let e = ends(&mut rng);
        let host = rng.text(url_chars, 40);
        let path = format!("/{}", rng.text(url_chars, 120));
        let pkt = builder::http_get(
            e.src_mac, e.dst_mac, e.src_ip, e.dst_ip, e.src_port, &host, &path,
        );
        let request = HttpRequest::get(&host, &path).to_bytes();
        assert_eq!(
            pkt.bytes()[..],
            reference_tcp(&e, 80, data_flags(&request), &request)[..],
            "http_get({host:?}, {path:?})"
        );
    }
}

#[test]
fn dns_query_matches_the_encoded_dns_message() {
    let long = "L".repeat(70);
    let fixed = [
        String::new(),
        ".".into(),
        "...".into(),
        "a..b".into(),
        ".leading.example".into(),
        "WWW.Example.COM.".into(),
        "edge.example..".into(),
        format!("{long}.example"),
        format!("x.{long}."),
        "Ünïcode.Example".into(),
    ];
    let mut rng = Seeded(0x5eed_0004);
    let random = (0..20_000).map(|_| rng.dns_name()).collect::<Vec<_>>();
    for name in fixed.iter().chain(&random) {
        let e = ends(&mut rng);
        let id = rng.port();
        let pkt = builder::dns_query(
            e.src_mac, e.dst_mac, e.src_ip, e.dst_ip, e.src_port, id, name,
        );
        let query = DnsMessage::query(id, name).to_bytes();
        assert_eq!(
            pkt.bytes()[..],
            reference_udp(&e, 53, &query)[..],
            "dns_query({name:?})"
        );
    }
}

/// The RFC 1071 sum one 16-bit word at a time, each chunk's odd byte
/// zero-padded on the right.
fn reference_checksum(chunks: &[Vec<u8>]) -> u16 {
    let mut sum: u64 = 0;
    for chunk in chunks {
        let mut words = chunk.chunks_exact(2);
        for word in &mut words {
            sum += u64::from(u16::from_be_bytes([word[0], word[1]]));
        }
        if let [last] = words.remainder() {
            sum += u64::from(u16::from_be_bytes([*last, 0]));
        }
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[test]
fn wide_checksum_matches_the_16_bit_reference() {
    let mut rng = Seeded(0x5eed_0005);
    for case in 0..20_000 {
        let chunks: Vec<Vec<u8>> = (0..1 + rng.below(5))
            .map(|_| {
                let len = match rng.below(4) {
                    0 => rng.below(4),
                    1 => 2 * rng.below(40) + 1,
                    _ => rng.below(1600),
                };
                match case % 8 {
                    // Words that are all zeros or all ones probe the
                    // 0x0000/0xffff ends of the one's-complement fold.
                    0 => vec![0; len],
                    1 => vec![0xff; len],
                    _ => rng.bytes(len),
                }
            })
            .collect();
        let mut wide = Checksum::new();
        for chunk in &chunks {
            wide.add_bytes(chunk);
        }
        assert_eq!(wide.finish(), reference_checksum(&chunks), "case {case}");
    }
}

#[test]
fn wide_checksum_words_mix_with_byte_chunks() {
    let mut rng = Seeded(0x5eed_0006);
    for _ in 0..5_000 {
        let (src, dst) = (rng.ip(), rng.ip());
        let len = rng.below(1600);
        let segment = rng.bytes(len);
        let pseudo = [
            src.octets().to_vec(),
            dst.octets().to_vec(),
            vec![0, 17],
            (segment.len() as u16).to_be_bytes().to_vec(),
            segment.clone(),
        ];
        let folded = reference_checksum(&pseudo);
        let expected = if folded == 0 { 0xffff } else { folded };
        assert_eq!(transport_checksum(src, dst, 17, &segment), expected);

        let mut mixed = Checksum::new();
        mixed.add_u32(u32::from(src));
        mixed.add_bytes(&dst.octets());
        mixed.add_u16(17);
        mixed.add_u16(segment.len() as u16);
        mixed.add_bytes(&segment);
        assert_eq!(mixed.finish(), folded);
    }
}
