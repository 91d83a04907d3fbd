//! Constructors for complete, well-formed frames.
//!
//! Traffic generators, tests, benchmarks and header-rewriting NFs build
//! frames here so that checksums, lengths and layer offsets are always
//! consistent. Every IPv4 frame goes through [`ipv4_frame`], which writes it
//! into one exactly-sized buffer: the Ethernet, IPv4 and transport headers
//! and the payload are written straight to their final offsets, the length
//! fields come from the sizes known up front, and both checksums are
//! computed over the final bytes. Payloads go straight into that buffer
//! too: [`http_get`] writes its request line and headers, [`dns_query`] its
//! header and labels, and [`udp_fill`] its fill bytes, with no intermediate
//! message or buffer.
//!
//! Each function returns a fully parsed [`Packet`], so every built frame is
//! validated. The IPv4 total length is a 16-bit field: a frame whose IPv4
//! packet would exceed 65,535 bytes is a caller bug, and the builders panic
//! on it rather than wrap the length fields.

use crate::arp::{ArpPacket, ARP_PACKET_LEN};
use crate::checksum::{internet_checksum, transport_checksum};
use crate::dns::{DnsMessage, DnsRecordType, DNS_HEADER_LEN, DNS_PORT};
use crate::ethernet::{EtherType, EthernetHeader, ETHERNET_HEADER_LEN};
use crate::http::{HttpResponse, HTTP_PORT};
use crate::icmp::{IcmpKind, ICMP_HEADER_LEN};
use crate::ipv4::{IpProtocol, Ipv4Header};
use crate::packet::Packet;
use crate::tcp::{TcpFlags, TcpHeader};
use crate::udp::UDP_HEADER_LEN;
use bytes::{Bytes, BytesMut};
use gnf_types::MacAddr;
use std::net::Ipv4Addr;

/// The largest IPv4 packet (header plus payload) the 16-bit total-length
/// field can describe.
pub const IPV4_MAX_TOTAL_LEN: usize = u16::MAX as usize;

/// The transport layer [`ipv4_frame`] writes after the IPv4 header.
#[derive(Debug, Clone, Copy)]
pub enum Transport<'a> {
    /// A TCP segment with every field of this header, options included.
    Tcp(&'a TcpHeader),
    /// A UDP datagram between two ports.
    Udp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
    },
    /// An echo-style ICMP message.
    Icmp {
        /// Message type and code.
        kind: IcmpKind,
        /// Echo identifier.
        identifier: u16,
        /// Echo sequence number.
        sequence: u16,
    },
}

impl Transport<'_> {
    fn protocol(&self) -> IpProtocol {
        match self {
            Transport::Tcp(_) => IpProtocol::Tcp,
            Transport::Udp { .. } => IpProtocol::Udp,
            Transport::Icmp { .. } => IpProtocol::Icmp,
        }
    }

    fn header_len(&self) -> usize {
        match self {
            Transport::Tcp(tcp) => tcp.header_len(),
            Transport::Udp { .. } => UDP_HEADER_LEN,
            Transport::Icmp { .. } => ICMP_HEADER_LEN,
        }
    }
}

/// Writes an Ethernet + IPv4 + `transport` frame into one exactly-sized
/// buffer. `write_payload` appends the `payload_len` payload bytes to the
/// buffer, right after the space reserved for the headers; the headers, the
/// IPv4 total length, the UDP length and both checksums are then written
/// over the final bytes. Every other IPv4 field, options included, comes
/// from `ip`; its protocol and total length are ignored, since both follow
/// from `transport` and `payload_len`.
///
/// # Panics
///
/// When the IPv4 packet would exceed [`IPV4_MAX_TOTAL_LEN`] bytes, or when
/// `write_payload` appends other than `payload_len` bytes.
pub fn ipv4_frame(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    ip: &Ipv4Header,
    transport: Transport<'_>,
    payload_len: usize,
    write_payload: impl FnOnce(&mut Vec<u8>),
) -> Bytes {
    let ihl = ip.header_len();
    debug_assert_eq!(ihl % 4, 0, "IPv4 options must pad to 32-bit words");
    let l4_header_len = transport.header_len();
    let total_len = ihl + l4_header_len + payload_len;
    assert!(
        total_len <= IPV4_MAX_TOTAL_LEN,
        "a {payload_len}-byte payload makes a {total_len}-byte IPv4 packet, over the \
         {IPV4_MAX_TOTAL_LEN}-byte IPv4 total-length limit"
    );
    // Only the header space is zero-filled; the payload is appended. (A
    // zeroed `vec![0; n]` allocates through `calloc`, which glibc serves
    // around its per-thread cache: on the generators' build-then-copy
    // pattern that raised peak RSS by ~1.5%.)
    let headers_len = ETHERNET_HEADER_LEN + ihl + l4_header_len;
    let mut frame = Vec::with_capacity(ETHERNET_HEADER_LEN + total_len);
    frame.resize(headers_len, 0);
    write_payload(&mut frame);
    assert_eq!(
        frame.len(),
        ETHERNET_HEADER_LEN + total_len,
        "the payload writer must append exactly {payload_len} bytes"
    );

    let (eth, packet) = frame.split_at_mut(ETHERNET_HEADER_LEN);
    eth[..6].copy_from_slice(&dst_mac.octets());
    eth[6..12].copy_from_slice(&src_mac.octets());
    eth[12..].copy_from_slice(&EtherType::Ipv4.value().to_be_bytes());

    let (header, segment) = packet.split_at_mut(ihl);
    let mut flags_frag = ip.fragment_offset & 0x1fff;
    if ip.dont_fragment {
        flags_frag |= 0x4000;
    }
    if ip.more_fragments {
        flags_frag |= 0x2000;
    }
    header[0] = (4 << 4) | (ihl / 4) as u8;
    header[1] = ip.dscp_ecn;
    header[2..4].copy_from_slice(&(total_len as u16).to_be_bytes());
    header[4..6].copy_from_slice(&ip.identification.to_be_bytes());
    header[6..8].copy_from_slice(&flags_frag.to_be_bytes());
    header[8] = ip.ttl;
    header[9] = transport.protocol().value();
    header[12..16].copy_from_slice(&ip.src.octets());
    header[16..20].copy_from_slice(&ip.dst.octets());
    header[20..].copy_from_slice(&ip.options);
    let checksum = internet_checksum(header);
    header[10..12].copy_from_slice(&checksum.to_be_bytes());

    let l4 = &mut segment[..l4_header_len];
    let (checksum_at, checksum) = match transport {
        Transport::Tcp(tcp) => {
            l4[..2].copy_from_slice(&tcp.src_port.to_be_bytes());
            l4[2..4].copy_from_slice(&tcp.dst_port.to_be_bytes());
            l4[4..8].copy_from_slice(&tcp.seq.to_be_bytes());
            l4[8..12].copy_from_slice(&tcp.ack.to_be_bytes());
            l4[12] = ((l4_header_len / 4) as u8) << 4;
            l4[13] = tcp.flags.to_byte();
            l4[14..16].copy_from_slice(&tcp.window.to_be_bytes());
            l4[18..20].copy_from_slice(&tcp.urgent.to_be_bytes());
            l4[20..].copy_from_slice(&tcp.options);
            let protocol = IpProtocol::Tcp.value();
            (16, transport_checksum(ip.src, ip.dst, protocol, segment))
        }
        Transport::Udp { src_port, dst_port } => {
            let udp_len = (l4_header_len + payload_len) as u16;
            l4[..2].copy_from_slice(&src_port.to_be_bytes());
            l4[2..4].copy_from_slice(&dst_port.to_be_bytes());
            l4[4..6].copy_from_slice(&udp_len.to_be_bytes());
            let protocol = IpProtocol::Udp.value();
            (6, transport_checksum(ip.src, ip.dst, protocol, segment))
        }
        Transport::Icmp {
            kind,
            identifier,
            sequence,
        } => {
            let (ty, code) = kind.type_code();
            l4[0] = ty;
            l4[1] = code;
            l4[4..6].copy_from_slice(&identifier.to_be_bytes());
            l4[6..8].copy_from_slice(&sequence.to_be_bytes());
            (2, internet_checksum(segment))
        }
    };
    segment[checksum_at..checksum_at + 2].copy_from_slice(&checksum.to_be_bytes());
    Bytes::from(frame)
}

/// Parses a frame a builder just wrote; a failure is a builder bug.
fn built(frame: Bytes) -> Packet {
    Packet::parse(frame).expect("builder produced an unparseable frame")
}

/// Builds an Ethernet + IPv4 + TCP frame (sequence number 1) whose
/// `payload_len`-byte payload `write_payload` appends.
#[allow(clippy::too_many_arguments)]
fn tcp_frame(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    flags: TcpFlags,
    payload_len: usize,
    write_payload: impl FnOnce(&mut Vec<u8>),
) -> Packet {
    let mut tcp = TcpHeader::new(src_port, dst_port, flags);
    tcp.seq = 1;
    let ip = Ipv4Header::new(src_ip, dst_ip, IpProtocol::Tcp, 0);
    built(ipv4_frame(
        src_mac,
        dst_mac,
        &ip,
        Transport::Tcp(&tcp),
        payload_len,
        write_payload,
    ))
}

/// Builds an Ethernet + IPv4 + UDP frame whose `payload_len`-byte payload
/// `write_payload` appends.
#[allow(clippy::too_many_arguments)]
fn udp_frame(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload_len: usize,
    write_payload: impl FnOnce(&mut Vec<u8>),
) -> Packet {
    let ip = Ipv4Header::new(src_ip, dst_ip, IpProtocol::Udp, 0);
    built(ipv4_frame(
        src_mac,
        dst_mac,
        &ip,
        Transport::Udp { src_port, dst_port },
        payload_len,
        write_payload,
    ))
}

/// Builds an Ethernet + IPv4 + TCP frame carrying `payload`.
#[allow(clippy::too_many_arguments)]
pub fn tcp_packet(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    flags: TcpFlags,
    payload: &[u8],
) -> Packet {
    tcp_frame(
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        flags,
        payload.len(),
        |out| out.extend_from_slice(payload),
    )
}

/// The flags of an in-flow data segment: `ACK`, plus `PSH` when it carries
/// data.
fn data_flags(has_payload: bool) -> TcpFlags {
    TcpFlags {
        ack: true,
        psh: has_payload,
        ..TcpFlags::default()
    }
}

/// Builds a TCP data segment with the `ACK|PSH` flags set (a typical in-flow
/// data packet).
pub fn tcp_data(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
) -> Packet {
    tcp_packet(
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        data_flags(!payload.is_empty()),
        payload,
    )
}

/// Builds a TCP SYN (connection-opening) segment.
pub fn tcp_syn(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
) -> Packet {
    tcp_packet(
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        TcpFlags::SYN,
        b"",
    )
}

/// Builds an Ethernet + IPv4 + UDP frame carrying `payload`.
#[allow(clippy::too_many_arguments)]
pub fn udp_packet(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
) -> Packet {
    udp_frame(
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        payload.len(),
        |out| out.extend_from_slice(payload),
    )
}

/// Builds an Ethernet + IPv4 + UDP frame whose payload is `payload_len`
/// copies of `fill` — a constant-bit-rate stream's packet, with the payload
/// written straight into the frame.
#[allow(clippy::too_many_arguments)]
pub fn udp_fill(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    fill: u8,
    payload_len: usize,
) -> Packet {
    udp_frame(
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        payload_len,
        |out| out.resize(out.len() + payload_len, fill),
    )
}

/// Builds an ICMP echo request frame.
pub fn icmp_echo_request(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    identifier: u16,
    sequence: u16,
) -> Packet {
    let ip = Ipv4Header::new(src_ip, dst_ip, IpProtocol::Icmp, 0);
    let icmp = Transport::Icmp {
        kind: IcmpKind::EchoRequest,
        identifier,
        sequence,
    };
    built(ipv4_frame(src_mac, dst_mac, &ip, icmp, 32, |out| {
        out.extend_from_slice(&[0x47; 32])
    }))
}

/// Builds a broadcast ARP who-has request.
pub fn arp_request(sender_mac: MacAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> Packet {
    let arp = ArpPacket::request(sender_mac, sender_ip, target_ip);
    arp_frame(sender_mac, MacAddr::BROADCAST, &arp)
}

/// Builds a unicast ARP reply answering `request`.
pub fn arp_reply(request: &ArpPacket, responder_mac: MacAddr) -> Packet {
    let arp = ArpPacket::reply_to(request, responder_mac);
    arp_frame(responder_mac, request.sender_mac, &arp)
}

/// Writes an Ethernet + ARP frame into one buffer.
fn arp_frame(src_mac: MacAddr, dst_mac: MacAddr, arp: &ArpPacket) -> Packet {
    let eth = EthernetHeader {
        dst: dst_mac,
        src: src_mac,
        ethertype: EtherType::Arp,
    };
    let mut frame = BytesMut::with_capacity(ETHERNET_HEADER_LEN + ARP_PACKET_LEN);
    eth.emit(&mut frame);
    arp.emit(&mut frame);
    built(frame.freeze())
}

/// The labels of `name` as [`DnsMessage::query`] encodes them: trailing dots
/// trimmed, each label capped at 63 bytes, no labels for an empty name.
/// Lower-casing is left to the writer.
fn dns_labels(name: &str) -> impl Iterator<Item = &[u8]> + Clone {
    let name = name.trim_end_matches('.').as_bytes();
    // Splitting an empty name yields one empty label; it encodes as none.
    name.split(|&b| b == b'.')
        .filter(move |_| !name.is_empty())
        .map(|label| &label[..label.len().min(63)])
}

/// Builds a DNS A-record query carried over UDP to port 53. The message is
/// written in place and is byte-identical to `DnsMessage::query(id, name)`
/// encoded: the name is lower-cased, trailing dots are trimmed and labels
/// are capped at 63 bytes.
#[allow(clippy::too_many_arguments)]
pub fn dns_query(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    id: u16,
    name: &str,
) -> Packet {
    let labels = dns_labels(name);
    let name_len = labels.clone().map(|label| 1 + label.len()).sum::<usize>() + 1;
    let payload_len = DNS_HEADER_LEN + name_len + 4;
    udp_frame(
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        src_port,
        DNS_PORT,
        payload_len,
        |out| {
            // ID, flags (recursion desired), one question, no other records.
            out.extend_from_slice(&id.to_be_bytes());
            out.extend_from_slice(&[0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0]);
            for label in labels {
                out.push(label.len() as u8);
                out.extend(label.iter().map(u8::to_ascii_lowercase));
            }
            out.push(0);
            out.extend_from_slice(&DnsRecordType::A.value().to_be_bytes());
            out.extend_from_slice(&1u16.to_be_bytes()); // class IN
        },
    )
}

/// Builds a DNS response frame for the given query packet contents.
#[allow(clippy::too_many_arguments)]
pub fn dns_response(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    dst_port: u16,
    query: &DnsMessage,
    addresses: &[Ipv4Addr],
    ttl: u32,
) -> Packet {
    let msg = DnsMessage::response_to(query, addresses, ttl);
    udp_packet(
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        DNS_PORT,
        dst_port,
        &msg.to_bytes(),
    )
}

/// Builds an HTTP GET request frame to port 80. The request is written in
/// place and is byte-identical to `HttpRequest::get(host, path)` encoded:
/// the request line, then `host`, `user-agent` and `accept` headers.
#[allow(clippy::too_many_arguments)]
pub fn http_get(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    host: &str,
    path: &str,
) -> Packet {
    let parts: [&[u8]; 5] = [
        b"GET ",
        path.as_bytes(),
        b" HTTP/1.1\r\nhost: ",
        host.as_bytes(),
        b"\r\nuser-agent: gnf-client/0.1\r\naccept: */*\r\n\r\n",
    ];
    let payload_len = parts.iter().map(|part| part.len()).sum();
    tcp_frame(
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        src_port,
        HTTP_PORT,
        data_flags(true),
        payload_len,
        |out| {
            for part in parts {
                out.extend_from_slice(part);
            }
        },
    )
}

/// Builds an HTTP response frame from port 80 back to the client.
#[allow(clippy::too_many_arguments)]
pub fn http_response(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    dst_port: u16,
    response: &HttpResponse,
) -> Packet {
    tcp_data(
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        HTTP_PORT,
        dst_port,
        &response.to_bytes(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn macs() -> (MacAddr, MacAddr) {
        (MacAddr::derived(1, 1), MacAddr::derived(2, 1))
    }
    fn ips() -> (Ipv4Addr, Ipv4Addr) {
        (Ipv4Addr::new(10, 0, 0, 2), Ipv4Addr::new(203, 0, 113, 5))
    }

    #[test]
    fn every_builder_produces_parseable_frames() {
        let (cm, gm) = macs();
        let (ci, si) = ips();
        let packets = vec![
            tcp_syn(cm, gm, ci, si, 40000, 443),
            tcp_data(cm, gm, ci, si, 40000, 443, b"data"),
            udp_packet(cm, gm, ci, si, 5000, 5001, b"payload"),
            icmp_echo_request(cm, gm, ci, si, 1, 1),
            arp_request(cm, ci, si),
            dns_query(cm, gm, ci, si, 4242, 7, "edge.example"),
            http_get(cm, gm, ci, si, 40001, "www.example", "/"),
        ];
        for pkt in packets {
            // Re-parsing the raw bytes must give back an identical packet.
            let reparsed = Packet::parse(pkt.bytes().clone()).unwrap();
            assert_eq!(&reparsed, &pkt);
        }
    }

    #[test]
    fn dns_response_builder_answers_the_query() {
        let (cm, gm) = macs();
        let (ci, si) = ips();
        let query_pkt = dns_query(cm, gm, ci, si, 4242, 7, "service.example");
        let query = query_pkt.dns().unwrap();
        let addrs = [Ipv4Addr::new(10, 10, 0, 1)];
        let resp_pkt = dns_response(gm, cm, si, ci, 4242, &query, &addrs, 60);
        let resp = resp_pkt.dns().unwrap();
        assert!(resp.is_response);
        assert_eq!(resp.id, 7);
        assert_eq!(resp.a_records(), addrs.to_vec());
    }

    #[test]
    fn http_response_builder_is_parseable() {
        let (cm, gm) = macs();
        let (ci, si) = ips();
        let resp = HttpResponse::forbidden();
        let pkt = http_response(gm, cm, si, ci, 40001, &resp);
        let tcp = pkt.tcp().unwrap();
        assert_eq!(tcp.src_port, HTTP_PORT);
        let parsed = HttpResponse::parse(pkt.tcp_payload().unwrap()).unwrap();
        assert_eq!(parsed.status, 403);
    }

    #[test]
    #[should_panic(expected = "65535-byte IPv4 total-length limit")]
    fn oversized_udp_payload_panics_instead_of_wrapping_the_length_fields() {
        let (cm, gm) = macs();
        let (ci, si) = ips();
        udp_packet(cm, gm, ci, si, 5000, 5001, &vec![0xAB; 70_000]);
    }

    #[test]
    #[should_panic(expected = "65535-byte IPv4 total-length limit")]
    fn one_byte_over_the_largest_tcp_payload_panics() {
        let (cm, gm) = macs();
        let (ci, si) = ips();
        tcp_data(
            cm,
            gm,
            ci,
            si,
            40000,
            443,
            &vec![0xAB; IPV4_MAX_TOTAL_LEN - 39],
        );
    }

    #[test]
    fn largest_legal_udp_and_tcp_payloads_build_and_round_trip() {
        let (cm, gm) = macs();
        let (ci, si) = ips();
        let udp_max = IPV4_MAX_TOTAL_LEN - 20 - 8;
        let udp = udp_fill(cm, gm, ci, si, 5000, 5001, 0xAB, udp_max);
        assert_eq!(udp.ipv4().unwrap().total_length, 65_535);
        assert_eq!(udp.udp().unwrap().payload_len(), udp_max);
        assert_eq!(udp.udp_payload().unwrap().len(), udp_max);

        let tcp_max = IPV4_MAX_TOTAL_LEN - 20 - 20;
        let payload = vec![0xCD; tcp_max];
        let tcp = tcp_data(cm, gm, ci, si, 40000, 443, &payload);
        assert_eq!(tcp.ipv4().unwrap().total_length, 65_535);
        assert_eq!(tcp.tcp_payload().unwrap(), &payload[..]);

        for pkt in [udp, tcp] {
            assert_eq!(pkt.len(), 14 + IPV4_MAX_TOTAL_LEN);
            let reparsed = Packet::parse(pkt.bytes().clone()).unwrap();
            assert_eq!(&reparsed, &pkt);
        }
    }

    #[test]
    fn arp_reply_targets_the_requester() {
        let (cm, gm) = macs();
        let (ci, si) = ips();
        let req_pkt = arp_request(cm, ci, si);
        let req = req_pkt.arp().unwrap();
        let reply_pkt = arp_reply(req, gm);
        assert_eq!(reply_pkt.dst_mac(), cm);
        let reply = reply_pkt.arp().unwrap();
        assert_eq!(reply.sender_mac, gm);
        assert_eq!(reply.target_ip, ci);
    }
}
