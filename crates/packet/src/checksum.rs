//! RFC 1071 Internet checksum, used by IPv4, ICMP, TCP and UDP.
//!
//! The checksum is the 16-bit one's-complement of the one's-complement sum of
//! the covered bytes. TCP and UDP additionally cover a pseudo-header built
//! from the IPv4 source/destination addresses, the protocol number and the
//! segment length.

use std::net::Ipv4Addr;

/// Accumulator for the one's-complement sum. Data can be fed in several
/// chunks (header, pseudo-header, payload) before finalising.
///
/// The accumulator is 64 bits wide and [`Checksum::add_bytes`] adds whole
/// 32-bit big-endian words. Because 2^16 ≡ 1 (mod 0xffff), a 32-bit word
/// contributes the same residue as its two 16-bit halves, and folding the
/// carries back in keeps the sum's residue (RFC 1071 §2), so the folded
/// result is bit-identical to a 16-bit word-at-a-time sum.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checksum {
    sum: u64,
}

impl Checksum {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a byte slice to the sum. Slices of odd length are zero-padded on
    /// the right, per RFC 1071.
    pub fn add_bytes(&mut self, data: &[u8]) {
        let mut words = data.chunks_exact(4);
        let mut sum = self.sum;
        for word in &mut words {
            sum += u64::from(u32::from_be_bytes([word[0], word[1], word[2], word[3]]));
        }
        // The 1–3 trailing bytes, zero-padded to a full word: the same
        // residue as their 16-bit words with an odd byte padded on the right.
        let mut tail = [0u8; 4];
        let rest = words.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.sum = sum + u64::from(u32::from_be_bytes(tail));
    }

    /// Adds a single big-endian 16-bit word.
    pub fn add_u16(&mut self, word: u16) {
        self.sum += u64::from(word);
    }

    /// Adds a 32-bit value (used for IPv4 addresses in the pseudo-header).
    pub fn add_u32(&mut self, value: u32) {
        self.sum += u64::from(value);
    }

    /// Folds the carries and returns the one's-complement checksum.
    pub fn finish(self) -> u16 {
        let mut sum = self.sum;
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }
}

/// Computes the Internet checksum of a byte slice.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut cs = Checksum::new();
    cs.add_bytes(data);
    cs.finish()
}

/// Verifies a slice whose checksum field is already filled in: the folded sum
/// over the whole slice must be zero.
pub fn verify(data: &[u8]) -> bool {
    internet_checksum(data) == 0
}

/// Computes the TCP/UDP checksum: pseudo-header (src, dst, zero, protocol,
/// length) followed by the transport header and payload with the checksum
/// field zeroed by the caller.
pub fn transport_checksum(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, segment: &[u8]) -> u16 {
    let mut cs = Checksum::new();
    cs.add_u32(u32::from(src));
    cs.add_u32(u32::from(dst));
    cs.add_u16(u16::from(protocol));
    cs.add_u16(segment.len() as u16);
    cs.add_bytes(segment);
    let folded = cs.finish();
    // Per RFC 768 a computed UDP checksum of zero is transmitted as all-ones;
    // doing the same for TCP is harmless (0xffff and 0x0000 are equivalent in
    // one's-complement arithmetic).
    if folded == 0 {
        0xffff
    } else {
        folded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_worked_example() {
        // Example from RFC 1071 section 3: words 0x0001, 0xf203, 0xf4f5, 0xf6f7.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // One's-complement sum is 0xddf2, checksum is its complement 0x220d.
        assert_eq!(internet_checksum(&data), 0x220d);
    }

    #[test]
    fn odd_length_is_padded() {
        let even = internet_checksum(&[0x12, 0x34, 0x56, 0x00]);
        let odd = internet_checksum(&[0x12, 0x34, 0x56]);
        assert_eq!(even, odd);
    }

    #[test]
    fn verify_accepts_slice_containing_its_own_checksum() {
        let mut header = vec![
            0x45, 0x00, 0x00, 0x28, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06, 0x00, 0x00, 0xc0, 0xa8,
            0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        let cs = internet_checksum(&header);
        header[10..12].copy_from_slice(&cs.to_be_bytes());
        assert!(verify(&header));
        // Corrupt one byte and verification must fail.
        header[0] ^= 0xff;
        assert!(!verify(&header));
    }

    #[test]
    fn transport_checksum_verifies_round_trip() {
        let src = Ipv4Addr::new(192, 168, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        // A fake UDP segment with the checksum field (bytes 6..8) zeroed.
        let mut segment = vec![
            0x04, 0xd2, 0x00, 0x35, 0x00, 0x0c, 0x00, 0x00, b'h', b'i', b'!', b'!',
        ];
        let cs = transport_checksum(src, dst, 17, &segment);
        segment[6..8].copy_from_slice(&cs.to_be_bytes());
        // Re-running the checksum over the segment with the field filled in
        // must fold to zero (or the all-ones equivalent).
        let mut check = Checksum::new();
        check.add_u32(u32::from(src));
        check.add_u32(u32::from(dst));
        check.add_u16(17);
        check.add_u16(segment.len() as u16);
        check.add_bytes(&segment);
        assert_eq!(check.finish(), 0);
    }

    #[test]
    fn zero_checksum_is_mapped_to_all_ones() {
        // An empty segment between zero addresses with protocol 0 and length 0
        // sums to zero, which must be reported as 0xffff.
        let cs = transport_checksum(Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED, 0, &[]);
        assert_eq!(cs, 0xffff);
    }
}
