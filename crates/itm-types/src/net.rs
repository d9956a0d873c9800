//! IPv4 addresses and prefixes.
//!
//! The substrate allocates address space and reasons about prefixes at /24
//! granularity (the finest granularity the paper's Table 1 asks for:
//! "Desired: /24 Prefix"). We use our own compact `u32`-backed types rather
//! than `std::net::Ipv4Addr` because we need prefix arithmetic (containment,
//! supernet/subnet enumeration, /24 iteration) that std does not provide,
//! and because a bare `u32` keeps multi-million-prefix tables cache-friendly.

use crate::error::{ItmError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// An IPv4 address, stored as a host-order `u32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Ipv4Addr(pub u32);

impl Ipv4Addr {
    /// Build an address from dotted-quad octets.
    #[inline]
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// The four octets, most-significant first.
    #[inline]
    pub const fn octets(self) -> [u8; 4] {
        [
            (self.0 >> 24) as u8,
            (self.0 >> 16) as u8,
            (self.0 >> 8) as u8,
            self.0 as u8,
        ]
    }

    /// The /24 network containing this address.
    #[inline]
    pub const fn slash24(self) -> Ipv4Net {
        Ipv4Net {
            base: self.0 & 0xFFFF_FF00,
            len: 24,
        }
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl FromStr for Ipv4Addr {
    type Err = ItmError;

    fn from_str(s: &str) -> Result<Self> {
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for slot in &mut octets {
            let part = parts.next().ok_or_else(|| ItmError::parse("Ipv4Addr", s))?;
            *slot = part
                .parse::<u8>()
                .map_err(|_| ItmError::parse("Ipv4Addr", s))?;
            // Reject forms like "01.2.3.4" that u8::parse accepts but
            // operational tooling treats as ambiguous (octal heritage).
            if part.len() > 1 && part.starts_with('0') {
                return Err(ItmError::parse("Ipv4Addr", s));
            }
        }
        if parts.next().is_some() {
            return Err(ItmError::parse("Ipv4Addr", s));
        }
        let [a, b, c, d] = octets;
        Ok(Ipv4Addr::new(a, b, c, d))
    }
}

/// An IPv4 network: a base address plus a prefix length.
///
/// Invariant: all host bits below `len` are zero in `base`. Constructors
/// enforce this, so two equal networks always compare equal bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Ipv4Net {
    base: u32,
    len: u8,
}

impl Ipv4Net {
    /// Construct a network, masking off host bits.
    ///
    /// Returns an error if `len > 32`.
    pub fn new(addr: Ipv4Addr, len: u8) -> Result<Self> {
        if len > 32 {
            return Err(ItmError::config("prefix_len", "must be <= 32"));
        }
        Ok(Ipv4Net {
            base: addr.0 & Self::mask(len),
            len,
        })
    }

    /// The netmask for a given prefix length.
    #[inline]
    pub const fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// The network (lowest) address.
    #[inline]
    pub const fn network(self) -> Ipv4Addr {
        Ipv4Addr(self.base)
    }

    /// The prefix length.
    #[inline]
    #[allow(clippy::len_without_is_empty)] // prefix length, not a container
    pub const fn len(self) -> u8 {
        self.len
    }

    /// Number of addresses covered (saturating at `u32::MAX` for /0).
    #[inline]
    pub const fn size(self) -> u32 {
        if self.len == 0 {
            u32::MAX
        } else {
            1u32 << (32 - self.len)
        }
    }

    /// Whether `addr` falls inside this network.
    #[inline]
    pub const fn contains(self, addr: Ipv4Addr) -> bool {
        addr.0 & Self::mask(self.len) == self.base
    }

    /// Whether `other` is fully contained in (or equal to) this network.
    #[inline]
    pub const fn covers(self, other: Ipv4Net) -> bool {
        self.len <= other.len && (other.base & Self::mask(self.len)) == self.base
    }

    /// The immediate supernet (one bit shorter), or `None` at /0.
    pub fn supernet(self) -> Option<Ipv4Net> {
        if self.len == 0 {
            None
        } else {
            let len = self.len - 1;
            Some(Ipv4Net {
                base: self.base & Self::mask(len),
                len,
            })
        }
    }

    /// The `i`-th address inside the network (wrapping within the block),
    /// useful for assigning deterministic host addresses.
    #[inline]
    pub const fn addr(self, i: u32) -> Ipv4Addr {
        Ipv4Addr(self.base | (i & !Self::mask(self.len)))
    }

    /// Iterate the /24 subnets of this network. A /24 or longer yields its
    /// own covering /24 exactly once.
    pub fn slash24s(self) -> impl Iterator<Item = Ipv4Net> {
        let (start, count) = if self.len >= 24 {
            (self.base & 0xFFFF_FF00, 1u64)
        } else {
            (self.base, 1u64 << (24 - self.len))
        };
        (0..count).map(move |i| Ipv4Net {
            base: start + ((i as u32) << 8),
            len: 24,
        })
    }

    /// Split into the two halves one bit longer, or `None` at /32.
    pub fn split(self) -> Option<(Ipv4Net, Ipv4Net)> {
        if self.len >= 32 {
            return None;
        }
        let len = self.len + 1;
        let hi_bit = 1u32 << (32 - len);
        Some((
            Ipv4Net {
                base: self.base,
                len,
            },
            Ipv4Net {
                base: self.base | hi_bit,
                len,
            },
        ))
    }
}

impl fmt::Display for Ipv4Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl FromStr for Ipv4Net {
    type Err = ItmError;

    fn from_str(s: &str) -> Result<Self> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| ItmError::parse("Ipv4Net", s))?;
        let addr: Ipv4Addr = addr.parse().map_err(|_| ItmError::parse("Ipv4Net", s))?;
        let len: u8 = len.parse().map_err(|_| ItmError::parse("Ipv4Net", s))?;
        Ipv4Net::new(addr, len).map_err(|_| ItmError::parse("Ipv4Net", s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(s: &str) -> Ipv4Net {
        s.parse().unwrap()
    }

    #[test]
    fn addr_display_and_parse_round_trip() {
        for s in ["0.0.0.0", "10.0.0.1", "192.168.255.254", "255.255.255.255"] {
            let a: Ipv4Addr = s.parse().unwrap();
            assert_eq!(a.to_string(), s);
        }
    }

    #[test]
    fn addr_parse_rejects_garbage() {
        for s in [
            "",
            "1.2.3",
            "1.2.3.4.5",
            "256.0.0.1",
            "a.b.c.d",
            "01.2.3.4",
            "1..2.3",
        ] {
            assert!(s.parse::<Ipv4Addr>().is_err(), "{s} should not parse");
        }
    }

    #[test]
    fn net_parse_masks_host_bits() {
        let n = net("10.1.2.3/24");
        assert_eq!(n.to_string(), "10.1.2.0/24");
        assert_eq!(n.len(), 24);
        assert_eq!(n.size(), 256);
    }

    #[test]
    fn net_parse_rejects_bad_lengths() {
        assert!("10.0.0.0/33".parse::<Ipv4Net>().is_err());
        assert!("10.0.0.0".parse::<Ipv4Net>().is_err());
        assert!("10.0.0.0/x".parse::<Ipv4Net>().is_err());
    }

    #[test]
    fn containment() {
        let n = net("10.1.0.0/16");
        assert!(n.contains("10.1.255.255".parse().unwrap()));
        assert!(!n.contains("10.2.0.0".parse().unwrap()));
        assert!(n.covers(net("10.1.2.0/24")));
        assert!(n.covers(n));
        assert!(!n.covers(net("10.0.0.0/8")));
        assert!(net("0.0.0.0/0").covers(n));
    }

    #[test]
    fn slash24_enumeration() {
        let n = net("10.1.0.0/22");
        let subs: Vec<_> = n.slash24s().collect();
        assert_eq!(subs.len(), 4);
        assert_eq!(subs[0].to_string(), "10.1.0.0/24");
        assert_eq!(subs[3].to_string(), "10.1.3.0/24");
        // A /24 yields itself; a /28 yields its covering /24.
        assert_eq!(net("10.9.9.0/24").slash24s().count(), 1);
        let covering: Vec<_> = net("10.9.9.16/28").slash24s().collect();
        assert_eq!(covering, vec![net("10.9.9.0/24")]);
    }

    #[test]
    fn split_and_supernet_are_inverse() {
        let n = net("172.16.0.0/12");
        let (lo, hi) = n.split().unwrap();
        assert_eq!(lo.supernet().unwrap(), n);
        assert_eq!(hi.supernet().unwrap(), n);
        assert!(n.covers(lo) && n.covers(hi));
        assert_ne!(lo, hi);
        assert!(net("1.2.3.4/32").split().is_none());
        assert!(net("0.0.0.0/0").supernet().is_none());
    }

    #[test]
    fn indexed_addr_stays_in_block() {
        let n = net("192.0.2.0/24");
        assert_eq!(n.addr(0).to_string(), "192.0.2.0");
        assert_eq!(n.addr(255).to_string(), "192.0.2.255");
        // wraps within the block rather than escaping it
        assert_eq!(n.addr(256), n.addr(0));
        assert!(n.contains(n.addr(1234)));
    }

    #[test]
    fn slash24_of_addr() {
        let a: Ipv4Addr = "198.51.100.77".parse().unwrap();
        assert_eq!(a.slash24().to_string(), "198.51.100.0/24");
    }

    #[test]
    fn default_route_properties() {
        let d = net("0.0.0.0/0");
        assert_eq!(d.len(), 0);
        assert_eq!(d.size(), u32::MAX);
        assert!(d.contains("203.0.113.9".parse().unwrap()));
    }
}
