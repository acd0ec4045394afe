//! Replacement policies for set-associative caches.

use std::fmt;

/// Which block of a set to evict on a miss.
///
/// The paper's baseline L2 is direct-mapped (policy irrelevant); its 2-way
/// "more realistic" L2 uses random replacement (§4.7); the TLB in
/// `rampage-vm` also uses random replacement (§4.3). LRU and FIFO are
/// provided for ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used way.
    Lru,
    /// Evict a uniformly random way (paper's choice for 2-way L2 and TLB).
    Random,
    /// Evict the way filled longest ago.
    Fifo,
}

impl fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReplacementPolicy::Lru => "LRU",
            ReplacementPolicy::Random => "random",
            ReplacementPolicy::Fifo => "FIFO",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(ReplacementPolicy::Lru.to_string(), "LRU");
        assert_eq!(ReplacementPolicy::Random.to_string(), "random");
        assert_eq!(ReplacementPolicy::Fifo.to_string(), "FIFO");
    }
}
