//! Typed errors for the simulation pipeline.
//!
//! Every failure a sweep can encounter is classified into one of four
//! domains, so the [`SweepRunner`](crate::experiments::SweepRunner) can
//! decide what to do with it (retry, record, skip) instead of
//! aborting a multi-hour run:
//!
//! * [`ConfigError`] — a [`SystemConfig`](crate::SystemConfig) that could
//!   never simulate correctly (zero cache sizes, non-power-of-two blocks,
//!   an empty TLB). Caught by [`SystemConfig::validate`](crate::SystemConfig::validate)
//!   before any simulation runs; never retried.
//! * Trace decode — a malformed or truncated trace record
//!   ([`rampage_trace::io::TraceIoError`]).
//! * [`InvariantError`] — a simulation invariant violated at run time
//!   (a `panic!`/`assert!` inside the engine), captured by the runner's
//!   per-cell isolation with a panic-site summary. Retried once, then
//!   recorded as a failed cell.
//! * [`CacheIoError`] — file I/O on the cell journal (`journal.jsonl`)
//!   or the derived `cells.json` failed. Damaged journal records are
//!   not errors: they are skipped and their cells recomputed.

use rampage_trace::io::TraceIoError;
use std::fmt;
use std::io;

/// Any error the simulation pipeline can surface.
#[derive(Debug)]
pub enum RampageError {
    /// Configuration validation failed (never retried).
    Config(ConfigError),
    /// Trace decode or trace I/O failed.
    Trace(TraceIoError),
    /// A simulation invariant was violated (a caught panic).
    Invariant(InvariantError),
    /// Cell-cache persistence failed.
    CacheIo(CacheIoError),
}

impl fmt::Display for RampageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RampageError::Config(e) => write!(f, "invalid configuration: {e}"),
            RampageError::Trace(e) => write!(f, "trace error: {e}"),
            RampageError::Invariant(e) => write!(f, "simulation invariant violated: {e}"),
            RampageError::CacheIo(e) => write!(f, "cell-cache error: {e}"),
        }
    }
}

impl std::error::Error for RampageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RampageError::Config(e) => Some(e),
            RampageError::Trace(e) => Some(e),
            RampageError::Invariant(_) => None,
            RampageError::CacheIo(e) => Some(e),
        }
    }
}

impl From<ConfigError> for RampageError {
    fn from(e: ConfigError) -> Self {
        RampageError::Config(e)
    }
}

impl From<TraceIoError> for RampageError {
    fn from(e: TraceIoError) -> Self {
        RampageError::Trace(e)
    }
}

impl From<InvariantError> for RampageError {
    fn from(e: InvariantError) -> Self {
        RampageError::Invariant(e)
    }
}

impl From<CacheIoError> for RampageError {
    fn from(e: CacheIoError) -> Self {
        RampageError::CacheIo(e)
    }
}

/// A [`SystemConfig`](crate::SystemConfig) that cannot be simulated.
///
/// Every variant's `Display` names the offending parameter, its value,
/// and what a valid value looks like, so a sweep author can fix the
/// config from the failure report alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A size parameter is zero.
    ZeroSize {
        /// Which parameter (e.g. "L1 cache size").
        what: &'static str,
    },
    /// A size parameter must be a power of two and is not.
    NotPowerOfTwo {
        /// Which parameter.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// A block size exceeds its cache's capacity.
    BlockExceedsCache {
        /// Which cache.
        what: &'static str,
        /// The block size.
        block: u64,
        /// The cache capacity.
        size: u64,
    },
    /// Associativity is zero or not a power of two.
    BadWays {
        /// Which cache.
        what: &'static str,
        /// The offending way count.
        ways: u32,
    },
    /// The TLB has zero entries (sets × ways == 0).
    EmptyTlb,
    /// The TLB set count is not a power of two (set indexing is a mask).
    TlbSetsNotPowerOfTwo {
        /// The offending set count.
        sets: usize,
    },
    /// A RAMpage page size outside the valid range (power of two ≥ 8).
    BadPageSize {
        /// The offending value.
        value: u64,
    },
    /// The scheduling quantum is zero references.
    ZeroQuantum,
    /// A time-based quantum of zero picoseconds.
    ZeroTimeQuantum,
    /// No DRAM channels configured.
    ZeroDramChannels,
    /// A zero-capacity victim cache or write buffer.
    ZeroCapacity {
        /// Which optional structure.
        what: &'static str,
    },
    /// The banked DRAM backend's geometry or timing is unusable.
    Dram(rampage_dram::DramConfigError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroSize { what } => {
                write!(f, "{what} is zero; use a power of two (e.g. 16384)")
            }
            ConfigError::NotPowerOfTwo { what, value } => write!(
                f,
                "{what} is {value}, which is not a power of two; \
                 the paper sweeps 128/256/512/1024/2048/4096"
            ),
            ConfigError::BlockExceedsCache { what, block, size } => write!(
                f,
                "{what} block size {block} exceeds its capacity {size}; \
                 shrink the block or grow the cache"
            ),
            ConfigError::BadWays { what, ways } => write!(
                f,
                "{what} associativity {ways} is invalid; \
                 use a non-zero power of two (1 = direct-mapped)"
            ),
            ConfigError::EmptyTlb => write!(
                f,
                "TLB has 0 entries; the paper's default is 64 \
                 (sets=1, ways=64 — fully associative)"
            ),
            ConfigError::TlbSetsNotPowerOfTwo { sets } => write!(
                f,
                "TLB set count {sets} is not a power of two; \
                 set indexing requires one (use 1 for fully associative)"
            ),
            ConfigError::BadPageSize { value } => write!(
                f,
                "RAMpage page size {value} is invalid; \
                 use a power of two of at least 8 bytes (paper: 128–4096)"
            ),
            ConfigError::ZeroQuantum => write!(
                f,
                "scheduling quantum is 0 references; the paper uses 500000"
            ),
            ConfigError::ZeroTimeQuantum => {
                write!(f, "time-based quantum is 0 ps; leave it None or set > 0")
            }
            ConfigError::ZeroDramChannels => {
                write!(f, "0 DRAM channels; the paper's configuration uses 1")
            }
            ConfigError::ZeroCapacity { what } => {
                write!(
                    f,
                    "{what} has 0 entries; omit it (None) or give it capacity"
                )
            }
            ConfigError::Dram(e) => write!(f, "banked DRAM backend: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A violated simulation invariant: the summary of a panic caught by the
/// runner's per-cell isolation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantError {
    /// The panic message.
    pub message: String,
    /// `file:line:column` of the panic site, when the panic hook saw it.
    pub location: String,
    /// A short backtrace summary (frames inside this workspace), possibly
    /// empty when capture was unavailable.
    pub backtrace: String,
}

impl fmt::Display for InvariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.location.is_empty() {
            write!(f, "{}", self.message)
        } else {
            write!(f, "{} (at {})", self.message, self.location)
        }
    }
}

impl std::error::Error for InvariantError {}

/// A failure reading or writing the cell journal, or writing
/// `cells.json`.
#[derive(Debug)]
pub enum CacheIoError {
    /// Underlying file I/O failed.
    Io(io::Error),
}

impl fmt::Display for CacheIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheIoError::Io(e) => write!(f, "i/o failure: {e}"),
        }
    }
}

impl std::error::Error for CacheIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheIoError::Io(e) => Some(e),
        }
    }
}

impl From<io::Error> for CacheIoError {
    fn from(e: io::Error) -> Self {
        CacheIoError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_errors_are_actionable() {
        let e = ConfigError::NotPowerOfTwo {
            what: "L2 block size",
            value: 3000,
        };
        let s = e.to_string();
        assert!(s.contains("3000"), "{s}");
        assert!(s.contains("power of two"), "{s}");
        assert!(s.contains("128"), "suggests valid values: {s}");

        let s = ConfigError::EmptyTlb.to_string();
        assert!(s.contains("64"), "names the paper default: {s}");

        let s = ConfigError::BlockExceedsCache {
            what: "L2",
            block: 8192,
            size: 4096,
        }
        .to_string();
        assert!(s.contains("8192") && s.contains("4096"), "{s}");
    }

    #[test]
    fn rampage_error_wraps_and_displays_domains() {
        let e = RampageError::from(ConfigError::ZeroQuantum);
        assert!(e.to_string().starts_with("invalid configuration"));
        assert!(matches!(e, RampageError::Config(_)));

        let e = RampageError::Invariant(InvariantError {
            message: "victim is mapped".into(),
            location: "rampage.rs:202:9".into(),
            backtrace: String::new(),
        });
        let s = e.to_string();
        assert!(
            s.contains("victim is mapped") && s.contains("rampage.rs:202:9"),
            "{s}"
        );

        let e = RampageError::from(CacheIoError::from(io::Error::new(
            io::ErrorKind::PermissionDenied,
            "journal.jsonl",
        )));
        let s = e.to_string();
        assert!(
            s.starts_with("cell-cache error: i/o failure") && s.contains("journal.jsonl"),
            "{s}"
        );
    }
}
