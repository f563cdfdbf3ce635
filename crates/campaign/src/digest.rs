//! Stable content digests and the cache-key derivation.
//!
//! Cache keys must be *stable* (the same logical run always digests to
//! the same value, across processes and machines), *complete* (every
//! input that can change simulated output is part of the key), and
//! *canonical* (irrelevant presentation details — field ordering,
//! host-side execution knobs like `--jobs` — cannot
//! move the key). [`KeyBuilder`] enforces canonical form by sorting
//! fields by name before hashing; [`run_key`] enumerates exactly the
//! inputs of [`mosaic_gpusim::run_workload`].

use mosaic_gpusim::RunConfig;
use mosaic_workloads::Workload;
use std::fmt;

/// 128-bit FNV-1a offset basis.
const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// 128-bit FNV-1a prime.
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// A 128-bit content digest, rendered as 32 lowercase hex characters.
///
/// FNV-1a is not cryptographic, but the store only needs accidental
/// collision resistance: at the 10^6-entry campaign scale the birthday
/// bound on 128 bits is astronomically safe, and every entry self-checks
/// its full key on load anyway.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(pub u128);

impl Digest {
    /// Parses the 32-hex-character rendering back into a digest.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Digest)
    }

    /// A shortened (12-character) prefix for human-facing reports.
    pub fn short(&self) -> String {
        format!("{self}")[..12].to_string()
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Incremental FNV-1a (128-bit) hasher.
#[derive(Debug, Clone)]
pub struct Hasher(u128);

impl Hasher {
    /// A hasher at the offset basis.
    pub fn new() -> Self {
        Hasher(FNV_OFFSET)
    }

    /// Feeds bytes into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Finalizes into a [`Digest`].
    pub fn finish(&self) -> Digest {
        Digest(self.0)
    }
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Canonical `name=value` key assembly.
///
/// Fields are sorted by name before hashing, so the digest is invariant
/// under the order fields are added in — the property that makes key
/// derivation robust against refactors that merely reorder the
/// derivation code.
///
/// # Examples
///
/// ```
/// use mosaic_campaign::digest::KeyBuilder;
///
/// let mut a = KeyBuilder::new();
/// a.field("seed", 42).field("manager", "Mosaic");
/// let mut b = KeyBuilder::new();
/// b.field("manager", "Mosaic").field("seed", 42);
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Debug, Default)]
pub struct KeyBuilder {
    pairs: Vec<(String, String)>,
}

impl KeyBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one `name=value` field.
    ///
    /// # Panics
    ///
    /// Panics if `name` was already added or contains `=`/newlines —
    /// both would let two distinct field sets collapse onto one
    /// canonical rendering.
    pub fn field(&mut self, name: &str, value: impl fmt::Display) -> &mut Self {
        assert!(
            !name.contains('=') && !name.contains('\n'),
            "field name {name:?} would break canonical form"
        );
        assert!(
            self.pairs.iter().all(|(n, _)| n != name),
            "duplicate key field {name:?} (the canonical form would silently keep both)"
        );
        self.pairs.push((name.to_string(), value.to_string()));
        self
    }

    /// Sorts the fields by name and hashes the canonical rendering.
    pub fn finish(&self) -> Digest {
        let mut pairs: Vec<&(String, String)> = self.pairs.iter().collect();
        pairs.sort();
        let mut h = Hasher::new();
        for (name, value) in pairs {
            h.write(name.as_bytes());
            h.write(b"=");
            h.write(value.as_bytes());
            h.write(b"\n");
        }
        h.finish()
    }
}

/// The cache key of one `(workload, config)` simulation run under the
/// given code digest.
///
/// Covers every input of [`mosaic_gpusim::run_workload`]: the workload
/// (name and application roster), every [`RunConfig`] field that can
/// influence simulated output (via the derived `Debug` renderings, which
/// print every field with exact shortest-round-trip floats), the entry
/// format version, and the workspace code digest. Deliberately excluded,
/// and pinned as excluded by `tests/key_stability.rs`:
///
/// * `audit_every` — runtime invariant audits are side-effect free;
///   audited and unaudited runs of the same config are bit-identical.
/// * `--jobs` — a host-side execution knob that never reaches
///   [`RunConfig`]; output is byte-identical at any setting.
pub fn run_key(workload: &Workload, cfg: &RunConfig, code: Digest) -> Digest {
    let apps: Vec<&str> = workload.apps.iter().map(|p| p.name).collect();
    let mut k = KeyBuilder::new();
    k.field("format", crate::store::ENTRY_VERSION)
        .field("code", code)
        .field("workload", &workload.name)
        .field("apps", apps.join(","))
        .field("manager", format!("{:?}", cfg.manager))
        .field("fleet", format!("{:?}", cfg.fleet))
        .field("system", format!("{:?}", cfg.system))
        .field("scale", format!("{:?}", cfg.scale))
        .field("paging", format!("{:?}", cfg.paging))
        .field("seed", cfg.seed)
        .field("fragmentation", format!("{:?}", cfg.fragmentation))
        .field("oversubscription", format!("{:?}", cfg.oversubscription));
    k.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Digest of a byte string.
    fn digest_of(bytes: &[u8]) -> Digest {
        let mut h = Hasher::new();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn digest_hex_round_trips() {
        let d = digest_of(b"mosaic");
        let hex = d.to_string();
        assert_eq!(hex.len(), 32);
        assert_eq!(Digest::from_hex(&hex), Some(d));
        assert_eq!(Digest::from_hex("xyz"), None);
        assert_eq!(Digest::from_hex(&hex[..31]), None);
        assert_eq!(d.short().len(), 12);
    }

    #[test]
    fn distinct_bytes_distinct_digests() {
        assert_ne!(digest_of(b"a"), digest_of(b"b"));
        assert_ne!(digest_of(b""), digest_of(b"\0"));
    }

    #[test]
    fn builder_is_order_invariant_but_value_sensitive() {
        let mut a = KeyBuilder::new();
        a.field("x", 1).field("y", 2);
        let mut b = KeyBuilder::new();
        b.field("y", 2).field("x", 1);
        assert_eq!(a.finish(), b.finish());
        let mut c = KeyBuilder::new();
        c.field("x", 1).field("y", 3);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    #[should_panic(expected = "duplicate key field")]
    fn builder_rejects_duplicate_fields() {
        let mut k = KeyBuilder::new();
        k.field("x", 1).field("x", 2);
    }

    #[test]
    #[should_panic(expected = "canonical form")]
    fn builder_rejects_separator_in_names() {
        let mut k = KeyBuilder::new();
        k.field("x=1", 2);
    }
}
