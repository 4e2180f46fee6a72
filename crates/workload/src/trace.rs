//! A compact binary trace format, so experiment inputs are replayable
//! artifacts rather than re-derived streams.
//!
//! Layout: an 8-byte magic/version header, then one 12-byte record per
//! reference: `cpu: u16`, `flags: u16` (bit 0 = write), `block: u64`,
//! all little-endian. A trace is a plain `Vec<u8>`; [`Trace::decode`]
//! checks the header and that the payload is whole records before it
//! reads one, so no input makes it panic.

use twobit_types::{BlockAddr, CacheId, ConfigError, MemRef, WordAddr};

const MAGIC: u64 = 0x5457_4f42_4954_0001; // "TWOBIT" + version 1
const RECORD: usize = 12;

/// One traced reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Issuing CPU.
    pub cpu: CacheId,
    /// The reference.
    pub op: MemRef,
}

/// An in-memory trace, encodable to/from the binary format.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends one reference.
    pub fn push(&mut self, cpu: CacheId, op: MemRef) {
        self.entries.push(TraceEntry { cpu, op });
    }

    /// The recorded entries.
    #[must_use]
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of references.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no references are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries as `(cpu, op)` pairs (the executor-facing shape).
    pub fn iter(&self) -> impl Iterator<Item = (CacheId, MemRef)> + '_ {
        self.entries.iter().map(|e| (e.cpu, e.op))
    }

    /// Encodes to the binary format.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8 + RECORD * self.entries.len());
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        for e in &self.entries {
            buf.extend_from_slice(&(e.cpu.index() as u16).to_le_bytes());
            buf.extend_from_slice(&u16::from(e.op.kind.is_write()).to_le_bytes());
            buf.extend_from_slice(&e.op.addr.block.number().to_le_bytes());
        }
        buf
    }

    /// Decodes from the binary format.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for a bad magic number or truncated data.
    pub fn decode(data: &[u8]) -> Result<Self, ConfigError> {
        let Some((magic, records)) = data.split_first_chunk::<8>() else {
            return Err(ConfigError::new("trace shorter than its header"));
        };
        if u64::from_le_bytes(*magic) != MAGIC {
            return Err(ConfigError::new("not a twobit trace (bad magic)"));
        }
        if !records.len().is_multiple_of(RECORD) {
            return Err(ConfigError::new("trace payload is not whole records"));
        }
        let entries = records
            .chunks_exact(RECORD)
            .map(|r| {
                let cpu = u16::from_le_bytes([r[0], r[1]]);
                let flags = u16::from_le_bytes([r[2], r[3]]);
                let block = u64::from_le_bytes(r[4..].try_into().expect("a 12-byte record"));
                let addr = WordAddr {
                    block: BlockAddr::new(block),
                    offset: 0,
                };
                TraceEntry {
                    cpu: CacheId::new(usize::from(cpu)),
                    op: if flags & 1 == 1 {
                        MemRef::write(addr)
                    } else {
                        MemRef::read(addr)
                    },
                }
            })
            .collect();
        Ok(Trace { entries })
    }

    /// Records `n` references per CPU from `workload`, round-robin — the
    /// canonical way experiments materialize their inputs.
    #[must_use]
    pub fn record<W: crate::Workload + ?Sized>(
        workload: &mut W,
        cpus: usize,
        refs_per_cpu: usize,
    ) -> Self {
        let mut trace = Trace::new();
        for _ in 0..refs_per_cpu {
            for k in CacheId::all(cpus) {
                trace.push(k, workload.next_ref(k));
            }
        }
        trace
    }
}

impl FromIterator<TraceEntry> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceEntry>>(iter: I) -> Self {
        Trace {
            entries: iter.into_iter().collect(),
        }
    }
}

impl Extend<TraceEntry> for Trace {
    fn extend<I: IntoIterator<Item = TraceEntry>>(&mut self, iter: I) {
        self.entries.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceEntry;
    type IntoIter = std::slice::Iter<'a, TraceEntry>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SharingModel, SharingParams};

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.push(CacheId::new(0), MemRef::read(WordAddr::new(5, 0)));
        t.push(CacheId::new(3), MemRef::write(WordAddr::new(1 << 40, 0)));
        t
    }

    #[test]
    fn encode_decode_roundtrip() {
        let t = sample();
        let decoded = Trace::decode(&t.encode()).unwrap();
        assert_eq!(t, decoded);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Trace::decode(b"short").is_err());
        assert!(Trace::decode(&0xdead_beef_u64.to_le_bytes()).is_err());
        let mut truncated = MAGIC.to_le_bytes().to_vec();
        truncated.push(1);
        assert!(Trace::decode(&truncated).is_err());
    }

    #[test]
    fn record_interleaves_round_robin() {
        let mut w = SharingModel::new(SharingParams::moderate(), 3, 9).unwrap();
        let t = Trace::record(&mut w, 3, 5);
        assert_eq!(t.len(), 15);
        let cpus: Vec<usize> = t.entries().iter().map(|e| e.cpu.index()).collect();
        assert_eq!(&cpus[..6], &[0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn iter_yields_executor_pairs() {
        let t = sample();
        let pairs: Vec<_> = t.iter().collect();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].0, CacheId::new(0));
    }

    #[test]
    fn collects_from_iterator() {
        let t: Trace = sample().entries().to_vec().into_iter().collect();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }
}
