//! Checkpoint text forms for the functional core.
//!
//! Every piece of controller and agent state that a distributed node must
//! survive a crash/restart with is written and read through
//! [`twobit_obs::json`]'s `ToJson`/`FromJson` pair. The command set and
//! the values it carries have theirs in `twobit-obs` (shared with the
//! `twobit-dist` wire format); this module adds the pairs for the core's
//! own types and the tag-store snapshot (a `twobit-cache` type, so a
//! plain function pair). The directory writes and reads its own one
//! document ([`Directory::save_state`](crate::Directory::save_state)).
//!
//! Layout conventions:
//!
//! * Enums become objects with a `"t"` tag naming the variant, fields
//!   inline; fieldless enums become plain strings.
//! * Maps become arrays of entry objects in the container's iteration
//!   order. `BlockMap` iterates in ascending block order, so those arrays
//!   are canonical; the `HashMap`-backed translation buffer is sorted by
//!   block number before emission so that a checkpoint of a given state
//!   is byte-identical no matter which process wrote it.
//!
//! Decoding validates shape, range-checks every number and rejects
//! unknown tags with a `String` error, never panicking on malformed
//! input — a checkpoint arrives over a process boundary and is untrusted.

use crate::local::LocalState;
use crate::memory::MemoryImage;
use crate::owner_set::OwnerSet;
use twobit_cache::{CacheSnapshot, SlotSnapshot};
use twobit_obs::json::{obj, FromJson, Json, Sink, ToJson, Value};
use twobit_obs::json_enum;
use twobit_types::CacheId;

json_enum!(LocalState { Invalid => "I", Shared => "S", Exclusive => "E", Dirty => "D" });

/// `[width, member...]`.
impl ToJson for OwnerSet {
    fn emit<S: Sink>(&self, out: &mut S) {
        out.array(|a| {
            self.capacity().emit(a);
            self.iter().for_each(|k| k.emit(a));
        });
    }
}

impl FromJson for OwnerSet {
    fn decode<'a, V: Value<'a>>(j: V) -> Result<Self, String> {
        let mut items = j.items()?;
        let width = items.next().ok_or("empty owner set encoding")?;
        // Cache ids are 16 bits wide, which also bounds the allocation.
        let mut s = OwnerSet::new(usize::from(u16::decode(width)?));
        for m in items {
            let k = CacheId::decode(m)?;
            if k.index() >= s.capacity() {
                return Err(format!("owner {k} exceeds set width {}", s.capacity()));
            }
            s.insert(k);
        }
        Ok(s)
    }
}

/// `[[block, version], ...]` in ascending block order.
impl ToJson for MemoryImage {
    fn emit<S: Sink>(&self, out: &mut S) {
        out.array(|entries| {
            for (a, v) in self.written_blocks() {
                entries.array(|pair| {
                    a.emit(pair);
                    v.emit(pair);
                });
            }
        });
    }
}

impl FromJson for MemoryImage {
    fn decode<'a, V: Value<'a>>(j: V) -> Result<Self, String> {
        let mut m = MemoryImage::new();
        for entry in j.items()? {
            let mut pair = entry.items()?;
            let (Some(a), Some(v), None) = (pair.next(), pair.next(), pair.next()) else {
                return Err("memory entry is not a pair".into());
            };
            m.write(FromJson::decode(a)?, FromJson::decode(v)?);
        }
        Ok(m)
    }
}

/// Encodes an exact tag-store snapshot (`Cache<LocalState>`).
#[must_use]
pub fn cache_snapshot_json(snap: &CacheSnapshot<LocalState>) -> Json {
    obj([
        ("clock", snap.clock.json()),
        ("probes", snap.probes.json()),
        // Replacement RNG states are full-entropy 64-bit words — beyond
        // the exact-integer range of a JSON number — so they travel as
        // hex strings.
        (
            "rngs",
            snap.rngs
                .iter()
                .map(|r| Json::Str(format!("{r:016x}")))
                .collect(),
        ),
        (
            "lines",
            snap.lines
                .iter()
                .map(|l| {
                    obj([
                        ("slot", l.slot.json()),
                        ("a", l.addr.json()),
                        ("s", l.state.json()),
                        ("v", l.version.json()),
                        ("use", l.last_use.json()),
                        ("ins", l.inserted.json()),
                    ])
                })
                .collect(),
        ),
    ])
}

/// Decodes an exact tag-store snapshot.
pub fn cache_snapshot_from(j: &Json) -> Result<CacheSnapshot<LocalState>, String> {
    let rngs = j
        .field::<Vec<String>>("rngs")?
        .iter()
        .map(|s| u64::from_str_radix(s, 16).map_err(|e| format!("bad rng `{s}`: {e}")))
        .collect::<Result<_, _>>()?;
    let lines = j
        .array("lines")?
        .map(|l| {
            Ok(SlotSnapshot {
                slot: l.field("slot")?,
                addr: l.field("a")?,
                state: l.field("s")?,
                version: l.field("v")?,
                last_use: l.field("use")?,
                inserted: l.field("ins")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(CacheSnapshot {
        clock: j.field("clock")?,
        probes: j.field("probes")?,
        rngs,
        lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use twobit_obs::json::{num_u64, parse};
    use twobit_types::{
        AccessKind, BlockAddr, CacheStats, CacheToMemory, ControllerStats, Counter, MemoryToCache,
        Version, WritebackKind,
    };

    fn roundtrip<T: ToJson + FromJson + PartialEq + std::fmt::Debug>(value: T) {
        let parsed = parse(&value.json().to_json()).unwrap();
        assert_eq!(T::from_json(&parsed).unwrap(), value);
    }

    #[test]
    fn command_codecs_roundtrip_every_variant() {
        let k = CacheId::new(3);
        let a = BlockAddr::new(0x2a);
        let v = Version::new(7);
        roundtrip(CacheToMemory::Request {
            k,
            a,
            rw: AccessKind::Write,
        });
        roundtrip(CacheToMemory::MRequest { k, a, version: v });
        roundtrip(CacheToMemory::Eject {
            k,
            olda: a,
            wb: WritebackKind::Dirty,
        });
        roundtrip(CacheToMemory::PutData {
            from: k,
            a,
            version: v,
        });
        roundtrip(CacheToMemory::WriteThrough { k, a, version: v });
        roundtrip(CacheToMemory::DirectRead { k, a });
        roundtrip(MemoryToCache::GetData {
            k,
            a,
            version: v,
            exclusive: true,
        });
        roundtrip(MemoryToCache::BroadInv { a, exclude: k });
        roundtrip(MemoryToCache::BroadQuery {
            a,
            rw: AccessKind::Read,
        });
        roundtrip(MemoryToCache::MGranted {
            k,
            a,
            granted: false,
        });
        roundtrip(MemoryToCache::Inv { a, to: k });
        roundtrip(MemoryToCache::Purge {
            a,
            to: k,
            rw: AccessKind::Write,
        });
    }

    #[test]
    fn owner_set_roundtrips_and_validates() {
        let mut s = OwnerSet::new(70);
        s.insert(CacheId::new(0));
        s.insert(CacheId::new(65));
        let back = OwnerSet::from_json(&s.json()).unwrap();
        assert_eq!(back, s);
        // A member beyond the recorded width is rejected, not a panic.
        let bad = Json::Arr(vec![num_u64(2), num_u64(5)]);
        assert!(OwnerSet::from_json(&bad).is_err());
    }

    #[test]
    fn memory_image_roundtrips() {
        let mut m = MemoryImage::new();
        m.write(BlockAddr::new(4), Version::new(9));
        m.write(BlockAddr::new(1), Version::new(2));
        let back = MemoryImage::from_json(&m.json()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn stats_roundtrip() {
        let mut s = CacheStats::default();
        s.reads.add(10);
        s.write_misses.add(3);
        assert_eq!(CacheStats::from_json(&s.json()).unwrap(), s);
        let mut c = ControllerStats::default();
        c.requests.add(5);
        c.queue_peak = Counter::from(4);
        assert_eq!(ControllerStats::from_json(&c.json()).unwrap(), c);
    }
}
