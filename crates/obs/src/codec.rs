//! The JSON forms of the `twobit-types` wire types — the Table 3-1
//! command set, the values it carries, and the statistics blocks —
//! shared by checkpoints and the distributed service's frames, so the two
//! cannot drift apart.
//!
//! Conventions: addresses, versions and ids are numbers; fieldless enums
//! are strings; commands are objects with a `"t"` tag naming the variant
//! and the fields inline. Every object is stated in sorted-key order, the
//! order its text has.

use crate::json::{FromJson, Sink, ToJson, Value};
use crate::{json_enum, json_struct};
use twobit_types::{
    AccessKind, BlockAddr, CacheId, CacheStats, CacheToMemory, ControllerStats, Counter, MemRef,
    MemoryToCache, TxnId, Version, WordAddr, WritebackKind,
};

/// A newtype over one number: `$get` reads it out, `$new` wraps the
/// range-checked `$raw` back in.
macro_rules! number_codec {
    ($($ty:ident: $raw:ty, $get:ident, $new:expr;)*) => {$(
        impl ToJson for $ty {
            fn emit<S: Sink>(&self, out: &mut S) {
                self.$get().emit(out);
            }
        }

        impl FromJson for $ty {
            fn decode<'a, V: Value<'a>>(j: V) -> Result<Self, String> {
                <$raw>::decode(j).map($new)
            }
        }
    )*};
}

number_codec! {
    BlockAddr: u64, number, BlockAddr::new;
    Version: u64, raw, Version::new;
    TxnId: u64, raw, TxnId::new;
    Counter: u64, get, Counter::from;
    // `CacheId::new` panics above 16 bits, so 16 bits is what is decoded.
    CacheId: u16, index, |i| CacheId::new(usize::from(i));
}

json_enum!(AccessKind { Read => "read", Write => "write" });
json_enum!(WritebackKind { Clean => "clean", Dirty => "dirty" });

/// `{a, d, rw}`.
impl ToJson for MemRef {
    fn emit<S: Sink>(&self, out: &mut S) {
        out.object(|o| {
            o.member("a", &self.addr.block);
            o.member("d", &self.addr.offset);
            o.member("rw", &self.kind);
        });
    }
}

impl FromJson for MemRef {
    fn decode<'a, V: Value<'a>>(j: V) -> Result<Self, String> {
        Ok(MemRef {
            addr: WordAddr {
                block: j.field("a")?,
                offset: j.field("d")?,
            },
            kind: j.field("rw")?,
        })
    }
}

impl ToJson for CacheToMemory {
    fn emit<S: Sink>(&self, out: &mut S) {
        let (t, k, a) = match *self {
            CacheToMemory::Request { k, a, .. } => ("REQUEST", k, a),
            CacheToMemory::MRequest { k, a, .. } => ("MREQUEST", k, a),
            CacheToMemory::Eject { k, olda, .. } => ("EJECT", k, olda),
            CacheToMemory::PutData { from, a, .. } => ("PUT", from, a),
            CacheToMemory::WriteThrough { k, a, .. } => ("WRITETHRU", k, a),
            CacheToMemory::DirectRead { k, a } => ("DIRECTREAD", k, a),
        };
        out.object(|o| {
            o.member("a", &a);
            o.member("k", &k);
            match self {
                CacheToMemory::Request { rw, .. } => {
                    o.member("rw", rw);
                    o.member("t", t);
                }
                CacheToMemory::Eject { wb, .. } => {
                    o.member("t", t);
                    o.member("wb", wb);
                }
                CacheToMemory::MRequest { version, .. }
                | CacheToMemory::PutData { version, .. }
                | CacheToMemory::WriteThrough { version, .. } => {
                    o.member("t", t);
                    o.member("v", version);
                }
                CacheToMemory::DirectRead { .. } => o.member("t", t),
            }
        });
    }
}

impl FromJson for CacheToMemory {
    fn decode<'a, V: Value<'a>>(j: V) -> Result<Self, String> {
        let (k, a) = (j.field("k")?, j.field("a")?);
        Ok(match &*j.req_str("t")? {
            "REQUEST" => CacheToMemory::Request {
                k,
                a,
                rw: j.field("rw")?,
            },
            "MREQUEST" => CacheToMemory::MRequest {
                k,
                a,
                version: j.field("v")?,
            },
            "EJECT" => CacheToMemory::Eject {
                k,
                olda: a,
                wb: j.field("wb")?,
            },
            "PUT" => CacheToMemory::PutData {
                from: k,
                a,
                version: j.field("v")?,
            },
            "WRITETHRU" => CacheToMemory::WriteThrough {
                k,
                a,
                version: j.field("v")?,
            },
            "DIRECTREAD" => CacheToMemory::DirectRead { k, a },
            other => return Err(format!("bad cache-to-memory tag {other:?}")),
        })
    }
}

impl ToJson for MemoryToCache {
    fn emit<S: Sink>(&self, out: &mut S) {
        out.object(|o| match self {
            MemoryToCache::GetData {
                k,
                a,
                version,
                exclusive,
            } => {
                o.member("a", a);
                o.member("k", k);
                o.member("t", "GET");
                o.member("v", version);
                o.member("x", exclusive);
            }
            MemoryToCache::BroadInv { a, exclude } => {
                o.member("a", a);
                o.member("k", exclude);
                o.member("t", "BROADINV");
            }
            MemoryToCache::BroadQuery { a, rw } => {
                o.member("a", a);
                o.member("rw", rw);
                o.member("t", "BROADQUERY");
            }
            MemoryToCache::MGranted { k, a, granted } => {
                o.member("a", a);
                o.member("k", k);
                o.member("t", "MGRANTED");
                o.member("y", granted);
            }
            MemoryToCache::Inv { a, to } => {
                o.member("a", a);
                o.member("k", to);
                o.member("t", "INV");
            }
            MemoryToCache::Purge { a, to, rw } => {
                o.member("a", a);
                o.member("k", to);
                o.member("rw", rw);
                o.member("t", "PURGE");
            }
        });
    }
}

impl FromJson for MemoryToCache {
    fn decode<'a, V: Value<'a>>(j: V) -> Result<Self, String> {
        let a = j.field("a")?;
        Ok(match &*j.req_str("t")? {
            "GET" => MemoryToCache::GetData {
                k: j.field("k")?,
                a,
                version: j.field("v")?,
                exclusive: j.field("x")?,
            },
            "BROADINV" => MemoryToCache::BroadInv {
                a,
                exclude: j.field("k")?,
            },
            "BROADQUERY" => MemoryToCache::BroadQuery {
                a,
                rw: j.field("rw")?,
            },
            "MGRANTED" => MemoryToCache::MGranted {
                k: j.field("k")?,
                a,
                granted: j.field("y")?,
            },
            "INV" => MemoryToCache::Inv {
                a,
                to: j.field("k")?,
            },
            "PURGE" => MemoryToCache::Purge {
                a,
                to: j.field("k")?,
                rw: j.field("rw")?,
            },
            other => return Err(format!("bad memory-to-cache tag {other:?}")),
        })
    }
}

json_struct!(CacheStats {
    reads,
    writes,
    read_hits,
    write_hits_dirty,
    write_hits_clean,
    read_misses,
    write_misses,
    evictions_clean,
    evictions_dirty,
    commands_received,
    useless_commands,
    effective_commands,
    stolen_cycles,
    blocks_supplied,
    invalidated_lines,
    bias_filtered,
    tag_probes,
});

json_struct!(ControllerStats {
    requests,
    mrequests,
    ejects,
    broadcasts_sent,
    unicasts_sent,
    deliveries,
    memory_reads,
    memory_writes,
    tlb_hits,
    tlb_misses,
    conflicts_queued,
    queue_peak,
});
