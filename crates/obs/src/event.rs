//! The structured trace record and its JSONL wire form.
//!
//! Every observable protocol step becomes one [`SimEvent`]. Its
//! [`ToJson`] statement lists the members in a fixed, hand-chosen order,
//! and [`SimEvent::to_jsonl`] is that statement written as stated — the
//! trace bytes are older than the canonical sorted-key form and frozen
//! as golden digests in `crates/sim/tests/determinism.rs`. The statement
//! is generic over the command text: a `SimEvent<fmt::Arguments>` is a
//! line whose `cmd` is formatted straight into the writer that holds it
//! ([`SimEvent::with`]), with no `String` in between.
//! [`SimEvent::from_jsonl`] reads a line back through a
//! [`crate::json::Reader`]. The two are exact inverses.

use crate::json::{FromJson, Reader, Sink, Text, ToJson, Value};
use std::fmt;
use twobit_types::{BlockAddr, CacheId, CommandClass, GlobalState, LineState, ModuleId, TxnId};

/// The locus of control an event happened at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActorId {
    /// A processor–cache pair `C_k`.
    Cache(CacheId),
    /// A memory-controller module `K_j`.
    Module(ModuleId),
    /// The interconnection network itself (occupancy / fan-out events).
    Network,
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActorId::Cache(k) => k.fmt(f),
            ActorId::Module(m) => m.fmt(f),
            ActorId::Network => f.write_str("NET"),
        }
    }
}

impl ActorId {
    /// Parses the display form (`C3`, `M0`, `NET`).
    #[must_use]
    pub fn parse(s: &str) -> Option<ActorId> {
        if s == "NET" {
            return Some(ActorId::Network);
        }
        let (tag, num) = s.split_at_checked(1)?;
        // Ids are 16 bits wide; `CacheId::new` panics beyond that.
        let idx = usize::from(num.parse::<u16>().ok()?);
        match tag {
            "C" => Some(ActorId::Cache(CacheId::new(idx))),
            "M" => Some(ActorId::Module(ModuleId::new(idx))),
            _ => None,
        }
    }

    /// A sort key grouping caches first (by index), then modules, then the
    /// network — the lane order of the timeline renderer.
    #[must_use]
    pub fn lane_order(self) -> (u8, usize) {
        match self {
            ActorId::Cache(k) => (0, k.index()),
            ActorId::Module(m) => (1, m.index()),
            ActorId::Network => (2, 0),
        }
    }
}

/// A before→after state transition carried by an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateChange<S> {
    /// State before the step.
    pub from: S,
    /// State after the step.
    pub to: S,
}

impl<S> StateChange<S> {
    /// Builds a change record.
    pub fn new(from: S, to: S) -> Self {
        StateChange { from, to }
    }
}

/// One observable protocol step. `C` is the command text: owned by
/// default, any `Display` value (a `format_args!`) for a line that is
/// written and dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct SimEvent<C = String> {
    /// Simulated cycle the step happened at.
    pub t: u64,
    /// Where it happened.
    pub actor: ActorId,
    /// The block concerned.
    pub block: BlockAddr,
    /// Human-readable command text (Table 3-1 spelling, e.g.
    /// `REQUEST(C0, blk:0x10, read)` or `deliver BROADINV(...)`).
    pub cmd: C,
    /// The command's class, when the step is a protocol command.
    pub class: Option<CommandClass>,
    /// Directory (global) state transition, when the step changed one.
    pub global: Option<StateChange<GlobalState>>,
    /// Cache-line (local) state transition, when the step changed one.
    pub local: Option<StateChange<LineState>>,
    /// The controller transaction this step belongs to, when known.
    pub txn: Option<TxnId>,
    /// Whether the step was *useless* in the paper's sense: a delivered
    /// coherence command that found no copy of the block.
    pub useless: bool,
}

impl SimEvent {
    /// A minimal event; optional fields start empty.
    #[must_use]
    pub fn new(t: u64, actor: ActorId, block: BlockAddr, cmd: impl Into<String>) -> Self {
        SimEvent::with(t, actor, block, cmd.into())
    }

    /// Encodes as one JSON object (no trailing newline), members in the
    /// order the [`ToJson`] statement lists them.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        Text::new().write(self).to_owned()
    }

    /// Decodes one JSON object produced by [`to_jsonl`](Self::to_jsonl).
    /// Returns `None` on malformed input. Integers at or above 2^53 are
    /// rejected, as they always were on the wire and in checkpoints (no
    /// emitter produces them).
    #[must_use]
    pub fn from_jsonl(line: &str) -> Option<SimEvent> {
        Reader::default().read(line).ok()
    }
}

impl<C> SimEvent<C> {
    /// A minimal event whose command text is `cmd` as it is; optional
    /// fields start empty.
    #[must_use]
    pub fn with(t: u64, actor: ActorId, block: BlockAddr, cmd: C) -> Self {
        SimEvent {
            t,
            actor,
            block,
            cmd,
            class: None,
            global: None,
            local: None,
            txn: None,
            useless: false,
        }
    }

    /// Sets the command class (builder style).
    #[must_use]
    pub fn class(mut self, class: CommandClass) -> Self {
        self.class = Some(class);
        self
    }

    /// Sets the global-state transition (builder style).
    #[must_use]
    pub fn global(mut self, from: GlobalState, to: GlobalState) -> Self {
        self.global = Some(StateChange::new(from, to));
        self
    }

    /// Sets the local-state transition (builder style).
    #[must_use]
    pub fn local(mut self, from: LineState, to: LineState) -> Self {
        self.local = Some(StateChange::new(from, to));
        self
    }

    /// Sets the transaction id (builder style).
    #[must_use]
    pub fn txn(mut self, txn: TxnId) -> Self {
        self.txn = Some(txn);
        self
    }

    /// Marks the event useless (builder style).
    #[must_use]
    pub fn useless(mut self, useless: bool) -> Self {
        self.useless = useless;
        self
    }
}

/// `{t, actor, block, cmd, class?, global?, local?, txn?, useless}`: an
/// optional member is left out, not `null`, and names are display forms.
impl<C: fmt::Display> ToJson for SimEvent<C> {
    fn emit<S: Sink>(&self, out: &mut S) {
        out.object(|o| {
            o.member("t", &self.t);
            o.key("actor");
            o.display(self.actor);
            o.member("block", &self.block);
            o.key("cmd");
            o.display(&self.cmd);
            if let Some(c) = self.class {
                o.key("class");
                o.display(c);
            }
            if let Some(g) = self.global {
                o.key("global");
                o.display(format_args!("{}>{}", g.from, g.to));
            }
            if let Some(l) = self.local {
                o.key("local");
                o.display(format_args!("{}>{}", l.from, l.to));
            }
            if let Some(txn) = self.txn {
                o.member("txn", &txn);
            }
            o.member("useless", &self.useless);
        });
    }
}

/// The object [`SimEvent::to_jsonl`] writes; absent optional members are
/// `None`.
impl FromJson for SimEvent {
    fn decode<'a, V: Value<'a>>(j: V) -> Result<SimEvent, String> {
        let named = |key: &str| j.opt_field::<String>(key);
        Ok(SimEvent {
            t: j.field("t")?,
            actor: ActorId::parse(&j.req_str("actor")?).ok_or("bad actor")?,
            block: j.field("block")?,
            cmd: j.field("cmd")?,
            class: named("class")?
                .map(|s| by_name(&CommandClass::ALL, &s))
                .transpose()?,
            global: named("global")?
                .map(|s| change(&GlobalState::ALL, &s))
                .transpose()?,
            local: named("local")?
                .map(|s| {
                    change(
                        &[LineState::Invalid, LineState::Clean, LineState::Dirty],
                        &s,
                    )
                })
                .transpose()?,
            txn: j.opt_field("txn")?,
            useless: j.field("useless")?,
        })
    }
}

/// The member of `all` whose display form is `s`.
fn by_name<T: fmt::Display + Copy>(all: &[T], s: &str) -> Result<T, String> {
    all.iter()
        .copied()
        .find(|v| v.to_string() == s)
        .ok_or_else(|| format!("unknown name {s:?}"))
}

/// Parses a `from>to` transition over the display forms of `all`.
fn change<T: fmt::Display + Copy>(all: &[T], s: &str) -> Result<StateChange<T>, String> {
    let (from, to) = s.split_once('>').ok_or("transition without `>`")?;
    Ok(StateChange::new(by_name(all, from)?, by_name(all, to)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actor_parse_roundtrip() {
        for a in [
            ActorId::Cache(CacheId::new(7)),
            ActorId::Module(ModuleId::new(2)),
            ActorId::Network,
        ] {
            assert_eq!(ActorId::parse(&a.to_string()), Some(a));
        }
        assert_eq!(ActorId::parse("X9"), None);
        assert_eq!(ActorId::parse(""), None);
    }

    #[test]
    fn jsonl_roundtrip_minimal() {
        let ev = SimEvent::new(0, ActorId::Network, BlockAddr::new(0), "noop");
        assert_eq!(SimEvent::from_jsonl(&ev.to_jsonl()), Some(ev));
    }

    #[test]
    fn jsonl_roundtrip_full() {
        let ev = SimEvent::new(
            1234,
            ActorId::Module(ModuleId::new(1)),
            BlockAddr::new(0x40),
            "MREQUEST(C3, blk:0x40, v7) \"quoted\\slash\"",
        )
        .class(CommandClass::MRequest)
        .global(GlobalState::PresentStar, GlobalState::PresentM)
        .local(LineState::Clean, LineState::Dirty)
        .txn(TxnId::new(99))
        .useless(true);
        let line = ev.to_jsonl();
        assert_eq!(SimEvent::from_jsonl(&line), Some(ev));
    }

    /// A line whose command is formatted straight into the writer is the
    /// line of the owned event.
    #[test]
    fn a_formatted_command_writes_the_owned_events_line() {
        let (k, block) = (ActorId::Cache(CacheId::new(3)), BlockAddr::new(9));
        let cmd = "GET(C3, \"blk\"\n)";
        let owned = SimEvent::new(7, k, block, format!("deliver {cmd}")).txn(TxnId::new(2));
        let mut text = Text::new();
        let line = text
            .write(&SimEvent::with(7, k, block, format_args!("deliver {cmd}")).txn(TxnId::new(2)));
        assert_eq!(line, owned.to_jsonl());
    }

    #[test]
    fn jsonl_rejects_garbage() {
        assert_eq!(SimEvent::from_jsonl(""), None);
        assert_eq!(SimEvent::from_jsonl("{}"), None);
        assert_eq!(SimEvent::from_jsonl("{\"t\":1}"), None);
        assert_eq!(SimEvent::from_jsonl("not json at all"), None);
    }

    #[test]
    fn present_star_survives_roundtrip() {
        // "Present*" contains a non-identifier character; make sure the
        // name-based encoding handles it.
        let ev = SimEvent::new(5, ActorId::Cache(CacheId::new(0)), BlockAddr::new(1), "x")
            .global(GlobalState::Present1, GlobalState::PresentStar);
        assert_eq!(SimEvent::from_jsonl(&ev.to_jsonl()), Some(ev));
    }
}
