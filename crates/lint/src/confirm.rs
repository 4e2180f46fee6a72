//! Dynamic confirmation of flow-graph liveness findings.
//!
//! The flow analyses ([`crate::flow_graph`]) are static: they flag a
//! (state, message) arrival that *could* livelock if the implicated
//! race window is reachable. This module asks the model checker whether
//! it is, with the stop-at-target form of its breadth-first search
//! ([`ModelChecker::explore_until`]): the first state that holds the
//! window ends the search, along a shortest path to it.
//!
//! The barrier-livelock window (the PR 9 class) is a **channel
//! co-occupancy**: one module→cache channel holding a completion
//! (grant-class) message with a recall-class message queued behind it.
//! Under the shipped gate discipline the completion is withheld until
//! the invalidations are acknowledged and the recall is withheld behind
//! it; under the pre-fix discipline the recall passes the completion
//! and lands at a cache that is still `awaiting-grant` and owes no
//! data. Reaching the co-occupancy dynamically proves the static
//! finding describes a real execution window — the search's action path
//! is replayed into a `twobit-obs` timeline as evidence. Budget
//! exhaustion downgrades the verdict to `PLAUSIBLE`.

use twobit_core::{FlightMsg, ModelChecker, Node, State};
use twobit_obs::RingTracer;
use twobit_types::{MemRef, ProtocolKind, SystemConfig, WordAddr};

/// Verdict string for a finding whose implicated window the model
/// checker reached.
pub const CONFIRMED: &str = "CONFIRMED";
/// Verdict string for a finding whose window was not reached within
/// the search budget.
pub const PLAUSIBLE: &str = "PLAUSIBLE";

/// The outcome of a dynamic confirmation run.
#[derive(Debug, Clone)]
pub struct Confirmation {
    /// [`CONFIRMED`] or [`PLAUSIBLE`].
    pub verdict: &'static str,
    /// The replayable evidence: how the search went and, when
    /// confirmed, the per-block observation timeline of the action path
    /// that reaches the implicated window.
    pub evidence: String,
}

/// Whether any module→cache channel in `state` holds a grant-class
/// completion with a recall-class message queued behind it — the
/// window the inv-ack gate's withholding discipline exists to order.
fn grant_recall_window(mc: &ModelChecker, state: &State) -> bool {
    mc.probe_channels(state).iter().any(|((src, dst), queue)| {
        matches!(src, Node::Module(_))
            && matches!(dst, Node::Cache(_))
            && queue.iter().enumerate().any(|(i, m)| {
                matches!(m, FlightMsg::Grant { .. } | FlightMsg::UpgradeAck)
                    && queue[i + 1..]
                        .iter()
                        .any(|n| matches!(n, FlightMsg::Recall))
            })
    })
}

/// Confirms the barrier-livelock finding class for the two-bit scheme:
/// a write miss that invalidates a sharer puts the exclusive grant in
/// flight; a follow-up read miss from the invalidated cache recalls the
/// new owner while the grant is still queued. The search targets the
/// grant-before-recall co-occupancy.
#[must_use]
pub fn confirm_barrier_livelock(node_budget: u64, jobs: usize) -> Confirmation {
    let rd = |b: u64| MemRef::read(WordAddr::new(b, 0));
    let wr = |b: u64| MemRef::write(WordAddr::new(b, 0));
    let config = SystemConfig::with_defaults(2).with_protocol(ProtocolKind::TwoBit);
    // c1 reads (becoming a sharer the write must invalidate), c0's
    // write then carries the gate, and c1's second read — a miss once
    // its copy is invalidated — recalls the freshly granted owner.
    let script = vec![vec![wr(1)], vec![rd(1), rd(1)]];
    let mc = match ModelChecker::new(config, script) {
        Ok(mc) => mc,
        Err(e) => {
            return Confirmation {
                verdict: PLAUSIBLE,
                evidence: format!("model checker rejected the confirmation scenario: {e}"),
            }
        }
    };
    let search = match mc.explore_until(node_budget, jobs, &grant_recall_window) {
        Ok(search) => search,
        Err(cex) => {
            return Confirmation {
                verdict: PLAUSIBLE,
                evidence: format!(
                    "the search met a protocol violation before the implicated window: {}",
                    cex.error
                ),
            }
        }
    };
    match search.hit {
        Some(path) => {
            let mut ring = RingTracer::new(path.len().max(1));
            let replay = mc.replay_traced(&path, &mut ring);
            let events: Vec<_> = ring.events().into_iter().cloned().collect();
            let mut evidence = format!(
                "breadth-first search reached the implicated window after {} state(s): a \
                 module→cache channel holds a grant-class completion with a recall \
                 queued behind it; without the gate's withholding the recall would \
                 overtake the grant and land at a cache still awaiting its fill.\n",
                search.states_visited
            );
            let mut blocks = Vec::new();
            for e in &events {
                if !blocks.contains(&e.block) {
                    blocks.push(e.block);
                }
            }
            for block in blocks {
                evidence.push_str(&twobit_obs::render_block_timeline(&events, block));
            }
            if let Err(e) = replay {
                evidence.push_str(&format!("replay error: {e}\n"));
            }
            Confirmation {
                verdict: CONFIRMED,
                evidence,
            }
        }
        None => Confirmation {
            verdict: PLAUSIBLE,
            evidence: format!(
                "the search did not reach the implicated window within {} of {} \
                 budgeted state(s){}",
                search.states_visited,
                node_budget,
                if search.truncated {
                    " (budget exhausted with states still pending)"
                } else {
                    " (state space exhausted — the window is unreachable in this scenario)"
                }
            ),
        },
    }
}

/// Attaches a confirmation to every finding of the barrier-livelock
/// class (the flow-unserviced overtake findings and the wait cycle),
/// sharing one search across them.
pub fn confirm_livelock_findings(findings: &mut [crate::Finding], node_budget: u64, jobs: usize) {
    let implicated = |f: &crate::Finding| {
        (f.analysis == "flow-unserviced" && f.message.contains("overtake"))
            || f.analysis == "flow-wait-cycle"
    };
    if !findings.iter().any(&implicated) {
        return;
    }
    let conf = confirm_barrier_livelock(node_budget, jobs);
    for f in findings.iter_mut().filter(|f| implicated(f)) {
        f.verdict = Some(conf.verdict);
        f.evidence = Some(conf.evidence.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_grant_recall_window_is_reachable_and_confirmed() {
        let conf = confirm_barrier_livelock(500_000, 2);
        assert_eq!(conf.verdict, CONFIRMED, "{}", conf.evidence);
        assert!(conf.evidence.contains("breadth-first search reached"));
    }

    #[test]
    fn a_starved_budget_degrades_to_plausible() {
        let conf = confirm_barrier_livelock(1, 1);
        assert_eq!(conf.verdict, PLAUSIBLE);
    }
}
