//! System-wide invariant checking at quiescence.
//!
//! Three families of invariants (DESIGN.md section 4):
//!
//! 1. **SWMR** — at most one cache holds a block dirty, and a dirty copy
//!    excludes all other valid copies;
//! 2. **Directory soundness** — each directory's
//!    [`check_consistency`](crate::Directory::check_consistency)
//!    accepts the ground truth (conservative for two-bit, exact for the
//!    full maps);
//! 3. **Single residence** — a block appears at most once per cache
//!    (enforced by the tag store, re-verified here).

use crate::agent::CacheAgent;
use crate::controller::Controller;
use crate::local::LocalState;
use crate::owner_set::OwnerSet;
use std::collections::HashMap;
use twobit_types::{AddressMap, BlockAddr, ProtocolError};

/// Ground truth about one block gathered from all caches.
#[derive(Debug, Clone)]
pub struct BlockTruth {
    /// Caches holding a clean (Shared or Exclusive) copy.
    pub clean: OwnerSet,
    /// Caches holding a dirty copy.
    pub dirty: OwnerSet,
}

/// Gathers the ground truth for every block resident in any cache.
#[must_use]
pub fn gather_truth(agents: &[CacheAgent]) -> HashMap<BlockAddr, BlockTruth> {
    let n = agents.len();
    let mut truth: HashMap<BlockAddr, BlockTruth> = HashMap::new();
    for agent in agents {
        for line in agent.cache().valid_lines() {
            let entry = truth.entry(line.addr).or_insert_with(|| BlockTruth {
                clean: OwnerSet::new(n),
                dirty: OwnerSet::new(n),
            });
            match line.state {
                LocalState::Dirty => {
                    entry.dirty.insert(agent.id());
                }
                LocalState::Shared | LocalState::Exclusive => {
                    entry.clean.insert(agent.id());
                }
                LocalState::Invalid => unreachable!("valid_lines yields valid lines"),
            }
        }
    }
    truth
}

/// Checks SWMR and directory soundness for the whole system.
///
/// Must be called at quiescence (no in-flight messages); mid-transaction
/// the directories legitimately disagree with the caches.
///
/// # Errors
///
/// Returns the first violation found as a [`ProtocolError`].
pub fn check_system(
    agents: &[CacheAgent],
    controllers: &[Controller],
    map: AddressMap,
) -> Result<(), ProtocolError> {
    let truth = gather_truth(agents);

    for (&a, t) in &truth {
        // SWMR.
        if t.dirty.len() > 1 {
            let mut it = t.dirty.iter();
            let first = it.next().expect("len > 1");
            let second = it.next().expect("len > 1");
            return Err(ProtocolError::DuplicateOwner { a, first, second });
        }
        if t.dirty.len() == 1 && !t.clean.is_empty() {
            return Err(ProtocolError::DirectoryInconsistent {
                a,
                detail: format!(
                    "dirty at {} but clean copies at {}",
                    t.dirty.sole_member().expect("len == 1"),
                    t.clean
                ),
            });
        }
    }

    // Directory soundness — including blocks the caches have entirely
    // dropped (the directory must still admit the empty holder set where
    // it claims Absent/Present1 exactness... conservative states may
    // overclaim, each protocol decides).
    for controller in controllers {
        // Every block this module is responsible for that is cached
        // anywhere, plus everything it has written, is checked.
        let empty = BlockTruth {
            clean: OwnerSet::new(agents.len()),
            dirty: OwnerSet::new(agents.len()),
        };
        let mut checked: Vec<BlockAddr> = Vec::new();
        for (&a, t) in &truth {
            if map.module_of(a) == controller.module() {
                controller
                    .protocol()
                    .check_consistency(a, &t.clean, &t.dirty)
                    .map_err(|detail| ProtocolError::DirectoryInconsistent { a, detail })?;
                checked.push(a);
            }
        }
        for (a, _) in controller.memory().written_blocks() {
            if checked.contains(&a) {
                continue;
            }
            controller
                .protocol()
                .check_consistency(a, &empty.clean, &empty.dirty)
                .map_err(|detail| ProtocolError::DirectoryInconsistent { a, detail })?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::AgentPolicy;
    use crate::controller::Observer;
    use crate::directory::Directory;
    use twobit_types::{
        CacheId, CacheOrg, ControllerConcurrency, MemRef, ModuleId, Version, WordAddr,
    };

    fn agent(id: usize) -> CacheAgent {
        CacheAgent::new(
            CacheId::new(id),
            CacheOrg::new(4, 2, 4).unwrap(),
            AgentPolicy::WriteBack {
                use_exclusive: false,
            },
            false,
        )
    }

    /// Fills `op`'s block via the network path — the miss, then its
    /// grant — to keep the agent consistent.
    fn fill(agent: &mut CacheAgent, op: MemRef, exclusive: bool) {
        let mut sends = Vec::new();
        agent.start(op, Version::new(1), &mut sends);
        let grant = twobit_types::MemoryToCache::GetData {
            k: agent.id(),
            a: op.addr.block,
            version: Version::initial(),
            exclusive,
        };
        agent.on_network(grant, &mut sends).unwrap();
    }

    fn controller() -> Controller {
        Controller::new(
            ModuleId::new(0),
            AddressMap::interleaved(1),
            Directory::new(crate::two_bit::program(), 2, 0),
            2,
            ControllerConcurrency::PerBlock,
        )
    }

    #[test]
    fn truth_gathers_states_by_kind() {
        let mut a0 = agent(0);
        let mut a1 = agent(1);
        // Fill via the network path to keep agents consistent.
        fill(&mut a0, MemRef::read(WordAddr::new(1, 0)), false);
        fill(&mut a1, MemRef::write(WordAddr::new(2, 0)), true);
        let truth = gather_truth(&[a0, a1]);
        assert!(truth[&BlockAddr::new(1)].clean.contains(CacheId::new(0)));
        assert!(truth[&BlockAddr::new(2)].dirty.contains(CacheId::new(1)));
    }

    #[test]
    fn clean_system_passes() {
        let agents = vec![agent(0), agent(1)];
        let controllers = vec![controller()];
        check_system(&agents, &controllers, AddressMap::interleaved(1)).unwrap();
    }

    #[test]
    fn directory_overclaim_is_caught() {
        // Directory says Present1 on a block, but two caches hold it.
        let mut c = controller();
        // Make the directory believe only C0 read block 1.
        let read = twobit_types::CacheToMemory::Request {
            k: CacheId::new(0),
            a: BlockAddr::new(1),
            rw: twobit_types::AccessKind::Read,
        };
        c.submit(read, Observer::none(), &mut Vec::new()).unwrap();
        // But fabricate copies in both caches (fault injection).
        let mut a0 = agent(0);
        let mut a1 = agent(1);
        for agent in [&mut a0, &mut a1] {
            fill(agent, MemRef::read(WordAddr::new(1, 0)), false);
        }
        let err = check_system(&[a0, a1], &[c], AddressMap::interleaved(1)).unwrap_err();
        assert!(matches!(err, ProtocolError::DirectoryInconsistent { .. }));
    }

    #[test]
    fn duplicate_dirty_owners_are_caught() {
        let mut a0 = agent(0);
        let mut a1 = agent(1);
        for agent in [&mut a0, &mut a1] {
            fill(agent, MemRef::write(WordAddr::new(3, 0)), true);
        }
        let controllers = vec![controller()];
        let err = check_system(&[a0, a1], &controllers, AddressMap::interleaved(1)).unwrap_err();
        assert!(matches!(err, ProtocolError::DuplicateOwner { .. }));
    }
}
