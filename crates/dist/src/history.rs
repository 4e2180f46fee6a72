//! Linearizability checking for the recorded client history.
//!
//! The fleet's correctness claim is end-to-end: whatever the fault plan
//! did to the messages, the history of client operations must be
//! *linearizable* — there must exist a total order of the operations,
//! consistent with real time (an operation that completed before another
//! was invoked comes first), in which every read returns the version of
//! the latest preceding write.
//!
//! Structure that keeps the search tractable:
//!
//! * Blocks are independent registers, so each block is checked alone.
//! * Each client is *blocking* (one outstanding reference), so a client's
//!   operations are already totally ordered; a linearization is an
//!   interleaving of per-client sequences, and the search state is just
//!   a prefix vector plus the current version.
//! * Store versions are globally unique (the driver's oracle issues
//!   them), so a read pins exactly which write precedes it.
//!
//! The found linearization is then replayed through the simulator's own
//! [`Oracle`] as an independent cross-check: the distributed service and
//! the shared-memory reference implementation must agree on what every
//! read was allowed to return.

use std::collections::{BTreeMap, HashSet};

use twobit_core::Oracle;
use twobit_types::{AccessKind, BlockAddr, CacheId, Version};

/// One completed client operation, as recorded by the driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// Issuing client (= its cache index).
    pub client: usize,
    /// Idempotency key the op was retried under.
    pub txn: u64,
    /// The block addressed.
    pub block: u64,
    /// Load or store.
    pub kind: AccessKind,
    /// Virtual time the request arrived at the client (open-loop
    /// schedules queue arrivals driver-side; `invoked - arrived` is the
    /// queueing delay). Equal to `invoked` under the closed loop.
    pub arrived: u64,
    /// Virtual time of the *first* issue (invocation). Linearizability
    /// is judged against this, not `arrived`: an op is concurrent with
    /// others only once it is actually in flight.
    pub invoked: u64,
    /// Virtual time the response was accepted (completion).
    pub completed: u64,
    /// Version observed (loads) or published (stores).
    pub version: u64,
    /// Whether the cache satisfied it without a directory transaction.
    pub was_hit: bool,
    /// Retries the client needed (0 = first send answered).
    pub retries: u64,
}

/// Outcome of a successful check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinearizationReport {
    /// Operations checked.
    pub ops: usize,
    /// Distinct blocks touched.
    pub blocks: usize,
    /// Search states visited across all blocks (effort indicator).
    pub states_visited: usize,
}

/// Verifies that `history` is linearizable and that the simulator's
/// oracle accepts the witness order.
///
/// # Errors
///
/// Describes the first block whose operations admit no valid
/// linearization, or (should the checker itself be wrong) an oracle
/// complaint about the witness.
pub fn check_history(history: &[OpRecord]) -> Result<LinearizationReport, String> {
    let mut per_block: BTreeMap<u64, Vec<&OpRecord>> = BTreeMap::new();
    for op in history {
        per_block.entry(op.block).or_default().push(op);
    }
    let mut states_visited = 0;
    for (block, ops) in &per_block {
        let witness = linearize_block(*block, ops, &mut states_visited)?;
        replay_through_oracle(*block, &witness)?;
    }
    Ok(LinearizationReport {
        ops: history.len(),
        blocks: per_block.len(),
        states_visited,
    })
}

/// Finds a linearization of one block's operations, or proves none
/// exists.
///
/// A depth-first search over `(prefix vector, current version)` states.
/// The search keeps *one* prefix vector and *one* path (the lane chosen
/// at each depth), rewound when it backtracks, so a stack frame is three
/// words and the whole search is linear in the history; the states
/// already expanded are remembered as packed integers where the prefix
/// vector fits one (see [`SeenKey`]).
fn linearize_block<'h>(
    block: u64,
    ops: &[&'h OpRecord],
    states_visited: &mut usize,
) -> Result<Vec<&'h OpRecord>, String> {
    // Per-client sequences, in invocation order (clients are blocking, so
    // invocation order == completion order within a client).
    let mut lanes: Vec<Vec<&OpRecord>> = Vec::new();
    {
        let mut by_client: BTreeMap<usize, Vec<&OpRecord>> = BTreeMap::new();
        for op in ops {
            by_client.entry(op.client).or_default().push(op);
        }
        for (_, mut lane) in by_client {
            lane.sort_by_key(|o| o.invoked);
            lanes.push(lane);
        }
    }
    // One bit field per lane, wide enough for its length.
    let widths: Vec<u32> = lanes
        .iter()
        .map(|lane| usize::BITS - lane.len().leading_zeros())
        .collect();
    let found = if widths.iter().sum::<u32>() <= u128::BITS {
        search::<u128>(&lanes, &widths, ops.len(), states_visited)
    } else {
        search::<Box<[usize]>>(&lanes, &widths, ops.len(), states_visited)
    };
    if let Some(path) = found {
        let mut next = vec![0usize; lanes.len()];
        return Ok(path
            .into_iter()
            .map(|c| {
                next[c] += 1;
                lanes[c][next[c] - 1]
            })
            .collect());
    }
    // Render the conflicting history so a failure is diagnosable from
    // the message alone.
    let mut dump: Vec<&OpRecord> = ops.to_vec();
    dump.sort_by_key(|o| o.invoked);
    let lines: Vec<String> = dump
        .iter()
        .map(|o| {
            format!(
                "  C{} {:?} v{} inv={} ret={} txn={}",
                o.client, o.kind, o.version, o.invoked, o.completed, o.txn
            )
        })
        .collect();
    Err(format!(
        "block {block}: no linearization exists for {} operations:\n{}",
        ops.len(),
        lines.join("\n")
    ))
}

/// How an expanded state's prefix vector is remembered: one bit field
/// per lane in a `u128` where they fit (every fleet this repository
/// runs: four lanes of 2^32 operations, sixteen of 255), the vector
/// itself where they do not.
trait SeenKey: std::hash::Hash + Eq {
    fn pack(prefix: &[usize], widths: &[u32]) -> Self;
}

impl SeenKey for u128 {
    fn pack(prefix: &[usize], widths: &[u32]) -> u128 {
        prefix
            .iter()
            .zip(widths)
            .fold(0, |key, (&i, &w)| key << w | i as u128)
    }
}

impl SeenKey for Box<[usize]> {
    fn pack(prefix: &[usize], _: &[u32]) -> Box<[usize]> {
        prefix.into()
    }
}

/// The search proper: the lane taken at each depth of a complete
/// linearization, or `None` when there is none.
fn search<K: SeenKey>(
    lanes: &[Vec<&OpRecord>],
    widths: &[u32],
    total: usize,
    states_visited: &mut usize,
) -> Option<Vec<usize>> {
    /// "Take `lane`'s next op as the `depth`-th of the linearization,
    /// leaving the block at `version`."
    struct Frame {
        lane: usize,
        depth: usize,
        version: u64,
    }
    let mut seen: HashSet<(K, u64)> = HashSet::new();
    let mut prefix = vec![0usize; lanes.len()];
    let mut path: Vec<usize> = Vec::with_capacity(total);
    let mut current = Version::initial().raw();
    // The root takes nothing; every other frame extends the state that
    // is `depth - 1` deep on the path when it is popped, because frames
    // are pushed by their parent and popped before its earlier siblings.
    let mut stack: Vec<Frame> = Vec::new();
    let mut frame = None;
    loop {
        if let Some(Frame {
            lane,
            depth,
            version,
        }) = frame
        {
            for undone in path.drain(depth - 1..) {
                prefix[undone] -= 1;
            }
            prefix[lane] += 1;
            path.push(lane);
            current = version;
        }
        if path.len() == total {
            return Some(path);
        }
        if seen.insert((K::pack(&prefix, widths), current)) {
            *states_visited += 1;
            // Real-time rule: the next linearized op must have been
            // invoked no later than the earliest completion among
            // remaining ops — otherwise some other op finished entirely
            // before it began.
            let min_ret = lanes
                .iter()
                .zip(&prefix)
                .filter_map(|(lane, &i)| lane.get(i).map(|o| o.completed))
                .min()
                .unwrap_or(u64::MAX);
            for (c, lane) in lanes.iter().enumerate() {
                let Some(op) = lane.get(prefix[c]) else {
                    continue;
                };
                if op.invoked > min_ret {
                    continue;
                }
                let version = match op.kind {
                    AccessKind::Read => {
                        if op.version != current {
                            continue; // would observe the wrong version
                        }
                        current
                    }
                    AccessKind::Write => op.version,
                };
                stack.push(Frame {
                    lane: c,
                    depth: path.len() + 1,
                    version,
                });
            }
        }
        frame = Some(stack.pop()?);
    }
}

/// Replays a witness order through a fresh [`Oracle`].
fn replay_through_oracle(block: u64, witness: &[&OpRecord]) -> Result<(), String> {
    let a = BlockAddr::new(block);
    let mut oracle = Oracle::new();
    for op in witness {
        match op.kind {
            AccessKind::Write => oracle.record_write(a, Version::new(op.version)),
            AccessKind::Read => oracle
                .check_read(CacheId::new(op.client), a, Version::new(op.version))
                .map_err(|e| format!("oracle rejects witness: {e}"))?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(client: usize, kind: AccessKind, invoked: u64, completed: u64, version: u64) -> OpRecord {
        OpRecord {
            client,
            txn: invoked, // unique enough for tests
            block: 0,
            kind,
            arrived: invoked,
            invoked,
            completed,
            version,
            was_hit: false,
            retries: 0,
        }
    }

    #[test]
    fn sequential_history_is_linearizable() {
        let h = vec![
            op(0, AccessKind::Write, 0, 10, 1),
            op(1, AccessKind::Read, 20, 30, 1),
            op(0, AccessKind::Write, 40, 50, 2),
            op(1, AccessKind::Read, 60, 70, 2),
        ];
        let r = check_history(&h).unwrap();
        assert_eq!(r.ops, 4);
        assert_eq!(r.blocks, 1);
    }

    #[test]
    fn concurrent_read_may_see_old_or_new() {
        // Write (10..50) concurrent with a read (20..30): the read may
        // see either the initial version or the new one.
        for observed in [Version::initial().raw(), 9] {
            let h = vec![
                op(0, AccessKind::Write, 10, 50, 9),
                op(1, AccessKind::Read, 20, 30, observed),
            ];
            check_history(&h).unwrap();
        }
    }

    #[test]
    fn stale_read_after_write_completed_is_rejected() {
        // The write completed (t=10) strictly before the read began
        // (t=20): the read may not observe the initial version.
        let h = vec![
            op(0, AccessKind::Write, 0, 10, 9),
            op(1, AccessKind::Read, 20, 30, Version::initial().raw()),
        ];
        // The whole message: the conflicting history, in invocation order.
        assert_eq!(
            check_history(&h).unwrap_err(),
            "block 0: no linearization exists for 2 operations:\n  \
             C0 Write v9 inv=0 ret=10 txn=0\n  \
             C1 Read v0 inv=20 ret=30 txn=20"
        );
    }

    #[test]
    fn read_of_never_written_version_is_rejected() {
        let h = vec![op(1, AccessKind::Read, 0, 5, 77)];
        assert!(check_history(&h).is_err());
    }

    #[test]
    fn real_time_order_between_clients_is_enforced() {
        // c0 writes v1 then v2 (both complete); c1's later read must not
        // return v1.
        let h = vec![
            op(0, AccessKind::Write, 0, 10, 1),
            op(0, AccessKind::Write, 20, 30, 2),
            op(1, AccessKind::Read, 40, 50, 1),
        ];
        assert!(check_history(&h).is_err());
    }

    #[test]
    fn wide_histories_take_the_same_search_with_the_unpacked_key() {
        // Forty clients take turns in overlapping pairs on one block: in
        // slot `s` client `s % 40` stores version `s + 1` while its
        // neighbour loads, alternately the old and the new value.
        let slots = |n: u64| -> Vec<OpRecord> {
            (0..n)
                .flat_map(|s| {
                    let (w, r) = ((s % 40) as usize, ((s + 1) % 40) as usize);
                    [
                        op(w, AccessKind::Write, s * 20, s * 20 + 10, s + 1),
                        op(r, AccessKind::Read, s * 20 + 1, s * 20 + 9, s + s % 2),
                    ]
                })
                .collect()
        };
        // Six operations a lane is 40 × 3 bits: the packed key holds it,
        // and both keys remember the same states, so both searches are one
        // search.
        let h = slots(120);
        let refs: Vec<&OpRecord> = h.iter().collect();
        let lanes: Vec<Vec<&OpRecord>> = (0..40)
            .map(|c| refs.iter().copied().filter(|o| o.client == c).collect())
            .collect();
        assert!(lanes.iter().all(|lane| lane.len() == 6));
        let widths = vec![3; 40];
        let (mut packed, mut unpacked) = (0, 0);
        let a = search::<u128>(&lanes, &widths, h.len(), &mut packed).unwrap();
        let b = search::<Box<[usize]>>(&lanes, &widths, h.len(), &mut unpacked).unwrap();
        assert_eq!((a, packed), (b, unpacked));
        assert_eq!(check_history(&h).unwrap().states_visited, packed);

        // Sixteen a lane is 200 bits: only the unpacked key holds it.
        let mut h = slots(320);
        let wide = check_history(&h).unwrap();
        assert_eq!((wide.ops, wide.blocks), (640, 1));
        assert!(wide.states_visited > packed);
        // And a wide history that is not linearizable is still refused.
        h.push(op(0, AccessKind::Read, 7000, 7010, 99));
        assert!(check_history(&h)
            .unwrap_err()
            .starts_with("block 0: no linearization exists for 641 operations:\n"));
    }

    #[test]
    fn blocks_are_independent_registers() {
        let mut h = vec![
            op(0, AccessKind::Write, 0, 10, 1),
            op(1, AccessKind::Read, 20, 30, 1),
        ];
        h.push(OpRecord {
            block: 7,
            ..op(1, AccessKind::Write, 5, 15, 2)
        });
        let r = check_history(&h).unwrap();
        assert_eq!(r.blocks, 2);
    }
}
