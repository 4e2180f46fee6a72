//! Failure injection: feed the components impossible protocol events and
//! fabricated inconsistent states, and verify the error paths and
//! invariant checkers actually fire. A checker that cannot detect a
//! planted fault proves nothing when it stays quiet on real runs.

use twobit_core::transitions::{ActionKind, CompileError, EventKind, Program};
use twobit_core::{
    build_protocol_for, invariants, AgentPolicy, CacheAgent, Controller, Directory,
    FunctionalSystem, NetOutcome, Observer, DEFAULT_STATIC_SHARED_FROM,
};
use twobit_types::GlobalState;
use twobit_types::{
    AccessKind, AddressMap, BlockAddr, CacheId, CacheOrg, CacheToMemory, ControllerConcurrency,
    MemRef, MemoryToCache, ModuleId, ProtocolError, ProtocolKind, SystemConfig, Version, WordAddr,
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

// These tests look at what a component accepts and how it is left, never
// at what it sends: each call gets a send buffer of its own to drop.

fn start(a: &mut CacheAgent, op: MemRef, store_version: Version) {
    a.start(op, store_version, &mut Vec::new());
}

fn deliver(a: &mut CacheAgent, msg: MemoryToCache) -> Result<NetOutcome, ProtocolError> {
    a.on_network(msg, &mut Vec::new())
}

fn submit(c: &mut Controller, cmd: CacheToMemory) -> Result<(), ProtocolError> {
    c.submit(cmd, Observer::none(), &mut Vec::new())
}

fn controller() -> Controller {
    Controller::new(
        ModuleId::new(0),
        AddressMap::interleaved(1),
        build_protocol_for(&SystemConfig::with_defaults(2).with_protocol(ProtocolKind::TwoBit)),
        2,
        ControllerConcurrency::PerBlock,
    )
}

fn blk(n: u64) -> BlockAddr {
    BlockAddr::new(n)
}

fn cid(n: usize) -> CacheId {
    CacheId::new(n)
}

#[test]
fn unsolicited_data_grant_is_rejected() {
    let mut a = agent(0);
    let err = deliver(
        &mut a,
        MemoryToCache::GetData {
            k: cid(0),
            a: blk(1),
            version: Version::new(1),
            exclusive: false,
        },
    )
    .unwrap_err();
    assert!(matches!(err, ProtocolError::UnexpectedCommand { .. }));
}

#[test]
fn grant_for_wrong_block_is_rejected() {
    let mut a = agent(0);
    start(
        &mut a,
        MemRef::read(WordAddr::new(1, 0)),
        Version::initial(),
    );
    let err = deliver(
        &mut a,
        MemoryToCache::GetData {
            k: cid(0),
            a: blk(99), // not the block we asked for
            version: Version::new(1),
            exclusive: false,
        },
    )
    .unwrap_err();
    assert!(matches!(err, ProtocolError::UnexpectedCommand { .. }));
}

#[test]
fn data_grant_answering_an_mrequest_is_rejected() {
    let mut a = agent(0);
    // Get a clean copy, then MREQUEST.
    start(
        &mut a,
        MemRef::read(WordAddr::new(1, 0)),
        Version::initial(),
    );
    deliver(
        &mut a,
        MemoryToCache::GetData {
            k: cid(0),
            a: blk(1),
            version: Version::initial(),
            exclusive: false,
        },
    )
    .unwrap();
    start(&mut a, MemRef::write(WordAddr::new(1, 0)), Version::new(1));
    // A data grant is the wrong reply to a permission request.
    let err = deliver(
        &mut a,
        MemoryToCache::GetData {
            k: cid(0),
            a: blk(1),
            version: Version::initial(),
            exclusive: true,
        },
    )
    .unwrap_err();
    assert!(matches!(err, ProtocolError::UnexpectedCommand { .. }));
}

#[test]
fn unsolicited_writeback_data_is_rejected_by_controller() {
    let mut c = controller();
    let err = submit(
        &mut c,
        CacheToMemory::PutData {
            from: cid(0),
            a: blk(1),
            version: Version::new(1),
        },
    )
    .unwrap_err();
    assert!(matches!(err, ProtocolError::UnexpectedCommand { .. }));
}

#[test]
fn double_supply_for_one_query_is_rejected() {
    let mut c = controller();
    submit(
        &mut c,
        CacheToMemory::Request {
            k: cid(0),
            a: blk(1),
            rw: AccessKind::Write,
        },
    )
    .unwrap();
    submit(
        &mut c,
        CacheToMemory::Request {
            k: cid(1),
            a: blk(1),
            rw: AccessKind::Read,
        },
    )
    .unwrap();
    // First supply resolves the BROADQUERY.
    submit(
        &mut c,
        CacheToMemory::PutData {
            from: cid(0),
            a: blk(1),
            version: Version::new(2),
        },
    )
    .unwrap();
    // A second, fabricated supply has no transaction to satisfy.
    let err = submit(
        &mut c,
        CacheToMemory::PutData {
            from: cid(0),
            a: blk(1),
            version: Version::new(3),
        },
    )
    .unwrap_err();
    assert!(matches!(err, ProtocolError::UnexpectedCommand { .. }));
}

#[test]
fn planted_directory_overclaim_is_detected() {
    // The directory believes Absent while a cache secretly holds a copy.
    let mut c = controller();
    // Give C0 a copy through the legitimate path…
    submit(
        &mut c,
        CacheToMemory::Request {
            k: cid(0),
            a: blk(1),
            rw: AccessKind::Read,
        },
    )
    .unwrap();
    let mut a0 = agent(0);
    start(
        &mut a0,
        MemRef::read(WordAddr::new(1, 0)),
        Version::initial(),
    );
    deliver(
        &mut a0,
        MemoryToCache::GetData {
            k: cid(0),
            a: blk(1),
            version: Version::initial(),
            exclusive: false,
        },
    )
    .unwrap();
    // …then plant a clean eject notice the cache never sent, resetting
    // the directory to Absent while the copy survives.
    submit(
        &mut c,
        CacheToMemory::Eject {
            k: cid(0),
            olda: blk(1),
            wb: twobit_types::WritebackKind::Clean,
        },
    )
    .unwrap();
    let err =
        invariants::check_system(&[a0, agent(1)], &[c], AddressMap::interleaved(1)).unwrap_err();
    assert!(matches!(err, ProtocolError::DirectoryInconsistent { .. }));
}

#[test]
fn fabricated_second_dirty_owner_is_detected() {
    let mut a0 = agent(0);
    let mut a1 = agent(1);
    for (agent, id) in [(&mut a0, 0usize), (&mut a1, 1)] {
        start(
            agent,
            MemRef::write(WordAddr::new(3, 0)),
            Version::new(1 + id as u64),
        );
        deliver(
            agent,
            MemoryToCache::GetData {
                k: cid(id),
                a: blk(3),
                version: Version::initial(),
                exclusive: true,
            },
        )
        .unwrap();
    }
    let err = invariants::check_system(&[a0, a1], &[controller()], AddressMap::interleaved(1))
        .unwrap_err();
    assert!(matches!(err, ProtocolError::DuplicateOwner { .. }));
}

#[test]
fn oracle_detects_planted_stale_read() {
    let config = SystemConfig::with_defaults(2).with_protocol(ProtocolKind::TwoBit);
    let mut system = FunctionalSystem::new(config).unwrap();
    // Legitimate traffic first.
    system
        .do_ref(cid(0), MemRef::write(WordAddr::new(5, 0)))
        .unwrap();
    // A fabricated stale observation is rejected by the oracle directly.
    let err = system
        .oracle()
        .check_read(cid(1), blk(5), Version::initial())
        .unwrap_err();
    assert!(matches!(err, ProtocolError::StaleRead { .. }));
}

#[test]
fn migration_breaks_the_static_scheme_as_the_paper_warns() {
    // Section 2.2: "this software solution is not sufficient by itself if
    // we allow process migration." Under a migrating workload whose
    // blocks are tagged private, the static scheme really does go
    // incoherent — the oracle catches the stale read — while the two-bit
    // scheme handles the same workload fine.
    use twobit_workload::scenarios::ProcessMigration;
    use twobit_workload::Workload;

    let n = 2;
    let run = |protocol: ProtocolKind| -> Result<(), ProtocolError> {
        let config = SystemConfig::with_defaults(n).with_protocol(protocol);
        let mut system = FunctionalSystem::new(config).unwrap();
        let mut workload = ProcessMigration::new(n, 8, 20, 3).unwrap();
        for _ in 0..600 {
            for k in CacheId::all(n) {
                let op = workload.next_ref(k);
                system.do_ref(k, op)?;
            }
        }
        Ok(())
    };

    run(ProtocolKind::TwoBit).expect("directory schemes survive migration");
    let err = run(ProtocolKind::StaticSoftware)
        .expect_err("the static scheme must go incoherent under migration");
    assert!(matches!(err, ProtocolError::StaleRead { .. }), "got {err}");
}

/// The table is what runs: the classic seeded bug — the write-hit
/// upgrade on `Present*` loses its invalidate, exactly as
/// `lint_protocols --demo-drop-invalidate` seeds it — is *executed*, and
/// the functional executor's invariant check reports the stale clean
/// copy that survives the write. The shipped table runs the same
/// references clean.
#[test]
fn a_table_with_the_invalidate_dropped_executes_and_is_caught() {
    let shipped = build_protocol_for(&SystemConfig::with_defaults(3));
    let mut table = shipped.table().clone();
    table
        .rule_mut("modify-fresh-shared")
        .expect("two-bit declares the shared-upgrade rule")
        .actions
        .retain(|a| !matches!(a, ActionKind::Invalidate { .. }));
    let seeded: &'static Program = Box::leak(Box::new(
        Program::compile(table).expect("the seeded table still covers every point"),
    ));

    // One interleaving of the "upgrade + third reader" race script
    // (rd,wr / wr / rd): both readers in before C0 upgrades.
    let a = WordAddr::new(1, 0);
    let script = [
        (cid(0), MemRef::read(a)),
        (cid(2), MemRef::read(a)),
        (cid(0), MemRef::write(a)),
        (cid(1), MemRef::write(a)),
    ];
    let run = |directory: Directory| {
        let mut system = FunctionalSystem::with_directory(
            SystemConfig::with_defaults(3),
            DEFAULT_STATIC_SHARED_FROM,
            |_| directory,
        )
        .unwrap();
        system.set_check_invariants(true);
        system.run(script)
    };

    run(shipped).expect("the shipped table is coherent");
    let err = run(Directory::new(seeded, 3, 0)).expect_err("C2's stale copy survives C0's write");
    assert!(
        matches!(&err, ProtocolError::DirectoryInconsistent { a, .. } if *a == blk(1)),
        "got {err}"
    );
}

/// A table with a rule removed is refused before it can run, naming the
/// point nothing covers.
#[test]
fn a_table_with_a_rule_removed_is_refused() {
    let mut table = build_protocol_for(&SystemConfig::with_defaults(2))
        .table()
        .clone();
    table.rules.retain(|r| r.name != "read-miss-modified");
    match Program::compile(table) {
        Err(CompileError::Gap { scheme, point }) => {
            assert_eq!(scheme, "two-bit");
            assert_eq!(
                (point.event, point.state),
                (EventKind::ReadMiss, GlobalState::PresentM)
            );
        }
        other => panic!("expected a gap, got {other:?}"),
    }
}
