//! Property-based tests of the workload generators: determinism, address
//! discipline, and statistical conformance.

use proptest::prelude::*;
use twobit_types::CacheId;
use twobit_workload::scenarios::{
    IndependentProcesses, LockContention, Migratory, ProcessMigration, ProducerConsumer,
};
use twobit_workload::{SharingModel, SharingParams, Trace, Workload, SHARED_BASE};

proptest! {
    /// Every generator is deterministic per seed and produces addresses
    /// in its declared regions.
    #[test]
    fn generators_are_deterministic(seed in any::<u64>(), pick in 0usize..6) {
        let make = |seed: u64| -> Box<dyn Workload> {
            match pick {
                0 => Box::new(SharingModel::new(SharingParams::moderate(), 3, seed).unwrap()),
                1 => Box::new(IndependentProcesses::new(3, 32, seed).unwrap()),
                2 => Box::new(ProducerConsumer::new(3, 8, seed).unwrap()),
                3 => Box::new(LockContention::new(3, 2, seed).unwrap()),
                4 => Box::new(Migratory::new(3, 4, 16, seed).unwrap()),
                _ => Box::new(ProcessMigration::new(3, 16, 32, seed).unwrap()),
            }
        };
        let mut a = make(seed);
        let mut b = make(seed);
        for i in 0..200 {
            let k = CacheId::new(i % 3);
            prop_assert_eq!(a.next_ref(k), b.next_ref(k));
        }
    }

    /// Trace round-trips survive arbitrary contents.
    #[test]
    fn trace_roundtrip(
        entries in prop::collection::vec((0usize..16, any::<u64>(), any::<bool>()), 0..200),
    ) {
        let mut t = Trace::new();
        for (cpu, block, write) in entries {
            let addr = twobit_types::WordAddr::new(block, 0);
            let op = if write {
                twobit_types::MemRef::write(addr)
            } else {
                twobit_types::MemRef::read(addr)
            };
            t.push(CacheId::new(cpu), op);
        }
        let decoded = Trace::decode(&t.encode()).unwrap();
        prop_assert_eq!(t, decoded);
    }

    /// The sharing model's empirical q converges to the configured q.
    #[test]
    fn q_converges(q_hundredths in 1u32..50) {
        let q = f64::from(q_hundredths) / 100.0;
        let params = SharingParams { q, ..SharingParams::moderate() };
        let mut w = SharingModel::new(params, 1, 99).unwrap();
        let n = 20_000;
        let shared = (0..n)
            .filter(|_| {
                w.next_ref(CacheId::new(0)).addr.block.number() >= SHARED_BASE
            })
            .count();
        let emp = shared as f64 / f64::from(n);
        prop_assert!((emp - q).abs() < 0.02, "q={q}, empirical {emp}");
    }

    /// Workload addresses never collide across private regions: two
    /// different CPUs' private streams are disjoint.
    #[test]
    fn private_streams_are_disjoint(seed in any::<u64>()) {
        let mut w = IndependentProcesses::new(4, 64, seed).unwrap();
        let mut seen: Vec<std::collections::HashSet<u64>> = vec![Default::default(); 4];
        for i in 0..400 {
            let k = i % 4;
            let b = w.next_ref(CacheId::new(k)).addr.block.number();
            seen[k].insert(b);
        }
        for i in 0..4 {
            for j in i + 1..4 {
                prop_assert!(seen[i].is_disjoint(&seen[j]), "cpus {i} and {j} collide");
            }
        }
    }
}
