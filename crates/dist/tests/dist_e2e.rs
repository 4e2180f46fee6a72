//! End-to-end fleet runs: all six schemes under the adversarial fault
//! plan, determinism of the merged timeline, crash/restart recovery, and
//! the process/TCP hosting modes.

use std::path::PathBuf;

use twobit_dist::driver::{run, ArrivalSchedule, Mode, RunConfig};
use twobit_dist::faults::{Crash, FaultConfig};
use twobit_dist::wire::{Actor, Lines};
use twobit_types::AccessKind;

const SCHEMES: [&str; 6] = [
    "two-bit",
    "two-bit+tlb",
    "full-map",
    "full-map+local",
    "classical-wt",
    "static-sw",
];

fn adversarial_cfg(scheme: &str, seed: u64) -> RunConfig {
    let mut cfg = RunConfig::quick(scheme, seed);
    // Delay + jitter (reordering), retransmitted drops, lossy client
    // edge, and one partition cutting cache 0 off mid-run, then healing.
    cfg.faults = FaultConfig::adversarial(vec![Actor::Cache(0)], 300, 700);
    cfg
}

#[test]
fn all_schemes_linearizable_under_faults() {
    for scheme in SCHEMES {
        let report = run(&adversarial_cfg(scheme, 0xA5A5)).unwrap_or_else(|e| {
            panic!("{scheme}: {e}");
        });
        assert_eq!(report.total_refs, 400, "{scheme}: all refs must complete");
        assert_eq!(report.checker.ops, 400);
        assert_eq!(report.heal_lag.len(), 1);
        assert!(
            report.retries > 0 || report.retransmits > 0,
            "{scheme}: the fault plan must actually bite"
        );
    }
}

#[test]
fn same_seed_reproduces_identical_timeline() {
    let a = run(&adversarial_cfg("two-bit", 77)).unwrap();
    let b = run(&adversarial_cfg("two-bit", 77)).unwrap();
    assert_eq!(a.timeline, b.timeline, "same seed must replay exactly");
    assert_eq!(a.ops, b.ops);

    let c = run(&adversarial_cfg("two-bit", 78)).unwrap();
    assert_ne!(
        a.timeline, c.timeline,
        "different seed should explore a different schedule"
    );
}

#[test]
fn crash_and_restart_resumes_all_schemes() {
    for scheme in SCHEMES {
        let mut cfg = RunConfig::quick(scheme, 0xBEEF);
        cfg.refs_per_client = 60;
        cfg.faults.jitter = 4;
        cfg.faults.checkpoint_every = 150;
        // One cache controller and one memory module crash mid-run, each
        // losing in-memory state; the driver restores the checkpoint and
        // replays the logged deliveries.
        cfg.faults.crashes = vec![
            Crash {
                at: 260,
                node: Actor::Cache(1),
                down_for: 80,
            },
            Crash {
                at: 420,
                node: Actor::Module(0),
                down_for: 80,
            },
        ];
        let report = run(&cfg).unwrap_or_else(|e| panic!("{scheme}: {e}"));
        assert_eq!(report.total_refs, 240, "{scheme}");
        assert_eq!(report.recoveries, 2, "{scheme}: both crashes must fire");
    }
}

/// Idempotency across a restart — the one scenario a cache node records
/// its last reply for. A hit completes at the instant it starts, so a
/// read hit that needed a retry although its request arrived on time is
/// one whose `ClientResp` was lost; the cache is crashed between that loss
/// and the retry, and the retry must be answered from what recovery
/// rebuilt — the checkpoint's entry, or the replay's — not executed again.
#[test]
fn a_lost_reply_is_replayed_across_a_crash_not_executed_twice() {
    // When the cache node started executing `txn`: once, if it is idempotent.
    let started = |timeline: &Lines, client: usize, txn: u64| -> Vec<u64> {
        let actor = format!("\"actor\":\"C{client}\"");
        let cmd = format!("\"cmd\":\"txn {txn} Read start\"");
        timeline
            .iter()
            .filter(|l| l.contains(&actor) && l.contains(&cmd))
            .filter_map(line_t)
            .collect()
    };
    // A cadence that puts a checkpoint between the loss and the crash
    // (the entry comes back out of the checkpoint), and none at all (the
    // replay from the start records it again).
    for checkpoint_every in [50, 0] {
        let mut cfg = adversarial_cfg("two-bit", 0x1D3A);
        cfg.faults.partitions.clear();
        cfg.faults.checkpoint_every = checkpoint_every;
        let probe = run(&cfg).unwrap();
        let lost = probe
            .ops
            .iter()
            .find(|o| {
                o.retries == 1
                    && o.kind == AccessKind::Read
                    && o.was_hit
                    && started(&probe.timeline, o.client, o.txn) == [o.invoked + 1]
            })
            .expect("the seed loses the reply to a hit");
        let retry_at = lost.invoked + cfg.faults.client_timeout;

        // Down from just after the next checkpoint tick (or the loss)
        // until well before the retry.
        let at = match checkpoint_every {
            0 => lost.invoked + 2,
            c => (lost.invoked / c + 1) * c + 1,
        };
        assert!(lost.invoked + 1 < at && at + 40 < retry_at);
        cfg.faults.crashes = vec![Crash {
            at,
            node: Actor::Cache(lost.client),
            down_for: 40,
        }];
        let report = run(&cfg).unwrap(); // `run` refuses a history that is not linearizable
        assert_eq!(report.total_refs, 400, "every reference completes");
        assert_eq!(report.checker.ops, 400);
        assert_eq!(report.recoveries, 1);
        assert!(report.retries > 0 && report.client_drops > 0);
        let retried = report
            .ops
            .iter()
            .find(|o| o.txn == lost.txn)
            .expect("the transaction completes");
        assert!(retried.retries >= 1 && retried.completed > retry_at);
        assert_eq!(
            (retried.version, retried.was_hit),
            (lost.version, lost.was_hit),
            "the answer is the one recorded before the crash"
        );
        // Replayed deliveries leave no timeline lines, so a second
        // `start` would be a second execution.
        assert_eq!(
            started(&report.timeline, lost.client, lost.txn),
            [lost.invoked + 1],
            "executed once"
        );
    }
}

fn node_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_dist_node"))
}

#[test]
fn process_mode_matches_in_proc_timeline() {
    let mut inproc = adversarial_cfg("two-bit", 9);
    inproc.refs_per_client = 40;
    let mut process = inproc.clone();
    process.mode = Mode::Process {
        node_bin: node_bin(),
    };
    let a = run(&inproc).unwrap();
    let b = run(&process).unwrap();
    assert_eq!(
        a.timeline, b.timeline,
        "hosting mode must not affect the schedule"
    );
}

#[test]
fn tcp_mode_smoke() {
    let mut cfg = RunConfig::quick("full-map", 5);
    cfg.refs_per_client = 30;
    cfg.mode = Mode::Tcp {
        node_bin: node_bin(),
    };
    let report = run(&cfg).unwrap();
    assert_eq!(report.total_refs, 120);
}

// ---------------------------------------------------------------------------
// Open-loop load
// ---------------------------------------------------------------------------

#[test]
fn open_loop_rates_stay_linearizable_and_expose_queueing() {
    // A closed loop can never queue (the next request arrives only when
    // the previous completes), so its latency is pure service time. An
    // open loop arriving faster than the fleet serves must queue
    // driver-side — client-perceived latency has to come out higher.
    let mean_latency = |schedule: ArrivalSchedule| -> f64 {
        let mut cfg = RunConfig::quick("two-bit", 0x10AD);
        cfg.refs_per_client = 60;
        cfg.schedule = schedule;
        let report = run(&cfg).unwrap();
        assert_eq!(report.total_refs, 240, "every arrival must complete");
        let (count, sum) = report.latency.iter().fold((0u64, 0.0), |(c, s), (_, h)| {
            (c + h.count(), s + h.mean() * h.count() as f64)
        });
        assert_eq!(count, 240, "every op must be recorded in a histogram");
        sum / count as f64
    };
    let closed = mean_latency(ArrivalSchedule::Closed);
    let open_fast = mean_latency(ArrivalSchedule::Fixed {
        interval: 2,
        jitter: 0,
    });
    assert!(
        open_fast > closed,
        "overdriven open loop must show queueing: open {open_fast} vs closed {closed}"
    );
}

#[test]
fn burst_schedule_completes_under_faults() {
    for scheme in ["two-bit", "full-map"] {
        let mut cfg = adversarial_cfg(scheme, 0xB0B0);
        cfg.refs_per_client = 120;
        cfg.schedule = ArrivalSchedule::Burst {
            interval: 20,
            every: 4,
            size: 5,
        };
        let report = run(&cfg).unwrap_or_else(|e| panic!("{scheme}: {e}"));
        assert_eq!(report.total_refs, 480, "{scheme}");
        assert_eq!(report.checker.ops, 480, "{scheme}");
    }
}

#[test]
fn open_loop_timeline_identical_across_all_hosting_modes() {
    // The multiplexed driver batches same-instant deliveries — exactly
    // the situation open-loop bursts create — and the batch must not
    // leak hosting-dependent ordering into the record.
    let mut base = RunConfig::quick("two-bit", 0x0123);
    base.refs_per_client = 30;
    base.schedule = ArrivalSchedule::Burst {
        interval: 15,
        every: 3,
        size: 4,
    };
    base.faults.jitter = 3;
    let mut process = base.clone();
    process.mode = Mode::Process {
        node_bin: node_bin(),
    };
    let mut tcp = base.clone();
    tcp.mode = Mode::Tcp {
        node_bin: node_bin(),
    };
    let a = run(&base).unwrap();
    let b = run(&process).unwrap();
    let c = run(&tcp).unwrap();
    assert_eq!(a.timeline, b.timeline, "inproc vs process");
    assert_eq!(b.timeline, c.timeline, "process vs tcp");
    assert_eq!(a.ops, b.ops);
    assert_eq!(b.ops, c.ops);
}

// ---------------------------------------------------------------------------
// Mid-barrier module crash
// ---------------------------------------------------------------------------

/// Top-level `"t"` of a timeline line. Delivery lines sort keys, so the
/// top-level `t` is the last `"t":` occurrence; node-event lines have
/// exactly one.
fn line_t(line: &str) -> Option<u64> {
    let idx = line.rfind("\"t\":")?;
    let digits: String = line[idx + 4..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Parses a `barrier N released` node event: `(t, module, barrier)`.
fn barrier_release(line: &str) -> Option<(u64, usize, u64)> {
    let cmd = line.find("barrier ")?;
    line.contains(" released").then_some(())?;
    let actor = line.find("\"actor\":\"M")?;
    let module: usize = line[actor + 10..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .ok()?;
    let barrier: u64 = line[cmd + 8..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .ok()?;
    Some((line_t(line)?, module, barrier))
}

/// Finds an instant at which module `m` has an inv-ack barrier open:
/// after an acked invalidation was delivered, before the barrier
/// released. Returns `(crash_at, module, release_t)`.
fn find_open_barrier(timeline: &Lines) -> Option<(u64, usize, u64)> {
    for line in timeline {
        let Some((t_rel, module, barrier)) = barrier_release(line) else {
            continue;
        };
        // The acked invalidation this module sent for that barrier.
        let ack_pat = format!("\"ack\":{barrier},");
        let src_pat = format!("\"src\":\"M{module}\"");
        let t_ack = timeline
            .iter()
            .filter(|l| l.contains(&ack_pat) && l.contains(&src_pat))
            .filter_map(line_t)
            .min()?;
        if t_rel > t_ack + 1 {
            return Some((t_ack + 1, module, t_rel));
        }
    }
    None
}

#[test]
fn module_crash_mid_inv_ack_barrier_all_schemes() {
    for scheme in SCHEMES {
        // Probe run: same config minus the crash. Determinism makes its
        // timeline a perfect oracle for where a barrier stands open in
        // the crashing run (the extra Restart calendar entry only
        // shifts sequence numbers uniformly and draws no randomness).
        let mut cfg = RunConfig::quick(scheme, 0xBA44);
        cfg.refs_per_client = 60;
        cfg.faults.checkpoint_every = 150;
        cfg.max_events = 250_000;
        let probe = run(&cfg).unwrap_or_else(|e| panic!("{scheme} probe: {e}"));

        let (at, module, release_t) = match find_open_barrier(&probe.timeline) {
            Some(found) => found,
            None => {
                // static-sw never invalidates (shared blocks bypass the
                // caches), so no barrier ever opens; crash mid-run
                // anyway so every scheme exercises module recovery.
                assert_eq!(
                    scheme, "static-sw",
                    "{scheme}: expected an inv-ack barrier in the probe run"
                );
                (200, 0, 200)
            }
        };
        // Outage long enough that the releasing ack is still undelivered
        // at the crash and must wait for the restart.
        let down_for = release_t.saturating_sub(at) + 40;
        cfg.faults.crashes = vec![Crash {
            at,
            node: Actor::Module(module),
            down_for,
        }];
        let report = run(&cfg).unwrap_or_else(|e| panic!("{scheme} crash run: {e}"));
        assert_eq!(report.total_refs, 240, "{scheme}");
        assert_eq!(report.recoveries, 1, "{scheme}: the crash must fire");
        if release_t > at {
            // The barrier that was open at the crash must still release
            // — after the restart, on the rebuilt module.
            let restart_pat = format!("\"dst\":\"M{module}\",\"restart\":true");
            assert!(
                report.timeline.iter().any(|l| l.contains(&restart_pat)),
                "{scheme}: restart marker missing"
            );
        }
    }
}
