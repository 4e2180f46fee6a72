//! Frozen fleet runs: the merged timeline, the op history, `virtual_end`
//! and `deliveries` of twelve in-process runs, pinned across commits.
//!
//! `dist_e2e.rs` compares a build with itself (same seed twice, one
//! hosting mode against another), so a change that moved every timeline
//! the same way would pass it. The constants in [`GOLDEN`] were recorded
//! from the commit before the timeline lines were written as text from
//! the one codec statement (CHANGES.md, PR 16, says how), through API
//! present on both sides of that change: all six schemes ×
//!
//! * **closed** — closed loop, fault-free, 120 references per client;
//! * **faulty** — open loop `fixed:90` under [`FaultConfig::adversarial`]
//!   (jitter, retransmitted drops, a lossy client edge, cache 0 cut off
//!   from 300 to 700) with cache 1 and module 0 each crashing once and a
//!   checkpoint every 150, 60 references per client — so restart lines,
//!   checkpoint restores, replayed deliveries, client retries and queued
//!   arrivals are all in the text.
//!
//! A digest that moves means a timeline byte, a history record or the
//! schedule itself changed.

use twobit_dist::driver::{run, ArrivalSchedule, RunConfig, RunReport};
use twobit_dist::faults::{Crash, FaultConfig};
use twobit_dist::wire::Actor;
use twobit_types::{AccessKind, Fingerprinter};

const SCHEMES: [&str; 6] = [
    "two-bit",
    "two-bit+tlb",
    "full-map",
    "full-map+local",
    "classical-wt",
    "static-sw",
];

fn closed(scheme: &str) -> RunConfig {
    let mut cfg = RunConfig::quick(scheme, 0x7157);
    cfg.refs_per_client = 120;
    // Two entries for twelve blocks, so the translation buffer misses
    // (with `quick`'s eight it never does and the run is full-map's).
    cfg.tlb_entries = 2;
    cfg
}

fn faulty(scheme: &str) -> RunConfig {
    let mut cfg = RunConfig::quick(scheme, 0xFA57);
    cfg.refs_per_client = 60;
    cfg.tlb_entries = 2;
    cfg.schedule = ArrivalSchedule::Fixed {
        interval: 90,
        jitter: 0,
    };
    cfg.faults = FaultConfig::adversarial(vec![Actor::Cache(0)], 300, 700);
    cfg.faults.checkpoint_every = 150;
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
    cfg
}

fn fold_text(fp: &mut Fingerprinter, text: &str) {
    fp.write_usize(text.len());
    for chunk in text.as_bytes().chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        fp.write_u64(u64::from_le_bytes(w));
    }
}

/// `(timeline digest, history digest, virtual_end, deliveries)`.
fn digests(report: &RunReport) -> (String, String, u64, u64) {
    let mut timeline = Fingerprinter::new();
    timeline.write_usize(report.timeline.len());
    for line in &report.timeline {
        fold_text(&mut timeline, line);
    }
    let mut history = Fingerprinter::new();
    history.write_usize(report.ops.len());
    for op in &report.ops {
        history.write_usize(op.client);
        history.write_u64(op.txn);
        history.write_u64(op.block);
        history.write_bool(op.kind == AccessKind::Write);
        history.write_u64(op.arrived);
        history.write_u64(op.invoked);
        history.write_u64(op.completed);
        history.write_u64(op.version);
        history.write_bool(op.was_hit);
        history.write_u64(op.retries);
    }
    (
        format!("{:?}", timeline.finish()),
        format!("{:?}", history.finish()),
        report.virtual_end,
        report.deliveries,
    )
}

type Golden = (&'static str, &'static str, u64, u64);

/// Per scheme, in [`SCHEMES`] order: the closed run, then the faulty run.
const GOLDEN: [(Golden, Golden); 6] = [
    (
        (
            "114110733593848793707503263567761690270",
            "110723694862009171446196621015351747497",
            1646,
            2514,
        ),
        (
            "205150619492799769254267871905819049422",
            "28409996021943864421411390629864831428",
            7425,
            1296,
        ),
    ), // two-bit
    (
        (
            "95131109284978300199263365371666562305",
            "110723694862009171446196621015351747497",
            1646,
            2324,
        ),
        (
            "67258583227041709833136932457893868849",
            "235211659779626849674915917549266130826",
            7873,
            1206,
        ),
    ), // two-bit+tlb
    (
        (
            "167920132259507164921701311424409686455",
            "110723694862009171446196621015351747497",
            1646,
            2084,
        ),
        (
            "270964736589619325535846219388575073937",
            "132725811272038413735673561816124209283",
            9592,
            1106,
        ),
    ), // full-map
    (
        (
            "128865682231424260689484729197151505904",
            "258694458709537466535090288801625361610",
            1667,
            2128,
        ),
        (
            "331913639992420274410000412774535248501",
            "29820222918518881056947172489400470533",
            6789,
            1021,
        ),
    ), // full-map+local
    (
        (
            "90522893073122514807801069272776348764",
            "256458355760751709824563279535639404313",
            1652,
            2456,
        ),
        (
            "212716334801841027853579051608341953313",
            "89659995373559748681870523041257135239",
            7428,
            1275,
        ),
    ), // classical-wt
    (
        (
            "3268914189826522470305390224273773128",
            "309087151984639567386325677467101900007",
            1187,
            1374,
        ),
        (
            "63303028422278646990378043144269935620",
            "260314115908331502317310138880002923603",
            7020,
            694,
        ),
    ), // static-sw
];

/// The digests in the form of [`GOLDEN`] (printed on a mismatch, to
/// regenerate after an intended change of the timeline text).
fn render(rows: &[[(String, String, u64, u64); 2]]) -> String {
    let line = |d: &(String, String, u64, u64)| {
        format!("        ({:?}, {:?}, {}, {}),\n", d.0, d.1, d.2, d.3)
    };
    rows.iter()
        .zip(SCHEMES)
        .map(|(row, scheme)| {
            format!(
                "    (\n{}{}    ), // {scheme}\n",
                line(&row[0]),
                line(&row[1])
            )
        })
        .collect()
}

#[test]
fn timelines_and_histories_match_the_parent_commit() {
    let rows: Vec<_> = SCHEMES
        .into_iter()
        .map(|scheme| {
            [closed(scheme), faulty(scheme)].map(|cfg| {
                let report = run(&cfg).unwrap_or_else(|e| panic!("{scheme}: {e}"));
                assert_eq!(report.total_refs, 4 * cfg.refs_per_client, "{scheme}");
                if !cfg.faults.crashes.is_empty() {
                    // The plan must reach the paths the digest pins.
                    assert_eq!(report.recoveries, 2, "{scheme}: both crashes fire");
                    assert!(report.retries > 0 && report.retransmits > 0, "{scheme}");
                    let restarts = report
                        .timeline
                        .iter()
                        .filter(|l| l.contains("\"restart\":true"))
                        .count();
                    assert_eq!(restarts, 2, "{scheme}: two restart lines");
                }
                digests(&report)
            })
        })
        .collect();
    let golden =
        GOLDEN.map(|(c, f)| [c, f].map(|(t, h, end, n)| (t.to_string(), h.to_string(), end, n)));
    assert!(
        rows == golden,
        "digests moved; this build writes:\n{}",
        render(&rows)
    );
}

/// The benchmark's `dist_inproc` run (`RunConfig::quick("two-bit", 42)`
/// at 15,000 references per client): the history check visits the 62,786
/// states the frame-cloning search visited at the parent commit, so it
/// is the same search in the same order, only in linear space.
#[test]
fn the_benchmark_history_takes_the_recorded_search() {
    let mut cfg = RunConfig::quick("two-bit", 42);
    cfg.refs_per_client = 15_000;
    let report = run(&cfg).unwrap();
    assert_eq!(report.checker.ops, 60_000);
    assert_eq!(report.checker.states_visited, 62_786);
}

/// The per-node files of CI's crash/restart run: `merged.jsonl` and the
/// six `node-*.jsonl`, by digest, in this order.
const TRACE_FILES: [(&str, &str); 7] = [
    ("merged.jsonl", "86361413392411655820495145480877567766"),
    ("node-C0.jsonl", "112452753744560738122711204336638952629"),
    ("node-C1.jsonl", "258500363023078968999951904712900017954"),
    ("node-C2.jsonl", "235712198830547262339973788963173741739"),
    ("node-C3.jsonl", "12133925806055815868863854286468305328"),
    ("node-M0.jsonl", "154020136358327974748178738651947394684"),
    ("node-M1.jsonl", "94761001467397255300210874457884938612"),
];

/// CI's crash/restart configuration (`dist_driver --scheme two-bit --seed
/// 48879 --refs 60 --crash 260:C1:80 --crash 420:M0:80 --trace-dir …`),
/// in process: the files `--trace-dir` writes are the bytes the parent
/// commit wrote.
#[test]
fn trace_dir_files_match_the_parent_commit() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace-48879");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = RunConfig::quick("two-bit", 48879);
    cfg.refs_per_client = 60;
    cfg.faults.checkpoint_every = 200;
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
    cfg.trace_dir = Some(dir.clone());
    let report = run(&cfg).unwrap();
    assert_eq!(report.recoveries, 2);
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    written.sort();
    let files: Vec<(String, String)> = written
        .into_iter()
        .map(|name| {
            let text = std::fs::read_to_string(dir.join(&name)).unwrap();
            let mut fp = Fingerprinter::new();
            fold_text(&mut fp, &text);
            (name, format!("{:?}", fp.finish()))
        })
        .collect();
    let golden: Vec<(String, String)> = TRACE_FILES
        .iter()
        .map(|&(name, digest)| (name.to_string(), digest.to_string()))
        .collect();
    assert!(
        files == golden,
        "trace files moved; this build writes:\n{files:#?}"
    );
}

/// What the livelock guard reports for the `quick` two-bit fleet (seed
/// 42) stopped after 40 calendar events: the last 12 timeline lines,
/// its own verdict last.
const LIVELOCK: &str = concat!(
    r#"livelock: 41 events without quiescence; timeline tail:"#,
    "\n",
    r#"{"dst":"C2","env":{"dst":"C2","payload":{"ack":null,"cmd":{"a":10,"k":2,"t":"GET","v":0,"x":false},"t":"to_cache"},"src":"M0"},"t":16}"#,
    "\n",
    r#"{"t":16,"actor":"C2","block":10,"cmd":"deliver get(C2, blk:0xa, v0)","useless":false}"#,
    "\n",
    r#"{"dst":"C0","env":{"dst":"C0","payload":{"ack":1,"cmd":{"a":0,"k":3,"t":"BROADINV"},"t":"to_cache"},"src":"M0"},"t":16}"#,
    "\n",
    r#"{"t":16,"actor":"C0","block":0,"cmd":"deliver BROADINV(blk:0x0, excl C3)","useless":false}"#,
    "\n",
    r#"{"dst":"C1","env":{"dst":"C1","payload":{"ack":1,"cmd":{"a":0,"k":3,"t":"BROADINV"},"t":"to_cache"},"src":"M0"},"t":16}"#,
    "\n",
    r#"{"t":16,"actor":"C1","block":0,"cmd":"deliver BROADINV(blk:0x0, excl C3)","useless":false}"#,
    "\n",
    r#"{"dst":"C2","env":{"dst":"C2","payload":{"ack":1,"cmd":{"a":0,"k":3,"t":"BROADINV"},"t":"to_cache"},"src":"M0"},"t":16}"#,
    "\n",
    r#"{"t":16,"actor":"C2","block":0,"cmd":"deliver BROADINV(blk:0x0, excl C3)","useless":false}"#,
    "\n",
    r#"{"dst":"L0","env":{"dst":"L0","payload":{"hit":false,"observed":0,"t":"client_resp","txn":5},"src":"C0"},"t":17}"#,
    "\n",
    r#"{"dst":"L1","env":{"dst":"L1","payload":{"hit":false,"observed":0,"t":"client_resp","txn":6},"src":"C1"},"t":17}"#,
    "\n",
    r#"{"dst":"L2","env":{"dst":"L2","payload":{"hit":false,"observed":0,"t":"client_resp","txn":7},"src":"C2"},"t":17}"#,
    "\n",
    r#"{"done":[2,2,2,1],"livelock":41,"t":17}"#,
);

#[test]
fn the_livelock_guard_reports_the_timeline_tail() {
    let mut cfg = RunConfig::quick("two-bit", 42);
    cfg.max_events = 40;
    let err = run(&cfg).expect_err("40 events cannot finish 400 references");
    assert!(err.starts_with("livelock:"), "{err}");
    let (_, tail) = err.split_once('\n').unwrap();
    assert!(tail.lines().count() <= 12, "{tail}");
    assert!(
        tail.lines().last().unwrap().contains("\"livelock\":"),
        "{tail}"
    );
    assert_eq!(err, LIVELOCK);
}
