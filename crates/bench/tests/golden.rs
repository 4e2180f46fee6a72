//! The reproduction's record, frozen as text: the stdout of each of the
//! 14 paper binaries, run with no arguments, and the deterministic gate's
//! sweep ([`twobit_bench::run_suite`], one line per case) must equal
//! `golden/<name>.txt` byte for byte.
//!
//! On a mismatch the fresh text is written under
//! `CARGO_TARGET_TMPDIR/golden/`, and the failure prints one `cp` line per
//! file that differs, followed by that file's differing lines (at most
//! 20). Copying a file in is a claim that the change it shows is meant;
//! say why in the change that does it.
//!
//! The second test keeps the documents honest: every golden file is cited
//! in EXPERIMENTS.md or README.md, and every cited golden file exists.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// `(name, path)` of each paper binary.
macro_rules! bins {
    ($($name:ident),* $(,)?) => {
        [$((stringify!($name), env!(concat!("CARGO_BIN_EXE_", stringify!($name))))),*]
    };
}

const PAPER_BINS: [(&str, &str); 14] = bins![
    table_3_1,
    table_4_1,
    table_4_2,
    acceptability,
    directory_cost,
    sim_table_4_1,
    sim_table_4_2,
    figure_overhead_curves,
    protocol_comparison,
    migration_effects,
    ablation_tlb,
    ablation_dupdir,
    ablation_concurrency,
    ablation_bias,
];

/// The gate's golden file name.
const GATE: &str = "gate";

/// Differing lines printed per file.
const SHOWN_LINES: usize = 20;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// The names of the files under `golden/`, without `.txt`.
fn golden_names() -> BTreeSet<String> {
    std::fs::read_dir(golden_dir())
        .expect("golden/ is readable")
        .map(|entry| entry.expect("golden/ entry").file_name())
        .filter_map(|name| name.to_str()?.strip_suffix(".txt").map(str::to_string))
        .collect()
}

fn stdout_of(name: &str, exe: &str) -> Vec<u8> {
    let out = Command::new(exe)
        .output()
        .unwrap_or_else(|e| panic!("{name}: cannot run {exe}: {e}"));
    assert!(
        out.status.success(),
        "{name} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// Up to [`SHOWN_LINES`] lines that differ by position, each as the
/// frozen (`-`) and the fresh (`+`) text.
fn differing_lines(frozen: &[u8], fresh: &[u8]) -> String {
    let frozen = String::from_utf8_lossy(frozen);
    let fresh = String::from_utf8_lossy(fresh);
    let (old, new): (Vec<&str>, Vec<&str>) = (frozen.lines().collect(), fresh.lines().collect());
    let mut out = String::new();
    (0..old.len().max(new.len()))
        .filter(|&i| old.get(i) != new.get(i))
        .take(SHOWN_LINES)
        .for_each(|i| {
            for (sign, side) in [('-', &old), ('+', &new)] {
                if let Some(line) = side.get(i) {
                    let _ = writeln!(out, "  {:>4}{sign} {line}", i + 1);
                }
            }
        });
    out
}

#[test]
fn paper_outputs_and_the_gate_match_their_golden_text() {
    let mut fresh: Vec<(&str, Vec<u8>)> = PAPER_BINS
        .iter()
        .map(|&(name, exe)| (name, stdout_of(name, exe)))
        .collect();
    fresh.push((GATE, twobit_bench::run_suite().render().into_bytes()));

    let produced: BTreeSet<String> = fresh.iter().map(|(name, _)| name.to_string()).collect();
    let stale: Vec<String> = golden_names().difference(&produced).cloned().collect();
    assert!(stale.is_empty(), "golden files nothing produces: {stale:?}");

    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden");
    let mut report = String::new();
    for (name, text) in &fresh {
        let path = golden_dir().join(format!("{name}.txt"));
        let frozen = std::fs::read(&path).unwrap_or_default();
        if frozen == *text {
            continue;
        }
        std::fs::create_dir_all(&out_dir).expect("create the fresh-text directory");
        let out = out_dir.join(format!("{name}.txt"));
        std::fs::write(&out, text).expect("write the fresh text");
        let _ = writeln!(report, "cp {} {}", out.display(), path.display());
        report.push_str(&differing_lines(&frozen, text));
    }
    assert!(
        report.is_empty(),
        "output differs from its golden text:\n{report}"
    );
}

/// Every `crates/bench/golden/<name>.txt` named in `doc`.
fn cited_in(doc: &str) -> BTreeSet<String> {
    const PREFIX: &str = "crates/bench/golden/";
    doc.match_indices(PREFIX)
        .filter_map(|(at, _)| {
            let rest = &doc[at + PREFIX.len()..];
            let end = rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))?;
            rest[end..]
                .starts_with(".txt")
                .then(|| rest[..end].to_string())
        })
        .collect()
}

#[test]
fn every_golden_file_is_cited_and_every_citation_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut cited = BTreeSet::new();
    for doc in ["EXPERIMENTS.md", "README.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("document is readable");
        cited.extend(cited_in(&text));
    }
    let files = golden_names();
    let uncited: Vec<&String> = files.difference(&cited).collect();
    let missing: Vec<&String> = cited.difference(&files).collect();
    assert!(
        uncited.is_empty(),
        "golden files no document cites: {uncited:?}"
    );
    assert!(
        missing.is_empty(),
        "cited golden files that do not exist: {missing:?}"
    );
}
