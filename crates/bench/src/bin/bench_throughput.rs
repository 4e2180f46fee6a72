//! Bench-Throughput: host-side simulation throughput across every
//! directory scheme × representative workload, serialized as a
//! `BENCH_<label>.json` document (schema `twobit-bench/v1`, documented in
//! EXPERIMENTS.md).
//!
//! ```text
//! bench_throughput [--label NAME] [--out PATH] [--refs N] [--caches N]
//!                  [--seed N] [--profile] [--quick]
//! ```
//!
//! - `--label` names the output `BENCH_<label>.json` (default `local`);
//!   `--out` overrides the path entirely.
//! - Cases run one at a time, each on the calling thread, so each case's
//!   wall clock is its own.
//! - `--profile` records the "top handlers by self-time" span table per
//!   case (needs the `perf-spans` cargo feature to be more than a no-op).
//! - `--quick` shrinks the sweep for CI smoke runs (500 refs/cpu).
//! - Built with the `counting-alloc` feature, each case also reports
//!   `peak_alloc_bytes` from a byte-counting global allocator (exact
//!   per case, since cases are sequential).

use std::process::ExitCode;

use twobit_bench::throughput::{run_suite, AllocHooks, BenchConfig};

#[cfg(feature = "counting-alloc")]
mod counting {
    //! A global allocator that tracks live bytes and a resettable peak
    //! watermark. Kept in the binary: the library forbids unsafe code,
    //! and only this entry point ever needs the hooks.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static LIVE: AtomicU64 = AtomicU64::new(0);
    static PEAK: AtomicU64 = AtomicU64::new(0);

    fn grow(bytes: u64) {
        let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }

    fn shrink(bytes: u64) {
        LIVE.fetch_sub(bytes, Ordering::Relaxed);
    }

    struct Counting;

    // SAFETY: delegates every operation to the system allocator; the
    // counters are plain atomics and never allocate.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                grow(layout.size() as u64);
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) };
            shrink(layout.size() as u64);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            if !p.is_null() {
                shrink(layout.size() as u64);
                grow(new_size as u64);
            }
            p
        }
    }

    #[global_allocator]
    static ALLOCATOR: Counting = Counting;

    pub fn reset() {
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    pub fn peak_bytes() -> u64 {
        PEAK.load(Ordering::Relaxed)
    }
}

fn alloc_hooks() -> Option<AllocHooks> {
    #[cfg(feature = "counting-alloc")]
    {
        Some(AllocHooks {
            reset: counting::reset,
            peak_bytes: counting::peak_bytes,
        })
    }
    #[cfg(not(feature = "counting-alloc"))]
    {
        None
    }
}

struct Args {
    cfg: BenchConfig,
    label: String,
    out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_throughput [--label NAME] [--out PATH] [--refs N] \
         [--caches N] [--seed N] [--profile] [--quick]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut cfg = BenchConfig::default();
    let mut label = "local".to_string();
    let mut out = None;
    let mut args = std::env::args().skip(1);
    let next_value = |flag: &str, args: &mut dyn Iterator<Item = String>| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("{flag} requires a value");
            usage()
        })
    };
    while let Some(arg) = args.next() {
        let mut numeric = |flag: &str| -> u64 {
            let raw = next_value(flag, &mut args);
            raw.parse().unwrap_or_else(|_| {
                eprintln!("{flag} wants a number, got {raw:?}");
                usage()
            })
        };
        match arg.as_str() {
            "--label" => label = next_value("--label", &mut args),
            "--out" => out = Some(next_value("--out", &mut args)),
            "--refs" => cfg.refs_per_cpu = numeric("--refs"),
            "--caches" => cfg.caches = numeric("--caches") as usize,
            "--seed" => cfg.seed = numeric("--seed"),
            "--profile" => cfg.profile = true,
            "--quick" => cfg.refs_per_cpu = 500,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage()
            }
        }
    }
    Args { cfg, label, out }
}

fn main() -> ExitCode {
    let args = parse_args();
    let alloc = alloc_hooks();
    if args.cfg.profile && !cfg!(feature = "perf-spans") {
        eprintln!(
            "note: --profile requested but built without the perf-spans \
             feature; span tables will be empty"
        );
    }

    let doc = run_suite(&args.cfg, alloc);
    print!("{}", doc.render());

    let path = args
        .out
        .unwrap_or_else(|| format!("BENCH_{}.json", args.label));
    if let Err(e) = std::fs::write(&path, doc.to_json()) {
        eprintln!("error: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nwrote {path}");
    ExitCode::SUCCESS
}
