//! Regenerates every experiment (E1–E17) and prints its table.
//!
//! ```text
//! reproduce [--quick] [--markdown] [--threads N] [--json-dir DIR]
//!           [--graph-file FILE.csr] [e1 e5 ...]
//! ```
//!
//! With no experiment ids, all seventeen run in order. `--quick` shrinks
//! the sweeps (seconds instead of minutes); `--markdown` emits the
//! EXPERIMENTS.md table format; `--threads N` sizes the deterministic
//! worker pool (default: `TRIAD_THREADS` or the machine's parallelism —
//! output is byte-identical at every thread count, see
//! `docs/PARALLELISM.md`); `--json-dir DIR` additionally writes the
//! standard cost suite as `DIR/BENCH_costs.json` (the schema of
//! `docs/OBSERVABILITY.md`), diffable across revisions, plus the
//! naive-vs-kernel triangle timings as `DIR/BENCH_kernels.json`
//! (wall-clock, machine-dependent — see `docs/KERNELS.md`), plus the
//! deterministic fault-injection matrix as `DIR/BENCH_chaos.json`
//! (byte-diffable — see `docs/FAULTS.md`). Scheduler and sweep timings
//! live in the end-to-end benchmark under `perfbench/`.
//!
//! `--graph-file FILE.csr` (with `--json-dir`) appends an out-of-core
//! row to `BENCH_kernels.json`: the forward and pool-parallel kernels
//! plus one prepared protocol run timed over the mapped binary CSR
//! container of `docs/IO.md`, with peak-RSS / owned-allocation evidence
//! that the run stayed on borrowed slices. Write the container first
//! with `triad gen … --format csr` (see `EXPERIMENTS.md`).

use triad_bench::chaos::{chaos_suite, reconnect_suite, write_chaos_json};
use triad_bench::experiments::{all, Scale};
use triad_bench::kernels::{kernel_suite, write_kernels_json};
use triad_bench::report::{standard_suite, write_bench_json};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let markdown = args.iter().any(|a| a == "--markdown");
    let value_of = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs an argument");
                std::process::exit(1);
            })
        })
    };
    let json_dir = value_of("--json-dir");
    if let Some(raw) = value_of("--threads") {
        match raw.parse::<usize>() {
            Ok(n) if n > 0 => triad_comm::pool::set_threads(n),
            _ => {
                eprintln!("--threads needs a positive integer, got `{raw}`");
                std::process::exit(1);
            }
        }
    }
    let graph_file = value_of("--graph-file");
    let value_flags = ["--json-dir", "--threads", "--graph-file"];
    let wanted: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            !a.starts_with("--")
                && !args
                    .get(i.wrapping_sub(1))
                    .is_some_and(|prev| value_flags.contains(&prev.as_str()))
        })
        .map(|(_, a)| a.to_lowercase())
        .collect();
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let registry = all();
    let mut ran = 0;
    for (id, run) in &registry {
        if !wanted.is_empty() && !wanted.iter().any(|w| w == id) {
            continue;
        }
        let started = std::time::Instant::now();
        let report = run(scale);
        if markdown {
            print!("{}", report.to_markdown());
        } else {
            print!("{}", report.to_text());
            println!("  [{:.1}s]\n", started.elapsed().as_secs_f64());
        }
        ran += 1;
    }
    if let Some(dir) = json_dir {
        let reports = standard_suite(scale);
        match write_bench_json(std::path::Path::new(&dir), "costs", &reports) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("failed to write BENCH_costs.json to {dir}: {e}");
                std::process::exit(1);
            }
        }
        let mut timings = kernel_suite(scale);
        if let Some(path) = &graph_file {
            let path = std::path::Path::new(path);
            let store = match triad_graph::CsrStore::open(path) {
                Ok(store) => store,
                Err(e) => {
                    eprintln!("failed to open --graph-file {}: {e}", path.display());
                    std::process::exit(1);
                }
            };
            let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("graph");
            timings.push(triad_bench::kernels::time_store_workload(
                &format!("store-{stem}"),
                &store,
                1,
                &triad_comm::pool::Pool::current(),
            ));
        }
        match write_kernels_json(std::path::Path::new(&dir), &timings) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("failed to write BENCH_kernels.json to {dir}: {e}");
                std::process::exit(1);
            }
        }
        let cells = chaos_suite(scale);
        let reconnect = reconnect_suite(scale);
        match write_chaos_json(std::path::Path::new(&dir), &cells, &reconnect) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("failed to write BENCH_chaos.json to {dir}: {e}");
                std::process::exit(1);
            }
        }
        ran += 1;
    }
    if ran == 0 {
        eprintln!("unknown experiment id(s) {wanted:?}; available: e1..e17");
        std::process::exit(1);
    }
}
