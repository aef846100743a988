//! Implementation of the `triad` command-line interface.
//!
//! Kept as a library so every command is unit-testable without spawning
//! processes; [`run`] takes raw arguments and returns the stdout text.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod args;
mod commands;
mod net;

pub use args::{ArgMap, CliError};

/// The usage text printed on argument errors.
pub const USAGE: &str = "\
usage: triad <command> [options]

commands:
  gen        generate a graph
             --kind far|gnp|dense-core|mu|clique-path|powerlaw  --n N  --out FILE
             [--d D] [--eps E] [--seed S] [--hubs H] [--gamma G] [--clique C] [--beta B]
             [--format edges|csr]   (csr streams edges straight into the
             binary container of docs/IO.md — far/gnp/powerlaw/dense-core
             never materialize the edge list, so million-edge graphs
             write in O(n + window) memory)
  partition  split a graph's edges among k players
             --graph FILE  --k K  --out PREFIX
             [--scheme random|duplication|vertex] [--dup-p P] [--seed S]
  info       print graph statistics and farness certificates
             --graph FILE [--eps E]
  test       run a testing protocol over a partitioned input
             --graph FILE  --shares PREFIX  --protocol unrestricted|low|high|oblivious|exact
             (or out-of-core: --graph-file FILE.csr --k K
             [--scheme random|duplication|vertex] [--dup-p P]
             [--partition-seed S] — opens the binary CSR container of
             docs/IO.md read-only (mmap when available), partitions its
             edges in-process, and runs graph-free; --breakdown needs
             the in-memory path)
             [--eps E] [--seed S] [--cost-model coordinator|blackboard|message-passing]
             [--d D] [--breakdown true]   (per-phase bits; unrestricted only)
             [--reps R]   (amplify: up to R repetitions, first witness wins)
             [--payload auto|edges|bits]   (edge-payload representation;
             verdicts and recorded bits are identical, see docs/RUNTIME.md)
  chaos      run a protocol's amplified sweep under deterministic fault
             injection and report the quorum-gated verdict (docs/FAULTS.md)
             --graph FILE  --shares PREFIX  --protocol unrestricted|low|high|oblivious|exact
             (or out-of-core: --graph-file FILE.csr --k K [--scheme …]
             [--partition-seed S], exactly as in `test`)
             [--rate R] [--faults omission|mixed] [--fault-seed S]
             [--reps R] [--quorum Q] [--eps E] [--seed S] [--d D]
             [--payload auto|edges|bits]
  count      estimate the triangle count in one round
             --graph FILE  --shares PREFIX  [--p P] [--trials T] [--seed S]
  hfree      test H-freeness in one round
             --graph FILE  --shares PREFIX  --pattern k3|k4|k5|c4|c5
             [--eps E] [--seed S] [--d D]
  congest    run the distributed (CONGEST) tester, optionally counting
             --graph FILE [--max-rounds R] [--count-iterations I] [--seed S]
  report     generate an input, run a protocol, and emit a structured cost
             report (see docs/OBSERVABILITY.md for the JSON schema)
             --protocol unrestricted|sim-low|sim-high|sim-oblivious|exact
             --gen planted|gnp|powerlaw|dense-core  --n N  --k K
             [--d D] [--eps E] [--seed S] [--json] [--out FILE] [--transcript FILE]
  serve      host a networked coordinator run over TCP; waits for k
             players, drives the protocol, prints the `triad test`
             verdict/stats lines (wire format: docs/NETWORKING.md)
             --bind ADDR  --k K  --protocol unrestricted|low|high|oblivious|exact
             (--graph FILE | --n N)
             [--eps E] [--seed S] [--d D] [--cost-model M]
             [--payload auto|edges|bits] [--timeout-secs T] [--port-file FILE]   (written after bind,
             so `--bind 127.0.0.1:0` publishes its ephemeral port; removed
             on graceful exit)
             [--runs R]   (persistent mode: keep the registered players
             and dispatch R successive sessions over the one
             registration, re-seeding each via AdoptShared —
             docs/NETWORKING.md)
             [--auth-token T]   (require every Hello to present this
             shared secret; mismatches get a typed Unauthorized frame)
             [--window-ms W]   (hold a slot whose connection dies mid-run
             open for W ms awaiting a resume claim; an expired window
             degrades that run to inconclusive and the daemon proceeds —
             docs/NETWORKING.md)
             [--deadline-ms D]   (census deadline: how long to wait for
             all k registrations; defaults to --timeout-secs)
  connect    join a `triad serve` run as one player; loads the share
             `PREFIX.J` for the slot the coordinator assigns
             --addr HOST:PORT  --shares PREFIX
             [--slot J] [--timeout-secs T] [--auth-token T]
             [--connect-retries N] [--backoff-ms B]   (bounded exponential
             backoff on refused dials and rejoin races; also bounds
             mid-run reconnect attempts)
             [--session-file FILE]   (persist the resume credential so a
             relaunched process reclaims its slot inside the daemon's
             reconnect window; removed on a clean farewell)
  bench      time the triangle kernels and one prepared protocol run
             over an out-of-core binary CSR container, with peak-RSS /
             owned-bytes evidence
             --graph-file FILE.csr  [--reps R]

global options:
  --threads N  size of the deterministic worker pool for amplified runs
               and sweeps (default: TRIAD_THREADS or available
               parallelism; output is identical at every thread count —
               see docs/PARALLELISM.md)
";

/// Executes one CLI invocation, returning the text to print.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for malformed arguments and other
/// variants for I/O or protocol failures.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let (command, rest) = args
        .split_first()
        .ok_or_else(|| CliError::Usage("missing command".into()))?;
    let map = ArgMap::parse(rest)?;
    if let Some(raw) = map.optional("threads") {
        let threads: usize = raw.parse().ok().filter(|n| *n > 0).ok_or_else(|| {
            CliError::Usage(format!("--threads needs a positive integer, got `{raw}`"))
        })?;
        triad_comm::pool::set_threads(threads);
    }
    match command.as_str() {
        "gen" => commands::gen(&map),
        "partition" => commands::partition(&map),
        "info" => commands::info(&map),
        "test" => commands::test(&map),
        "chaos" => commands::chaos(&map),
        "count" => commands::count(&map),
        "hfree" => commands::hfree(&map),
        "congest" => commands::congest(&map),
        "report" => commands::report(&map),
        "bench" => commands::bench(&map),
        "serve" => net::serve(&map),
        "connect" => net::connect(&map),
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn unknown_command_is_usage_error() {
        let err = run(&argv("frobnicate --x 1")).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn missing_command_is_usage_error() {
        assert!(matches!(run(&[]).unwrap_err(), CliError::Usage(_)));
    }

    #[test]
    fn end_to_end_pipeline_in_tempdir() {
        let dir = std::env::temp_dir().join(format!("triad-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = dir.join("g.el");
        let shares = dir.join("p");
        let out = run(&argv(&format!(
            "gen --kind far --n 400 --d 8 --eps 0.2 --seed 1 --out {}",
            g.display()
        )))
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        let out = run(&argv(&format!(
            "partition --graph {} --k 4 --scheme random --seed 2 --out {}",
            g.display(),
            shares.display()
        )))
        .unwrap();
        assert!(out.contains("4 shares"), "{out}");
        let out = run(&argv(&format!("info --graph {} --eps 0.2", g.display()))).unwrap();
        assert!(out.contains("vertices: 400"), "{out}");
        assert!(out.contains("certified 0.2-far: yes"), "{out}");
        let out = run(&argv(&format!(
            "test --graph {} --shares {} --protocol low --eps 0.2 --seed 3 --d 8",
            g.display(),
            shares.display()
        )))
        .unwrap();
        assert!(out.contains("bits"), "{out}");
        assert!(
            out.contains("triangle") || out.contains("accepted"),
            "{out}"
        );
        // A sweep and a fault-free chaos sweep run the one repetition
        // body with and without a fault plan: same verdict, same bits.
        let sweep = |cmd: &str| {
            run(&argv(&format!(
                "{cmd} --graph {} --shares {} --protocol low --eps 0.2 --seed 3 --d 8 --reps 4",
                g.display(),
                shares.display()
            )))
            .unwrap()
        };
        let plain = sweep("test");
        let chaos = sweep("chaos --rate 0");
        let verdict = |out: &str| {
            out.lines()
                .next()
                .unwrap()
                .split(" (")
                .next()
                .unwrap()
                .to_string()
        };
        let bits = |out: &str, suffix: &str| {
            let line = out.lines().find(|l| l.contains(suffix)).unwrap();
            line.split(' ').next().unwrap().to_string()
        };
        assert_eq!(verdict(&plain), verdict(&chaos), "{plain}\n{chaos}");
        assert_eq!(
            bits(&plain, " bits, "),
            bits(&chaos, " bits total, "),
            "{plain}\n{chaos}"
        );
        let out = run(&argv(&format!(
            "count --graph {} --shares {} --p 0.5 --trials 4",
            g.display(),
            shares.display()
        )))
        .unwrap();
        assert!(out.contains("estimated triangles"), "{out}");
        let out = run(&argv(&format!(
            "hfree --graph {} --shares {} --pattern k3 --eps 0.2",
            g.display(),
            shares.display()
        )))
        .unwrap();
        assert!(
            out.contains("copy found") || out.contains("accepted"),
            "{out}"
        );
        let out = run(&argv(&format!(
            "congest --graph {} --max-rounds 100 --count-iterations 10",
            g.display()
        )))
        .unwrap();
        assert!(out.contains("tester:"), "{out}");
        assert!(out.contains("counter:"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_json_phases_sum_to_total_bits() {
        // The ISSUE acceptance command: a self-contained report run whose
        // per-phase bit totals partition the measured total exactly.
        let out = run(&argv(
            "report --protocol sim-oblivious --gen planted --n 1024 --k 8 --json",
        ))
        .unwrap();
        let total: u64 = out
            .lines()
            .find_map(|l| l.trim().strip_prefix("\"total_bits\": "))
            .and_then(|v| v.trim_end_matches(',').parse().ok())
            .expect("total_bits field");
        assert!(total > 0);
        let phases_block = out
            .split("\"phases\": [")
            .nth(1)
            .and_then(|rest| rest.split(']').next())
            .expect("phases array");
        let phase_sum: u64 = phases_block
            .split("\"bits\":")
            .skip(1)
            .map(|s| {
                s.split(',')
                    .next()
                    .unwrap()
                    .trim()
                    .parse::<u64>()
                    .expect("bits value")
            })
            .sum();
        assert_eq!(
            phase_sum, total,
            "per-phase bits must partition total_bits:\n{out}"
        );
        assert!(out.contains("\"schema_version\": 1"), "{out}");
        assert!(out.contains("\"predicted\": {\"formula\": "), "{out}");
    }

    #[test]
    fn report_writes_transcript_and_out_files() {
        let dir = std::env::temp_dir().join(format!("triad-cli-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let report_path = dir.join("report.json");
        let events_path = dir.join("events.json");
        let out = run(&argv(&format!(
            "report --protocol unrestricted --gen planted --n 300 --k 4 --d 6 --eps 0.2 \
             --seed 3 --json --out {} --transcript {}",
            report_path.display(),
            events_path.display()
        )))
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        let report = std::fs::read_to_string(&report_path).unwrap();
        assert!(
            report.contains("\"protocol\": \"unrestricted\""),
            "{report}"
        );
        let events = std::fs::read_to_string(&events_path).unwrap();
        let parsed = triad_comm::parse_events_json(&events).unwrap();
        assert!(!parsed.is_empty());
        let event_bits: u64 = parsed.iter().map(|e| e.bits).sum();
        let total: u64 = report
            .lines()
            .find_map(|l| l.trim().strip_prefix("\"total_bits\": "))
            .and_then(|v| v.trim_end_matches(',').parse().ok())
            .unwrap();
        assert_eq!(
            event_bits, total,
            "exported events must carry every charged bit"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn experiments_md_commands_parse() {
        // Every `triad …` command listed in EXPERIMENTS.md must stay
        // valid: known subcommand, parseable arguments, and all options
        // the subcommand requires present.
        let md = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md"),
        )
        .expect("EXPERIMENTS.md at repo root");
        let commands: Vec<&str> = md
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with("triad "))
            .collect();
        assert!(
            commands.len() >= 8,
            "EXPERIMENTS.md should list the triad report commands, found {commands:?}"
        );
        for line in commands {
            let tokens = argv(line.strip_prefix("triad ").unwrap());
            let (command, rest) = tokens.split_first().unwrap();
            let map = ArgMap::parse(rest).unwrap_or_else(|e| panic!("`{line}`: {e}"));
            match command.as_str() {
                "report" => {
                    for key in ["protocol", "gen"] {
                        map.required(key)
                            .unwrap_or_else(|e| panic!("`{line}`: {e}"));
                    }
                    map.required_parsed::<usize>("n")
                        .unwrap_or_else(|e| panic!("`{line}`: {e}"));
                    map.required_parsed::<usize>("k")
                        .unwrap_or_else(|e| panic!("`{line}`: {e}"));
                }
                "chaos" => {
                    map.required("protocol")
                        .unwrap_or_else(|e| panic!("`{line}`: {e}"));
                    if map.optional("graph-file").is_some() {
                        map.required_parsed::<usize>("k")
                            .unwrap_or_else(|e| panic!("`{line}`: {e}"));
                    } else {
                        for key in ["graph", "shares"] {
                            map.required(key)
                                .unwrap_or_else(|e| panic!("`{line}`: {e}"));
                        }
                    }
                }
                "serve" => {
                    for key in ["bind", "k", "protocol"] {
                        map.required(key)
                            .unwrap_or_else(|e| panic!("`{line}`: {e}"));
                    }
                    if map.optional("graph").is_none() {
                        map.required_parsed::<usize>("n")
                            .unwrap_or_else(|e| panic!("`{line}`: {e}"));
                    }
                }
                "connect" => {
                    for key in ["addr", "shares"] {
                        map.required(key)
                            .unwrap_or_else(|e| panic!("`{line}`: {e}"));
                    }
                }
                "bench" => {
                    map.required("graph-file")
                        .unwrap_or_else(|e| panic!("`{line}`: {e}"));
                }
                "gen" | "partition" | "info" | "test" | "count" | "hfree" | "congest" => {}
                other => panic!("`{line}`: unknown subcommand `{other}`"),
            }
        }
    }

    #[test]
    fn chaos_command_reports_quorum_verdicts() {
        let dir = std::env::temp_dir().join(format!("triad-cli-chaos-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = dir.join("g.el");
        let shares = dir.join("p");
        run(&argv(&format!(
            "gen --kind far --n 300 --d 6 --eps 0.2 --seed 1 --out {}",
            g.display()
        )))
        .unwrap();
        run(&argv(&format!(
            "partition --graph {} --k 3 --seed 2 --out {}",
            g.display(),
            shares.display()
        )))
        .unwrap();
        // Fault-free chaos is the plain amplified run: the far graph's
        // witness must surface exactly as `triad test` finds it.
        let clean = run(&argv(&format!(
            "chaos --graph {} --shares {} --protocol unrestricted --eps 0.2 --seed 3 \
             --reps 4 --rate 0.0",
            g.display(),
            shares.display()
        )))
        .unwrap();
        assert!(clean.contains("triangle"), "{clean}");
        assert!(clean.contains("failures: 0"), "{clean}");
        assert!(clean.contains("0 bits retransmitted"), "{clean}");
        // Total omission kills every repetition: the verdict must be an
        // explicit refusal, never an accept.
        let dark = run(&argv(&format!(
            "chaos --graph {} --shares {} --protocol unrestricted --eps 0.2 --seed 3 \
             --reps 4 --rate 1.0 --faults omission",
            g.display(),
            shares.display()
        )))
        .unwrap();
        assert!(dark.contains("inconclusive"), "{dark}");
        assert!(dark.contains("survived 0/4"), "{dark}");
        let err = run(&argv(&format!(
            "chaos --graph {} --shares {} --protocol unrestricted --faults always",
            g.display(),
            shares.display()
        )))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Polls `path` until the serve side has published its ephemeral
    /// port, then returns the `host:port` it wrote.
    fn wait_for_port_file(path: &std::path::Path) -> String {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        loop {
            if let Ok(s) = std::fs::read_to_string(path) {
                let s = s.trim().to_string();
                if !s.is_empty() {
                    return s;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "serve never published {path:?}"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }

    /// One full serve/connect cycle over loopback, entirely in-process:
    /// returns (serve output, connect outputs). `extra` is appended to
    /// the serve command (e.g. `--runs 2`), `connect_extra` to every
    /// connect command (e.g. `--auth-token s3cr3t`).
    fn loopback_cycle_with(
        dir: &std::path::Path,
        g: &std::path::Path,
        shares: &std::path::Path,
        protocol: &str,
        k: usize,
        extra: &str,
        connect_extra: &str,
    ) -> (String, Vec<String>) {
        let port_file = dir.join(format!("port-{protocol}"));
        let serve_cmd = format!(
            "serve --bind 127.0.0.1:0 --k {k} --protocol {protocol} --graph {} \
             --eps 0.2 --seed 3 --d 8 --port-file {} --timeout-secs 20 {extra}",
            g.display(),
            port_file.display()
        );
        let server = std::thread::spawn(move || run(&argv(&serve_cmd)));
        let addr = wait_for_port_file(&port_file);
        let players: Vec<_> = (0..k)
            .map(|_| {
                let connect_cmd = format!(
                    "connect --addr {addr} --shares {} --timeout-secs 20 {connect_extra}",
                    shares.display()
                );
                std::thread::spawn(move || run(&argv(&connect_cmd)))
            })
            .collect();
        let served = server.join().unwrap().unwrap();
        let connected = players
            .into_iter()
            .map(|p| p.join().unwrap().unwrap())
            .collect();
        (served, connected)
    }

    /// [`loopback_cycle_with`] without connect-side extras.
    fn loopback_cycle(
        dir: &std::path::Path,
        g: &std::path::Path,
        shares: &std::path::Path,
        protocol: &str,
        k: usize,
        extra: &str,
    ) -> (String, Vec<String>) {
        loopback_cycle_with(dir, g, shares, protocol, k, extra, "")
    }

    #[test]
    fn serve_connect_loopback_matches_triad_test_byte_for_byte() {
        // The ISSUE acceptance scenario: a k=3 run over loopback TCP
        // must print the same verdict and bit-accounting lines as the
        // in-process `triad test` over the same partition — the
        // recorders charge logical bits, never wire bytes.
        let dir = std::env::temp_dir().join(format!("triad-cli-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = dir.join("g.el");
        let shares = dir.join("p");
        run(&argv(&format!(
            "gen --kind far --n 300 --d 8 --eps 0.2 --seed 1 --out {}",
            g.display()
        )))
        .unwrap();
        run(&argv(&format!(
            "partition --graph {} --k 3 --scheme random --seed 2 --out {}",
            g.display(),
            shares.display()
        )))
        .unwrap();
        for protocol in ["low", "unrestricted"] {
            let reference = run(&argv(&format!(
                "test --graph {} --shares {} --protocol {protocol} --eps 0.2 --seed 3 \
                 --d 8 --reps 1",
                g.display(),
                shares.display()
            )))
            .unwrap();
            let (served, connected) = loopback_cycle(&dir, &g, &shares, protocol, 3, "");
            let expected: Vec<&str> = reference.lines().collect();
            let got: Vec<&str> = served.lines().collect();
            assert_eq!(
                &got[..2], &expected[..2],
                "{protocol}: served run diverged from triad test\nserved:\n{served}\nreference:\n{reference}"
            );
            assert!(got[2].contains("served 3 players"), "{served}");
            for out in &connected {
                assert!(out.contains("coordinator verdict:"), "{out}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_persistent_mode_runs_two_sessions_over_one_registration() {
        // Persistent mode: `--runs 2` dispatches two sessions over the
        // one registration. Session 0 must match the single-run seed
        // derivation exactly — its lines are `triad test --reps 1`'s
        // first two lines under a `run 0:` prefix — and the players
        // must be re-keyed (AdoptShared), not re-registered.
        let dir = std::env::temp_dir().join(format!("triad-cli-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = dir.join("g.el");
        let shares = dir.join("p");
        run(&argv(&format!(
            "gen --kind far --n 300 --d 8 --eps 0.2 --seed 1 --out {}",
            g.display()
        )))
        .unwrap();
        run(&argv(&format!(
            "partition --graph {} --k 3 --scheme random --seed 2 --out {}",
            g.display(),
            shares.display()
        )))
        .unwrap();
        let reference = run(&argv(&format!(
            "test --graph {} --shares {} --protocol low --eps 0.2 --seed 3 --d 8 --reps 1",
            g.display(),
            shares.display()
        )))
        .unwrap();
        let (served, connected) = loopback_cycle(&dir, &g, &shares, "low", 3, "--runs 2");
        let expected: Vec<&str> = reference.lines().collect();
        let got: Vec<&str> = served.lines().collect();
        assert_eq!(got.len(), 5, "2 runs x 2 lines + roster:\n{served}");
        assert_eq!(got[0], format!("run 0: {}", expected[0]), "{served}");
        assert_eq!(got[1], format!("run 0: {}", expected[1]), "{served}");
        assert!(got[2].starts_with("run 1: "), "{served}");
        assert!(got[3].starts_with("run 1: "), "{served}");
        assert!(
            got[4].contains("served 3 players") && got[4].contains("2 sessions"),
            "{served}"
        );
        // Each player answered both sessions over its one connection.
        for out in &connected {
            assert!(out.contains("served 2 requests"), "{out}");
            assert!(out.contains("coordinator verdict:"), "{out}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn port_file_is_atomic_and_removed_on_exit() {
        // A concurrent poller hammering the port file must only ever
        // see nothing or one complete `host:port` line (the write is
        // temp-file + rename), and the file must be gone once serve
        // returns.
        let dir = std::env::temp_dir().join(format!("triad-cli-portfile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = dir.join("g.el");
        let shares = dir.join("p");
        run(&argv(&format!(
            "gen --kind far --n 200 --d 6 --eps 0.2 --seed 1 --out {}",
            g.display()
        )))
        .unwrap();
        run(&argv(&format!(
            "partition --graph {} --k 1 --seed 2 --out {}",
            g.display(),
            shares.display()
        )))
        .unwrap();
        let port_file = dir.join("port");
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reader = {
            let path = port_file.clone();
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut reads = 0u64;
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    if let Ok(s) = std::fs::read_to_string(&path) {
                        reads += 1;
                        assert!(
                            s.ends_with('\n') && s.trim().parse::<std::net::SocketAddr>().is_ok(),
                            "partial port-file read: {s:?}"
                        );
                    }
                    std::thread::yield_now();
                }
                reads
            })
        };
        let serve_cmd = format!(
            "serve --bind 127.0.0.1:0 --k 1 --protocol exact --graph {} \
             --seed 3 --port-file {} --timeout-secs 20",
            g.display(),
            port_file.display()
        );
        let server = std::thread::spawn(move || run(&argv(&serve_cmd)));
        let addr = wait_for_port_file(&port_file);
        let connect_cmd = format!(
            "connect --addr {addr} --shares {} --timeout-secs 20",
            shares.display()
        );
        let player = std::thread::spawn(move || run(&argv(&connect_cmd)));
        server.join().unwrap().unwrap();
        player.join().unwrap().unwrap();
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        let reads = reader.join().unwrap();
        assert!(reads > 0, "the poller never saw the published port");
        assert!(
            !port_file.exists(),
            "port file must be removed on graceful exit"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_without_a_graph_file_is_a_usage_error() {
        for bad in ["bench", "bench --reps 2", "bench --sessions 2 --quick"] {
            let err = run(&argv(bad)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "`{bad}`: {err}");
            assert!(err.to_string().contains("--graph-file"), "`{bad}`: {err}");
        }
    }

    #[test]
    fn serve_rejects_bad_arguments() {
        for bad in [
            "serve --bind 127.0.0.1:0 --k 0 --protocol low --n 10",
            "serve --bind 127.0.0.1:0 --k 2 --protocol nope --n 10",
            "serve --bind 127.0.0.1:0 --k 2 --protocol low", // no --n/--graph
            "serve --k 2 --protocol low --n 10",             // no --bind
            "serve --bind 127.0.0.1:0 --k 2 --protocol low --n 10 --runs 0",
            "serve --bind 127.0.0.1:0 --k 2 --protocol low --n 10 --deadline-ms 0",
            "serve --bind 127.0.0.1:0 --k 2 --protocol low --n 10 --deadline-ms soon",
            "serve --bind 127.0.0.1:0 --k 2 --protocol low --n 10 --window-ms forever",
        ] {
            let err = run(&argv(bad)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "`{bad}`: {err}");
        }
        for bad in [
            "connect --addr 127.0.0.1:1",
            "connect --addr 127.0.0.1:1 --shares x --connect-retries lots",
            "connect --addr 127.0.0.1:1 --shares x --backoff-ms slow",
        ] {
            let err = run(&argv(bad)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "`{bad}`: {err}");
        }
    }

    #[test]
    fn serve_with_auth_token_gates_clients_and_session_files_are_retired() {
        // An authenticated daemon with a reconnect window: a client with
        // the wrong token is refused with a typed error, clients with
        // the right token complete the run byte-identically to an
        // unauthenticated one, and the resume credential written to
        // --session-file is removed again on the clean farewell.
        let dir = std::env::temp_dir().join(format!("triad-cli-auth-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = dir.join("g.el");
        let shares = dir.join("p");
        run(&argv(&format!(
            "gen --kind far --n 200 --d 6 --eps 0.2 --seed 1 --out {}",
            g.display()
        )))
        .unwrap();
        run(&argv(&format!(
            "partition --graph {} --k 1 --seed 2 --out {}",
            g.display(),
            shares.display()
        )))
        .unwrap();
        let port_file = dir.join("port-auth");
        let session_file = dir.join("session.0");
        let serve_cmd = format!(
            "serve --bind 127.0.0.1:0 --k 1 --protocol exact --graph {} --seed 3 \
             --port-file {} --timeout-secs 20 --auth-token s3cr3t --window-ms 5000",
            g.display(),
            port_file.display()
        );
        let server = std::thread::spawn(move || run(&argv(&serve_cmd)));
        let addr = wait_for_port_file(&port_file);
        // Wrong token: refused with a typed NetError, daemon survives.
        let err = run(&argv(&format!(
            "connect --addr {addr} --shares {} --timeout-secs 20 --auth-token nope",
            shares.display()
        )))
        .unwrap_err();
        assert!(err.to_string().contains("unauthorized"), "{err}");
        // Right token: the run completes and the session file — written
        // while serving (the daemon issued a live nonce) — is retired
        // with the farewell.
        let out = run(&argv(&format!(
            "connect --addr {addr} --shares {} --timeout-secs 20 --auth-token s3cr3t \
             --session-file {}",
            shares.display(),
            session_file.display()
        )))
        .unwrap();
        assert!(out.contains("coordinator verdict:"), "{out}");
        let served = server.join().unwrap().unwrap();
        assert!(served.contains("served 1 players"), "{served}");
        assert!(
            !session_file.exists(),
            "a clean farewell must retire the resume credential"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_reports_a_remote_edge_outside_the_graph_as_inconclusive() {
        // The wire decoder cannot bound endpoints by n, so a player whose
        // one-round message posts (0, n) — as an edge list or as a bitset
        // over a larger n — must end the run `inconclusive`, naming the
        // player, instead of panicking the coordinator's referee.
        use std::borrow::Cow;
        use triad_comm::{Payload, PlayerSession, PlayerState, SimMessage};
        use triad_graph::kernels::EdgeBitset;
        use triad_graph::{Edge, VertexId};
        let dir = std::env::temp_dir().join(format!("triad-cli-range-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let n = 50usize;
        let bad = Edge::new(VertexId(0), VertexId(n as u32));
        for payload in ["edges", "bits"] {
            let port_file = dir.join(format!("port-{payload}"));
            let serve_cmd = format!(
                "serve --bind 127.0.0.1:0 --k 1 --protocol low --n {n} --d 4 --seed 3 \
                 --port-file {} --timeout-secs 20",
                port_file.display()
            );
            let server = std::thread::spawn(move || run(&argv(&serve_cmd)));
            let addr = wait_for_port_file(&port_file);
            let session = PlayerSession::connect_with(addr.as_str(), &Default::default()).unwrap();
            let state = PlayerState::new(0, n, &[]);
            let summary = session
                .serve(&state, move |_, _| {
                    SimMessage::of(match payload {
                        "edges" => Payload::Edges(vec![bad].into()),
                        _ => Payload::EdgeBits(Cow::Owned(EdgeBitset::from_edges(n + 1, [bad]))),
                    })
                })
                .unwrap();
            let served = server.join().unwrap().unwrap();
            assert!(served.starts_with("inconclusive"), "{payload}: {served}");
            assert!(
                served.contains(&format!("player 0 posted edge {bad}")),
                "{payload}: {served}"
            );
            assert!(summary.farewell.unwrap().starts_with("inconclusive"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_core_pipeline_runs_every_protocol_graph_free() {
        // gen --format csr writes the docs/IO.md container; test, chaos
        // and bench then run straight over the mapping (or the buffered
        // fallback under TRIAD_NO_MMAP) without ever loading an edge
        // list — and repeated runs are deterministic.
        let dir = std::env::temp_dir().join(format!("triad-cli-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csr = dir.join("g.csr");
        let out = run(&argv(&format!(
            "gen --kind far --n 600 --d 8 --eps 0.2 --seed 1 --format csr --out {}",
            csr.display()
        )))
        .unwrap();
        assert!(out.contains("binary CSR"), "{out}");
        for protocol in ["unrestricted", "low", "high", "oblivious", "exact"] {
            let cmd = format!(
                "test --graph-file {} --k 4 --protocol {protocol} --eps 0.2 --seed 3 --reps 2",
                csr.display()
            );
            let first = run(&argv(&cmd)).unwrap();
            assert!(first.contains("bits"), "{protocol}: {first}");
            assert_eq!(
                first,
                run(&argv(&cmd)).unwrap(),
                "{protocol} not deterministic"
            );
        }
        let chaos_out = run(&argv(&format!(
            "chaos --graph-file {} --k 3 --scheme vertex --protocol low --reps 4 --rate 0.0",
            csr.display()
        )))
        .unwrap();
        assert!(chaos_out.contains("failures: 0"), "{chaos_out}");
        assert!(chaos_out.contains("0 bits retransmitted"), "{chaos_out}");
        let bench_out = run(&argv(&format!(
            "bench --graph-file {} --reps 1",
            csr.display()
        )))
        .unwrap();
        assert!(bench_out.contains("store bench:"), "{bench_out}");
        assert!(bench_out.contains("forward kernel:"), "{bench_out}");
        // The in-memory-only switches are refused with a hint, not
        // silently ignored.
        for bad in [
            format!(
                "test --graph-file {} --k 4 --protocol unrestricted --breakdown",
                csr.display()
            ),
            format!("test --graph-file {} --k 0 --protocol low", csr.display()),
            format!(
                "gen --kind far --n 60 --format json --out {}",
                dir.join("x").display()
            ),
        ] {
            let err = run(&argv(&bad)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "`{bad}`: {err}");
        }
        // A truncated container is rejected up front (CliError::Store).
        let bytes = std::fs::read(&csr).unwrap();
        let cut = dir.join("cut.csr");
        std::fs::write(&cut, &bytes[..bytes.len() / 2]).unwrap();
        let err = run(&argv(&format!(
            "test --graph-file {} --k 4 --protocol low",
            cut.display()
        )))
        .unwrap_err();
        assert!(matches!(err, CliError::Store(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn test_rejects_missing_share_files() {
        let dir = std::env::temp_dir().join(format!("triad-cli-miss-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = dir.join("g.el");
        run(&argv(&format!(
            "gen --kind gnp --n 50 --d 4 --seed 1 --out {}",
            g.display()
        )))
        .unwrap();
        let err = run(&argv(&format!(
            "test --graph {} --shares {}/nope --protocol exact",
            g.display(),
            dir.display()
        )))
        .unwrap_err();
        assert!(err.to_string().contains("share"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
