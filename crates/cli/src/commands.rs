//! The CLI commands.

use crate::args::{ArgMap, CliError};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use triad_comm::{CostModel, Pool};
use triad_graph::partition::Partition;
use triad_graph::store::{
    write_csr, ChungLuStream, DenseCoreStream, EdgeStream, FarStream, GnpStream,
};
use triad_graph::{distance, generators, io as gio, AsCsr, CsrStore, Graph};
use triad_protocols::amplify::{run_amplified_prepared, PreparedInput, Repeatable};
use triad_protocols::{
    run_chaos_amplified, SimProtocolKind, SimultaneousTester, Tuning, UnrestrictedTester,
};

pub(crate) fn load_graph(path: &str) -> Result<Graph, CliError> {
    Ok(gio::read_edge_list(BufReader::new(File::open(path)?))?)
}

/// The tester behind a `--protocol` name. `cost_model` only affects
/// `unrestricted` (the one multi-round protocol); the default
/// [`CostModel::Coordinator`] matches the tester's own default.
fn tester_for(
    protocol: &str,
    tuning: Tuning,
    d: f64,
    cost_model: CostModel,
    repr: triad_comm::PayloadRepr,
) -> Result<Box<dyn Repeatable + Sync>, CliError> {
    Ok(match protocol {
        "unrestricted" => Box::new(UnrestrictedTester::new(tuning).with_cost_model(cost_model)),
        "low" => Box::new(SimultaneousTester::new(
            tuning,
            SimProtocolKind::Low { avg_degree: d },
        )),
        "high" => Box::new(SimultaneousTester::new(
            tuning,
            SimProtocolKind::High { avg_degree: d },
        )),
        "oblivious" => Box::new(SimultaneousTester::new(tuning, SimProtocolKind::Oblivious)),
        "exact" => Box::new(triad_protocols::baseline::SendEverything::with_repr(repr)),
        other => return Err(CliError::Usage(format!("unknown --protocol `{other}`"))),
    })
}

/// Partitions the edges of any CSR backing among `k` players, in-memory,
/// from `--scheme` / `--partition-seed` — how `--graph-file` runs get
/// their shares without share files on disk.
fn partition_for<G: AsCsr + ?Sized>(args: &ArgMap, g: &G) -> Result<Partition, CliError> {
    let k: usize = args.required_parsed("k")?;
    if k == 0 {
        return Err(CliError::Usage("--k must be positive".into()));
    }
    let seed: u64 = args.parsed_or("partition-seed", 0)?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Ok(match args.optional("scheme").unwrap_or("random") {
        "random" => triad_graph::partition::random_disjoint(g, k, &mut rng),
        "duplication" => {
            let p: f64 = args.parsed_or("dup-p", 0.3)?;
            triad_graph::partition::with_duplication(g, k, p, &mut rng)
        }
        "vertex" => triad_graph::partition::by_vertex(g, k),
        other => return Err(CliError::Usage(format!("unknown --scheme `{other}`"))),
    })
}

/// `triad gen` — generate a graph and write it as a text edge list
/// (`--format edges`, the default) or stream it into the binary CSR
/// container of `docs/IO.md` (`--format csr`). The CSR path never
/// materializes the edge list for the `far`, `gnp`, `powerlaw` and
/// `dense-core` families: edges are replayed chunk-by-chunk through the
/// windowed writer, so peak memory is `O(n + window)` regardless of `m`.
pub fn gen(args: &ArgMap) -> Result<String, CliError> {
    let kind = args.required("kind")?;
    let n: usize = args.required_parsed("n")?;
    let out = args.required("out")?;
    let seed: u64 = args.parsed_or("seed", 0)?;
    let format = args.optional("format").unwrap_or("edges");
    if format == "csr" {
        let stream: Box<dyn EdgeStream> = match kind {
            "gnp" => {
                let d: f64 = args.parsed_or("d", 8.0)?;
                Box::new(GnpStream::with_average_degree(n, d, seed)?)
            }
            "far" => {
                let d: f64 = args.parsed_or("d", 8.0)?;
                let eps: f64 = args.parsed_or("eps", 0.2)?;
                Box::new(FarStream::new(n, d, eps, seed)?)
            }
            "powerlaw" => {
                let d: f64 = args.parsed_or("d", 8.0)?;
                let beta: f64 = args.parsed_or("beta", 2.5)?;
                Box::new(ChungLuStream::new(n, d, beta, seed)?)
            }
            "dense-core" => {
                let hubs: usize = args.parsed_or("hubs", 4)?;
                Box::new(DenseCoreStream::new(n, hubs, seed)?)
            }
            // The remaining families have no streaming generator;
            // materialize once and replay the Graph (still one pass
            // over the writer, just not memory-bounded).
            "mu" | "clique-path" => Box::new(gen_graph(args, kind, n, seed)?),
            other => return Err(CliError::Usage(format!("unknown --kind `{other}`"))),
        };
        let summary = write_csr(Path::new(out), stream.as_ref())?;
        return Ok(format!(
            "wrote {out}: n = {}, m = {}, {} bytes in {} window(s) (binary CSR, docs/IO.md)\n",
            summary.vertices, summary.edges, summary.file_bytes, summary.windows
        ));
    }
    if format != "edges" {
        return Err(CliError::Usage(format!(
            "unknown --format `{format}` (expected edges or csr)"
        )));
    }
    let graph = gen_graph(args, kind, n, seed)?;
    gio::write_edge_list(&graph, BufWriter::new(File::create(out)?))?;
    Ok(format!(
        "wrote {out}: n = {}, m = {}, avg degree = {:.2}\n",
        graph.vertex_count(),
        graph.edge_count(),
        graph.average_degree()
    ))
}

/// The in-memory generator behind `triad gen` — shared by the edge-list
/// path and the CSR fallback for families without a streaming form.
fn gen_graph(args: &ArgMap, kind: &str, n: usize, seed: u64) -> Result<Graph, CliError> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let graph = match kind {
        "far" => {
            let d: f64 = args.parsed_or("d", 8.0)?;
            let eps: f64 = args.parsed_or("eps", 0.2)?;
            generators::far_graph(n, d, eps, &mut rng)?
        }
        "gnp" => {
            let d: f64 = args.parsed_or("d", 8.0)?;
            generators::gnp_with_average_degree(n, d, &mut rng)
        }
        "dense-core" => {
            let hubs: usize = args.parsed_or("hubs", 4)?;
            generators::dense_core(n, hubs, &mut rng)?.graph().clone()
        }
        "mu" => {
            if !n.is_multiple_of(3) {
                return Err(CliError::Usage("--n must be divisible by 3 for mu".into()));
            }
            let gamma: f64 = args.parsed_or("gamma", 1.2)?;
            let inst = generators::TripartiteMu::new(n / 3, gamma).sample(&mut rng);
            inst.graph().clone()
        }
        "powerlaw" => {
            let d: f64 = args.parsed_or("d", 8.0)?;
            let beta: f64 = args.parsed_or("beta", 2.5)?;
            generators::ChungLu::new(n, d, beta)?.sample(&mut rng)
        }
        "clique-path" => {
            let clique: usize = args.parsed_or("clique", 18)?;
            let mut b = triad_graph::GraphBuilder::new(n);
            for a in 0..clique as u32 {
                for c in (a + 1)..clique as u32 {
                    b.add_edge(triad_graph::Edge::new(
                        triad_graph::VertexId(a),
                        triad_graph::VertexId(c),
                    ));
                }
            }
            for i in clique as u32..(n as u32).saturating_sub(1) {
                b.add_edge(triad_graph::Edge::new(
                    triad_graph::VertexId(i),
                    triad_graph::VertexId(i + 1),
                ));
            }
            b.build()
        }
        other => return Err(CliError::Usage(format!("unknown --kind `{other}`"))),
    };
    Ok(graph)
}

/// `triad partition` — split edges among k players, one file per share.
pub fn partition(args: &ArgMap) -> Result<String, CliError> {
    let g = load_graph(args.required("graph")?)?;
    let k: usize = args.required_parsed("k")?;
    if k == 0 {
        return Err(CliError::Usage("--k must be positive".into()));
    }
    let prefix = args.required("out")?;
    let scheme = args.optional("scheme").unwrap_or("random");
    let seed: u64 = args.parsed_or("seed", 0)?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let parts = match scheme {
        "random" => triad_graph::partition::random_disjoint(&g, k, &mut rng),
        "duplication" => {
            let p: f64 = args.parsed_or("dup-p", 0.3)?;
            triad_graph::partition::with_duplication(&g, k, p, &mut rng)
        }
        "vertex" => triad_graph::partition::by_vertex(&g, k),
        other => return Err(CliError::Usage(format!("unknown --scheme `{other}`"))),
    };
    for (j, share) in parts.shares().iter().enumerate() {
        let path = format!("{prefix}.{j}");
        let share_graph = {
            let mut b = triad_graph::GraphBuilder::new(g.vertex_count());
            b.extend_edges(share.iter().copied());
            b.build()
        };
        gio::write_edge_list(&share_graph, BufWriter::new(File::create(&path)?))?;
    }
    Ok(format!(
        "wrote {k} shares to {prefix}.0..{prefix}.{}: {} edge copies for {} edges\n",
        k - 1,
        parts.total_copies(),
        g.edge_count()
    ))
}

/// `triad info` — statistics and farness certificates.
pub fn info(args: &ArgMap) -> Result<String, CliError> {
    let g = load_graph(args.required("graph")?)?;
    let eps: f64 = args.parsed_or("eps", 0.1)?;
    let bounds = distance::distance_bounds(&g);
    let mut out = String::new();
    out.push_str(&format!("vertices: {}\n", g.vertex_count()));
    out.push_str(&format!("edges: {}\n", g.edge_count()));
    out.push_str(&format!("average degree: {:.3}\n", g.average_degree()));
    out.push_str(&format!("max degree: {}\n", g.max_degree()));
    // Counted with the pool-parallel kernel: identical to the serial
    // count at any `--threads` / `TRIAD_THREADS` setting.
    let triangle_count =
        triad_graph::kernels::count_triangles_par(&g, &triad_comm::pool::Pool::current());
    out.push_str(&format!("triangles: {triangle_count}\n"));
    out.push_str(&format!(
        "distance to triangle-free: {} ≤ removals ≤ {}\n",
        bounds.lower, bounds.upper
    ));
    out.push_str(&format!(
        "certified {eps}-far: {}\n",
        if distance::is_certifiably_far(&g, eps) {
            "yes"
        } else {
            "no"
        }
    ));
    Ok(out)
}

fn load_shares(prefix: &str, n: usize) -> Result<Vec<Vec<triad_graph::Edge>>, CliError> {
    let mut shares = Vec::new();
    loop {
        let path = format!("{prefix}.{}", shares.len());
        if !Path::new(&path).exists() {
            break;
        }
        let g = load_graph(&path)?;
        if g.vertex_count() != n {
            return Err(CliError::Usage(format!(
                "share {path} declares {} vertices, graph has {n}",
                g.vertex_count()
            )));
        }
        shares.push(g.edges().to_vec());
    }
    if shares.is_empty() {
        return Err(CliError::Usage(format!(
            "no share files found at {prefix}.0"
        )));
    }
    Ok(shares)
}

/// `triad count` — one-round approximate triangle counting.
pub fn count(args: &ArgMap) -> Result<String, CliError> {
    let g = load_graph(args.required("graph")?)?;
    let shares = load_shares(args.required("shares")?, g.vertex_count())?;
    let parts = Partition::new(shares);
    let p: f64 = args.parsed_or("p", 0.3)?;
    if !(0.0..=1.0).contains(&p) || p == 0.0 {
        return Err(CliError::Usage("--p must be in (0, 1]".into()));
    }
    let trials: u64 = args.parsed_or("trials", 5)?;
    let seed: u64 = args.parsed_or("seed", 0)?;
    let (estimate, stats) =
        triad_protocols::counting::estimate_triangles_averaged(&g, &parts, p, trials, seed)?;
    Ok(format!(
        "estimated triangles: {estimate:.1} (p = {p}, {trials} trials, {} total bits)\n",
        stats.total_bits
    ))
}

/// `triad hfree` — one-round H-freeness testing.
pub fn hfree(args: &ArgMap) -> Result<String, CliError> {
    let g = load_graph(args.required("graph")?)?;
    let shares = load_shares(args.required("shares")?, g.vertex_count())?;
    let parts = Partition::new(shares);
    let pattern = match args.required("pattern")? {
        "k3" | "triangle" => triad_graph::subgraphs::Pattern::triangle(),
        "k4" => triad_graph::subgraphs::Pattern::clique(4),
        "k5" => triad_graph::subgraphs::Pattern::clique(5),
        "c4" => triad_graph::subgraphs::Pattern::cycle(4),
        "c5" => triad_graph::subgraphs::Pattern::cycle(5),
        other => return Err(CliError::Usage(format!("unknown --pattern `{other}`"))),
    };
    let eps: f64 = args.parsed_or("eps", 0.2)?;
    let seed: u64 = args.parsed_or("seed", 0)?;
    let d: f64 = args.parsed_or("d", g.average_degree())?;
    let run = triad_protocols::subgraphs::run_h_freeness(
        Tuning::practical(eps),
        pattern,
        &g,
        &parts,
        d.max(0.1),
        seed,
    )?;
    let verdict = match run.witness {
        Some(hosts) => format!(
            "copy found at {}",
            hosts
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ),
        None => "accepted (no copy found)".to_string(),
    };
    Ok(format!(
        "{verdict}\n{} bits, 1 round\n",
        run.stats.total_bits
    ))
}

/// `triad congest` — run the distributed (CONGEST) tester and counter.
pub fn congest(args: &ArgMap) -> Result<String, CliError> {
    let g = load_graph(args.required("graph")?)?;
    let seed: u64 = args.parsed_or("seed", 0)?;
    let max_rounds: usize = args.parsed_or("max-rounds", 200)?;
    let count_iterations: usize = args.parsed_or("count-iterations", 0)?;
    let mut out = String::new();
    let mut net = triad_congest::network::Network::new(&g, seed);
    let res = net.run_until(&triad_congest::triangle::TriangleTester::new(), max_rounds);
    match res.witness {
        Some(t) => out.push_str(&format!(
            "tester: triangle {t} after {} rounds, {} bits (edge cap {} bits/round)\n",
            res.rounds,
            res.total_bits,
            triad_congest::message::Msg::bandwidth_cap(g.vertex_count())
        )),
        None => out.push_str(&format!(
            "tester: accepted after {} rounds, {} bits\n",
            res.rounds, res.total_bits
        )),
    }
    if count_iterations > 0 {
        let est = triad_congest::counting::estimate_triangles(&g, count_iterations, seed);
        out.push_str(&format!(
            "counter: ≈{:.1} triangles ({} iterations, {} bits)\n",
            est.estimate, est.iterations, est.total_bits
        ));
    }
    Ok(out)
}

/// `triad test` — run a protocol over a partitioned input. The input is
/// either a text edge list plus share files (`--graph --shares`) or a
/// binary CSR container partitioned in-process (`--graph-file --k`);
/// the protocol execution and the output format are identical.
pub fn test(args: &ArgMap) -> Result<String, CliError> {
    let protocol = args.required("protocol")?;
    let eps: f64 = args.parsed_or("eps", 0.2)?;
    let seed: u64 = args.parsed_or("seed", 0)?;
    let cost_model = match args.optional("cost-model").unwrap_or("coordinator") {
        "coordinator" => CostModel::Coordinator,
        "blackboard" => CostModel::Blackboard,
        "message-passing" => CostModel::MessagePassing,
        other => return Err(CliError::Usage(format!("unknown --cost-model `{other}`"))),
    };
    let repr: triad_comm::PayloadRepr = args.parsed_or("payload", Default::default())?;
    let tuning = Tuning::practical(eps).with_repr(repr);
    if let Some(path) = args.optional("graph-file") {
        return test_store(args, path, protocol, tuning, cost_model, repr, seed);
    }
    let g = load_graph(args.required("graph")?)?;
    let shares = load_shares(args.required("shares")?, g.vertex_count())?;
    let parts = Partition::new(shares);
    let d: f64 = args.parsed_or("d", g.average_degree())?;
    let breakdown = args
        .optional("breakdown")
        .map(|v| v == "true")
        .unwrap_or(false);
    if breakdown && protocol != "unrestricted" {
        return Err(CliError::Usage(
            "--breakdown is only available for --protocol unrestricted \
             (one-round protocols have a single phase)"
                .into(),
        ));
    }
    if breakdown {
        // The per-label breakdown is read from the runtime's recorder:
        // drive the runtime directly.
        use triad_comm::{Runtime, SharedRandomness, Tally};
        let mut rt = Runtime::<Tally>::local_with(
            g.vertex_count(),
            parts.shares(),
            SharedRandomness::new(seed),
            cost_model,
        );
        let outcome = UnrestrictedTester::new(tuning)
            .with_cost_model(cost_model)
            .run_on(&mut rt);
        let mut out = String::new();
        out.push_str(&match outcome.triangle() {
            Some(t) => format!("triangle {t}\n"),
            None => "accepted (no triangle found)\n".to_string(),
        });
        for row in rt.recorder().breakdown() {
            out.push_str(&format!(
                "  {:<18} {:>10} bits  {:>8} messages\n",
                row.label, row.bits, row.messages
            ));
        }
        out.push_str(&format!(
            "  {:<18} {:>10} bits total\n",
            "=",
            rt.stats().total_bits
        ));
        return Ok(out);
    }
    let reps: u32 = args.parsed_or("reps", 1)?;
    if reps == 0 {
        return Err(CliError::Usage("--reps must be positive".into()));
    }
    // With --reps > 1 the run is amplified: repetitions execute on the
    // configured worker pool (--threads), first witness wins, and cost
    // covers exactly the repetitions a serial loop would have performed.
    let tester = tester_for(protocol, tuning, d, cost_model, repr)?;
    let input = PreparedInput::new(&g, &parts)?;
    let run = run_amplified_prepared(&Pool::current(), &&*tester, &input, reps, seed)?;
    Ok(render_test_run(&run.outcome, &run.stats))
}

/// The `--graph-file` arm of `triad test`: open the binary CSR store
/// (mapped when the platform allows, buffered otherwise), partition its
/// edges in-process, and run the protocol graph-free over a
/// [`PreparedInput::from_partition`] — no [`Graph`] is ever built, so
/// the resident cost is the shares plus whatever pages the kernel keeps
/// warm.
fn test_store(
    args: &ArgMap,
    path: &str,
    protocol: &str,
    tuning: Tuning,
    cost_model: CostModel,
    repr: triad_comm::PayloadRepr,
    seed: u64,
) -> Result<String, CliError> {
    if args.flag("breakdown") {
        return Err(CliError::Usage(
            "--breakdown needs the in-memory runtime; use --graph/--shares, not --graph-file"
                .into(),
        ));
    }
    let reps: u32 = args.parsed_or("reps", 1)?;
    if reps == 0 {
        return Err(CliError::Usage("--reps must be positive".into()));
    }
    let store = CsrStore::open(Path::new(path))?;
    let d: f64 = args.parsed_or("d", store.average_degree())?;
    let parts = partition_for(args, &store)?;
    let input = PreparedInput::from_partition(store.vertex_count(), &parts)?;
    let tester = tester_for(protocol, tuning, d, cost_model, repr)?;
    let run = run_amplified_prepared(&Pool::current(), &&*tester, &input, reps, seed)?;
    Ok(render_test_run(&run.outcome, &run.stats))
}

fn render_test_run(
    outcome: &triad_protocols::TestOutcome,
    stats: &triad_comm::CommStats,
) -> String {
    let verdict = match outcome.triangle() {
        Some(t) => format!("triangle {t}"),
        None => "accepted (no triangle found)".to_string(),
    };
    format!(
        "{verdict}\n{} bits, {} rounds, {} messages, max player message {} bits\n",
        stats.total_bits, stats.rounds, stats.messages, stats.max_player_sent_bits
    )
}

/// `triad chaos` — run a protocol's amplified sweep under a
/// deterministic fault-injection plan and report the quorum-gated
/// verdict with per-kind failure, injection and retransmission
/// accounting. The fault model is documented in `docs/FAULTS.md`.
pub fn chaos(args: &ArgMap) -> Result<String, CliError> {
    use triad_protocols::ChaosOutcome;
    let protocol = args.required("protocol")?;
    let eps: f64 = args.parsed_or("eps", 0.2)?;
    let seed: u64 = args.parsed_or("seed", 0)?;
    let reps: u32 = args.parsed_or("reps", 8)?;
    if reps == 0 {
        return Err(CliError::Usage("--reps must be positive".into()));
    }
    let rate: f64 = args.parsed_or("rate", 0.1)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(CliError::Usage("--rate must be in [0, 1]".into()));
    }
    let quorum: f64 = args.parsed_or("quorum", triad_protocols::DEFAULT_QUORUM)?;
    if !(0.0..=1.0).contains(&quorum) {
        return Err(CliError::Usage("--quorum must be in [0, 1]".into()));
    }
    let fault_seed: u64 = args.parsed_or("fault-seed", seed)?;
    let rates = match args.optional("faults").unwrap_or("mixed") {
        "omission" => triad_comm::FaultRates::omission(rate),
        "mixed" => triad_comm::FaultRates::mixed(rate),
        other => {
            return Err(CliError::Usage(format!(
                "unknown --faults `{other}` (expected omission or mixed)"
            )))
        }
    };
    let plan = triad_comm::FaultPlan::new(fault_seed, rates);
    let repr: triad_comm::PayloadRepr = args.parsed_or("payload", Default::default())?;
    let tuning = Tuning::practical(eps).with_repr(repr);
    // `chaos` has no --cost-model flag; CostModel::Coordinator is the
    // unrestricted tester's own default, so tester_for changes nothing.
    let sweep = |d: f64, input: &PreparedInput<'_>| -> Result<_, CliError> {
        let tester = tester_for(protocol, tuning, d, CostModel::Coordinator, repr)?;
        let pool = &Pool::current();
        Ok(run_chaos_amplified(
            pool, &&*tester, input, reps, seed, &plan, quorum,
        ))
    };
    let run = if let Some(path) = args.optional("graph-file") {
        let store = CsrStore::open(Path::new(path))?;
        let d: f64 = args.parsed_or("d", store.average_degree())?;
        let parts = partition_for(args, &store)?;
        sweep(
            d,
            &PreparedInput::from_partition(store.vertex_count(), &parts)?,
        )?
    } else {
        let g = load_graph(args.required("graph")?)?;
        let shares = load_shares(args.required("shares")?, g.vertex_count())?;
        let parts = Partition::new(shares);
        let d: f64 = args.parsed_or("d", g.average_degree())?;
        sweep(d, &PreparedInput::new(&g, &parts)?)?
    };
    let verdict = match run.outcome {
        ChaosOutcome::TriangleFound(t) => format!("triangle {t}"),
        ChaosOutcome::NoTriangleFound => "accepted (quorum met, no triangle found)".to_string(),
        ChaosOutcome::Inconclusive => {
            "inconclusive (quorum lost; not enough surviving repetitions to accept)".to_string()
        }
    };
    let f = run.failures;
    let i = run.injected;
    Ok(format!(
        "{verdict}\n\
         survived {}/{} repetitions (quorum needs {})\n\
         failures: {} (transport {}, timeout {}, corrupt {}, aborted {})\n\
         injected: {} faults (drops {}, corruptions {}, duplicates {}, delays {}, crashes {})\n\
         {} bits total, {} bits retransmitted\n",
        run.survived,
        run.attempted,
        run.needed,
        f.total(),
        f.transport,
        f.timeout,
        f.corrupt,
        f.aborted,
        i.total(),
        i.drops,
        i.corruptions,
        i.duplicates,
        i.delays,
        i.crashes,
        run.stats.total_bits,
        run.retransmit_bits(),
    ))
}

/// `triad report` — generate an input, run a protocol, and emit a
/// structured cost report (text or JSON) with per-phase and per-player
/// breakdowns plus the paper's predicted bound. The schema is documented
/// in `docs/OBSERVABILITY.md`.
pub fn report(args: &ArgMap) -> Result<String, CliError> {
    use triad_bench::report as engine;
    let protocol = args.required("protocol")?;
    let generator = args.required("gen")?;
    let n: usize = args.required_parsed("n")?;
    let k: usize = args.required_parsed("k")?;
    let d: f64 = args.parsed_or("d", 8.0)?;
    let eps: f64 = args.parsed_or("eps", 0.2)?;
    let seed: u64 = args.parsed_or("seed", 0)?;
    let w = engine::generate(generator, n, d, eps, k, seed)
        .map_err(|e| CliError::Usage(e.to_string()))?;
    let run = engine::run_protocol(protocol, &w, eps, seed).map_err(|e| match e {
        engine::ReportError::Protocol(p) => CliError::Protocol(p),
        other => CliError::Usage(other.to_string()),
    })?;
    let cost = engine::report_for_run(
        triad_comm::ReportParams {
            protocol: protocol.to_string(),
            generator: generator.to_string(),
            n,
            k,
            d: w.d,
            eps,
            seed,
        },
        &run,
    );
    if let Some(path) = args.optional("transcript") {
        run.transcript
            .write_events_json(BufWriter::new(File::create(path)?))?;
    }
    let rendered = if args.flag("json") {
        format!("{}\n", cost.to_json())
    } else {
        cost.to_text()
    };
    if let Some(path) = args.optional("out") {
        use std::io::Write;
        File::create(path)?.write_all(rendered.as_bytes())?;
        return Ok(format!("wrote {path}\n"));
    }
    Ok(rendered)
}

/// `triad bench --graph-file FILE.csr [--reps R]` — open a binary CSR
/// container and time the triangle kernels plus a prepared protocol run
/// directly over its backing (mapped or buffered), reporting the memory
/// evidence — file size, owned heap bytes, peak RSS — alongside the
/// timings.
pub fn bench(args: &ArgMap) -> Result<String, CliError> {
    let path = args.required("graph-file")?;
    let reps: usize = args.parsed_or("reps", 3)?;
    if reps == 0 {
        return Err(CliError::Usage("--reps must be positive".into()));
    }
    let store = CsrStore::open(Path::new(path))?;
    let pool = triad_comm::pool::Pool::current();
    let name = Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("store");
    let t = triad_bench::kernels::time_store_workload(name, &store, reps, &pool);
    let mut out = format!(
        "store bench: {path} (n = {}, m = {}, {} file bytes, backing = {})\n",
        store.vertex_count(),
        store.edge_count(),
        store.file_bytes(),
        if store.mapped() { "mmap" } else { "owned" },
    );
    out.push_str(&format!(
        "  forward kernel:  {:>10.3} ms  ({} triangles)\n",
        t.kernel_count_ms, t.triangles
    ));
    out.push_str(&format!(
        "  parallel kernel: {:>10.3} ms  ({} thread(s))\n",
        t.par_count_ms, t.par_threads
    ));
    if let Some(ms) = t.sim_test_ms {
        out.push_str(&format!(
            "  sim-low test:    {:>10.3} ms  (prepared, graph-free)\n",
            ms
        ));
    }
    out.push_str(&format!(
        "  owned heap: {} bytes{}\n",
        t.store_owned_bytes.unwrap_or(0),
        match t.peak_rss_mb {
            Some(rss) => format!("; peak RSS {rss:.1} MiB"),
            None => String::new(),
        }
    ));
    if let Some(ms) = t.transpose_ms {
        out.push_str(&format!(
            "  full rows:       {:>10.3} ms  (transpose, timed last; not in the heap above)\n",
            ms
        ));
    }
    Ok(out)
}
