//! The in-process workloads: `compile`, `translate` and `aot`.
//!
//! One generator thread runs every operation. Request classes are taken
//! in round-robin order, so a machine-wide speed phase hits every class
//! alike. Evaluation uses the RAM-backed APT, so no disk is touched in
//! the timed path.

use crate::inputs::{self, Case, Expect, Rng, CASES_PER_CLASS};
use crate::metrics::{peak_rss_mb, Outcome};
use crate::speed::Speedometer;
use crate::stats;
use crate::trace::{self, Tracer};
use linguist_ag::analysis::{Analysis, Config};
use linguist_ag::check::check_completeness;
use linguist_ag::circularity::check_noncircular;
use linguist_ag::implicit::insert_implicit_copies;
use linguist_ag::lifetime::Lifetimes;
use linguist_ag::lint::{run_lints, LintConfig, SpanMap};
use linguist_ag::passes::{assign_passes, Direction};
use linguist_ag::plan::build_plans;
use linguist_ag::subsumption::Subsumption;
use linguist_codegen::{generate_globals, generate_pass, rustgen, Target};
use linguist_engine::{Engine, EngineConfig, EngineKind, PreparedEngine};
use linguist_eval::funcs::Funcs;
use linguist_eval::machine::{evaluate, Backing, EvalOptions, EvalStats, Evaluation, Strategy};
use linguist_eval::tree::PTree;
use linguist_frontend::differential::encoded_outputs;
use linguist_frontend::driver::{run, DriverOptions};
use linguist_frontend::listing::render_listing;
use linguist_frontend::translate::LeafCtx;
use linguist_frontend::{lower_with_spans, parse, standard_intrinsics, Translator, UserParser};
use linguist_grammars as g;
use linguist_lexgen::Scanner;
use linguist_support::diag::Diagnostics;
use linguist_support::intern::NameTable;
use linguist_support::pos::Span;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Samples per class each workload is built to collect in a 15-second
/// run on a shared 2-vCPU machine at its slowest; they fix the tail
/// percentile (p90, p98 and p99).
const COMPILE_DESIGN_N: usize = 100;
const TRANSLATE_DESIGN_N: usize = 500;
const AOT_DESIGN_N: usize = 1000;

/// Request id of spans recorded during set-up rather than for a request.
const SETUP_REQ: u64 = u64::MAX;

/// The analysis configuration of the CLI's defaults (`--opt=on`).
pub fn cli_config() -> Config {
    Config {
        optimize: true,
        ..Config::default()
    }
}

type ScannerFn = fn() -> Scanner;

/// The five bundled grammars with their scanners.
fn bundled() -> [(&'static str, &'static str, ScannerFn); 5] {
    [
        ("calc", g::calc_source(), g::calc_scanner as ScannerFn),
        ("block", g::block_source(), g::block_scanner),
        ("knuth_binary", g::knuth_source(), g::knuth_scanner),
        ("pascal", g::pascal_source(), g::pascal_scanner),
        ("meta", g::meta_source(), g::meta_scanner),
    ]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ------------------------------------------------------------- compile

/// One grammar of the compile workload.
struct Grammar {
    name: String,
    source: String,
    scanner: Option<ScannerFn>,
    lines: usize,
}

/// What one compile produced; must repeat exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Product {
    passes: usize,
    code: String,
}

/// The bundled grammars plus two seeded synthetic ones: a medium one and
/// one near 1,800 lines, the size of LINGUIST-86's own grammar.
fn compile_inputs(seed: u64) -> Vec<Grammar> {
    let mut out: Vec<Grammar> = bundled()
        .into_iter()
        .map(|(name, source, scanner)| Grammar {
            name: name.to_string(),
            source: source.to_string(),
            scanner: Some(scanner),
            lines: source.lines().count(),
        })
        .collect();
    let mut rng = Rng::new(seed, 10);
    // Fixed sizes; the seed decides which attributes are copied.
    for (name, attrs, prods) in [("synth_medium", 16, 100), ("synth_large", 20, 140)] {
        let p = inputs::synth_params(&mut rng, attrs, prods);
        let source = inputs::synth_source(name, p);
        out.push(Grammar {
            name: name.to_string(),
            lines: source.lines().count(),
            source,
            scanner: None,
        });
    }
    out
}

/// A compile with CLI defaults: the overlay driver, the Rust evaluator
/// source, and the translator wherever a bundled scanner exists.
fn compile_once(gr: &Grammar) -> Result<Product, String> {
    let opts = DriverOptions {
        config: cli_config(),
        ..DriverOptions::default()
    };
    let out = run(&gr.source, &opts).map_err(|e| e.to_string())?;
    let code = rustgen::rust_source(&out.analysis);
    let passes = out.analysis.passes.num_passes();
    if let Some(scanner) = gr.scanner {
        black_box(Translator::new(out.analysis, scanner()).map_err(|e| e.to_string())?);
    }
    Ok(Product { passes, code })
}

/// Counts recorded by the traced compile, summed over one pass through
/// the grammar set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct CompileCounts {
    lines: u64,
    passes: u64,
    copies_subsumed: u64,
    folded: u64,
    eliminated: u64,
    collapsed: u64,
    emit_bytes: u64,
    states: u64,
}

/// The same compile, one layer call at a time, each inside a span. The
/// stage order is the one `driver::run` uses.
fn compile_traced(
    t: &mut Tracer,
    req: u64,
    gr: &Grammar,
    counts: &mut CompileCounts,
) -> Result<Product, String> {
    let cfg = cli_config();
    t.span("request", req, |t| {
        let file = t
            .span("frontend.parse", req, |_| parse(&gr.source))
            .map_err(|e| e.to_string())?;
        let (mut grammar, mut spans) = t
            .span("frontend.lower", req, |_| lower_with_spans(&file))
            .map_err(|e| format!("{e:?}"))?;
        let implicit = t
            .span("ag.implicit", req, |_| {
                let s = insert_implicit_copies(&mut grammar);
                check_completeness(&grammar).map(|()| s)
            })
            .map_err(|e| format!("{e:?}"))?;
        t.span("ag.circularity", req, |_| check_noncircular(&grammar))
            .map_err(|e| format!("{e:?}"))?;
        let opt = t.span("ag.dataflow", req, |_| {
            let report = linguist_ag::dataflow::optimize(&mut grammar);
            spans.remap_rules(&report.rule_remap);
            report
        });
        let io = t
            .span("ag.circularity", req, |_| check_noncircular(&grammar))
            .map_err(|e| format!("{e:?}"))?;
        let passes = t
            .span("ag.passes", req, |_| assign_passes(&grammar, &cfg.pass))
            .map_err(|e| format!("{e:?}"))?;
        let lifetimes = t.span("ag.lifetimes", req, |_| {
            let mut l = Lifetimes::compute(&grammar, &passes);
            l.enable_record_elision();
            l
        });
        let subsumption = t.span("ag.subsumption", req, |_| {
            Subsumption::compute(&grammar, cfg.group_mode, cfg.costs, Some(&passes))
        });
        let plans = t
            .span("ag.plan", req, |_| build_plans(&grammar, &passes))
            .map_err(|e| format!("{e:?}"))?;
        counts.folded += opt.folded_uses as u64;
        counts.eliminated += (opt.eliminated_rules + opt.eliminated_attrs) as u64;
        counts.collapsed += opt.collapsed_copies as u64;
        let analysis = Analysis {
            grammar,
            implicit,
            io,
            passes,
            lifetimes,
            subsumption,
            plans,
            opt: Some(opt),
        };
        let diags = t.span("ag.lint", req, |_| messages(&analysis, &spans));
        black_box(t.span("frontend.listing", req, |_| {
            render_listing(&gr.source, &analysis, &diags)
        }));
        let emitted = t.span("codegen.emit", req, |_| {
            let mut bytes = generate_globals(&analysis, Target::Pascal).len();
            for k in 1..=analysis.passes.num_passes() as u16 {
                bytes += generate_pass(&analysis, k, Target::Pascal).source.len();
            }
            bytes
        });
        let code = t.span("codegen.rustgen", req, |_| rustgen::rust_source(&analysis));
        if let Some(scanner) = gr.scanner {
            black_box(t.span("lexgen.build", req, |_| scanner()));
            let parser = t
                .span("lalr.tables", req, |_| UserParser::build(&analysis.grammar))
                .map_err(|e| e.to_string())?;
            counts.states += parser.num_states() as u64;
        }
        counts.lines += gr.lines as u64;
        counts.passes += analysis.passes.num_passes() as u64;
        counts.copies_subsumed +=
            analysis.subsumption.stats(&analysis.grammar).subsumed_rules as u64;
        counts.emit_bytes += emitted as u64;
        Ok(Product {
            passes: analysis.passes.num_passes(),
            code,
        })
    })
}

/// Overlay 5 as `driver::run` performs it: the coded lint findings plus
/// the summary notes.
fn messages(analysis: &Analysis, spans: &SpanMap) -> Diagnostics {
    let mut diags = Diagnostics::new();
    let cfg = LintConfig {
        explain_residual_copies: true,
        ..LintConfig::default()
    };
    for finding in run_lints(analysis, spans, &cfg) {
        diags.push(finding.to_diagnostic());
    }
    if analysis.implicit.total() > 0 {
        diags.note(
            Span::default(),
            5,
            format!("{} implicit copy-rules inserted", analysis.implicit.total()),
        );
    }
    let sub = analysis.subsumption.stats(&analysis.grammar);
    if sub.subsumed_rules > 0 {
        diags.note(
            Span::default(),
            5,
            format!(
                "static subsumption eliminated {} of {} copy-rules",
                sub.subsumed_rules, sub.copy_rules
            ),
        );
    }
    diags
}

/// One cold pass over the grammar set: the compile workload's set-up.
/// Returns the products that every later compile must repeat.
fn compile_setup(grammars: &[Grammar], out: &mut Outcome) -> Vec<Option<Product>> {
    grammars
        .iter()
        .map(|gr| match compile_once(gr) {
            Ok(p) => {
                out.record(None);
                Some(p)
            }
            Err(e) => {
                out.record(Some(format!("compile {}: {e}", gr.name)));
                None
            }
        })
        .collect()
}

/// Each bundled grammar's evaluator source must be one of the checked-in
/// AOT crates, matched by content hash.
fn check_registry(grammars: &[Grammar], products: &[Option<Product>], out: &mut Outcome) {
    let registry = linguist_engine::aot_registry();
    for (gr, p) in grammars.iter().zip(products) {
        let (Some(p), Some(_)) = (p, gr.scanner) else {
            continue;
        };
        let hash = rustgen::content_hash(p.code.as_bytes());
        if !registry.iter().any(|(_, h)| *h == hash) {
            out.fail(format!(
                "{}: evaluator hash {hash} not in the AOT registry",
                gr.name
            ));
        }
    }
}

/// The compile set-up once, in this fresh process: `(reference-speed
/// seconds, raw seconds)`.
pub fn compile_setup_probe(seed: u64) -> (f64, f64) {
    let grammars = compile_inputs(seed);
    probe(|| {
        black_box(compile_setup(&grammars, &mut Outcome::default()));
    })
}

/// Time `setup` between reference readings; `(reference-speed seconds,
/// raw seconds)`.
fn probe(setup: impl FnOnce()) -> (f64, f64) {
    let mut speed = Speedometer::new();
    for _ in 0..5 {
        speed.tick();
    }
    let t = Instant::now();
    setup();
    let raw = t.elapsed().as_secs_f64();
    for _ in 0..5 {
        speed.tick();
    }
    (raw * speed.overall_factor(), raw)
}

pub fn compile(seed: u64, seconds: f64, traced: bool, out: &mut Outcome) {
    let grammars = compile_inputs(seed);
    let reference = compile_setup(&grammars, out);
    check_registry(&grammars, &reference, out);
    let code_bytes: usize = reference.iter().flatten().map(|p| p.code.len()).sum();
    let lines: usize = grammars.iter().map(|g| g.lines).sum();

    let mut samples: Vec<Vec<Sample>> = vec![Vec::new(); grammars.len()];
    let mut speed = Speedometer::new();
    let mut tracer = Tracer::new();
    let mut counts_ref: Option<CompileCounts> = None;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut req = 0u64;
    while Instant::now() < deadline {
        let tick = speed.tick();
        let mut counts = CompileCounts::default();
        let traced_first = traced && samples[0].len() % 2 == 1;
        for (i, gr) in grammars.iter().enumerate() {
            for phase in 0..if traced { 2 } else { 1 } {
                if (phase == 0) != traced_first {
                    let t = Instant::now();
                    let got = compile_once(gr);
                    samples[i].push(Sample {
                        ms: ms(t.elapsed()),
                        tick,
                        work: gr.lines,
                    });
                    out.record(compare(&gr.name, got, &reference[i]));
                } else {
                    req += 1;
                    let got = compile_traced(&mut tracer, req, gr, &mut counts);
                    out.record(compare(
                        &format!("{} (traced)", gr.name),
                        got,
                        &reference[i],
                    ));
                }
            }
        }
        if traced {
            match &counts_ref {
                None => counts_ref = Some(counts),
                Some(c) if *c != counts => {
                    out.fail(format!("compile counts changed: {c:?} then {counts:?}"))
                }
                Some(_) => {}
            }
        }
    }

    if traced {
        let c = counts_ref.unwrap_or_default();
        layer_times(&tracer, out, req);
        let untraced: Vec<f64> = samples.iter().flatten().map(|s| s.ms).collect();
        overhead(out, &untraced, &tracer);
        let n = grammars.len();
        for (name, v) in [
            ("frontend.lines", c.lines),
            ("ag.passes", c.passes),
            ("ag.copies_subsumed", c.copies_subsumed),
            ("ag.folded", c.folded),
            ("ag.eliminated", c.eliminated),
            ("ag.collapsed", c.collapsed),
            ("codegen.emit_bytes", c.emit_bytes),
            ("lalr.states", c.states),
        ] {
            out.put(
                name,
                v as f64,
                n,
                "sum over one pass through the grammar set",
            );
        }
    } else {
        let names: Vec<&str> = grammars.iter().map(|g| g.name.as_str()).collect();
        report_timing(
            out,
            &names,
            &samples,
            &speed,
            COMPILE_DESIGN_N,
            &format!("grammar source lines per second, {lines} lines per pass"),
        );
        out.put(
            "code_bytes",
            code_bytes as f64,
            grammars.len(),
            "rust_source bytes for the grammar set",
        );
        rss(out);
    }
}

fn compare(name: &str, got: Result<Product, String>, want: &Option<Product>) -> Option<String> {
    match (got, want) {
        (Err(e), _) => Some(format!("compile {name}: {e}")),
        (Ok(_), None) => Some(format!("compile {name}: set-up compile had failed")),
        (Ok(p), Some(w)) if p.passes != w.passes || p.code != w.code => Some(format!(
            "compile {name}: not repeatable ({} passes, {} bytes; first run {} passes, {} bytes)",
            p.passes,
            p.code.len(),
            w.passes,
            w.code.len()
        )),
        _ => None,
    }
}

// ------------------------------------------------- translate and aot

/// One translate class: a compiled grammar, its inputs and references.
struct Lang {
    name: &'static str,
    translator: Translator,
    opts: EvalOptions,
    cases: Vec<Case>,
    /// Parse-tree nodes per case.
    nodes: Vec<usize>,
    /// Interpreter outputs per case, for the aot byte comparison.
    reference: Vec<Vec<u8>>,
    /// Evaluation counts per case, fixed by the warm-up run.
    counts: Vec<Option<EvalCounts>>,
    /// Scanner tokens per case, recorded by the traced run.
    tokens: Vec<Option<usize>>,
    prepared: Option<PreparedEngine>,
}

/// Evaluation counts that must repeat exactly for the same input.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct EvalCounts {
    passes: u64,
    records_written: u64,
    apt_bytes: u64,
    rules: u64,
    globals_checked: u64,
    max_depth: u64,
}

impl EvalCounts {
    fn of(s: &EvalStats) -> EvalCounts {
        EvalCounts {
            passes: s.passes.len() as u64,
            records_written: s.passes.iter().map(|p| p.records_written).sum(),
            apt_bytes: s.total_io_bytes(),
            rules: s.total_rules(),
            globals_checked: s.globals_checked,
            max_depth: s.max_depth as u64,
        }
    }

    fn add(&mut self, o: &EvalCounts) {
        self.passes += o.passes;
        self.records_written += o.records_written;
        self.apt_bytes += o.apt_bytes;
        self.rules += o.rules;
        self.globals_checked += o.globals_checked;
        self.max_depth = self.max_depth.max(o.max_depth);
    }
}

/// The options a serve job uses: RAM-backed APT, the strategy the plan's
/// first direction demands, profiling on, every check on.
fn job_options(analysis: &Analysis) -> EvalOptions {
    let strategy = match analysis.passes.direction(1) {
        Direction::RightToLeft => Strategy::BottomUp,
        Direction::LeftToRight => Strategy::Prefix,
    };
    EvalOptions {
        strategy,
        profile: true,
        backing: Backing::Memory,
        ..EvalOptions::default()
    }
}

/// A bundled grammar's source and scanner, by name.
pub fn source_and_scanner(name: &str) -> (&'static str, ScannerFn) {
    let (_, src, sc) = bundled()
        .into_iter()
        .find(|(n, _, _)| *n == name)
        .expect("bundled grammar");
    (src, sc)
}

/// Check one evaluation's outputs against the independent reference.
/// `get` looks an output up by attribute name, rendered as text.
pub fn check_outputs(expect: &Expect, get: impl Fn(&str) -> Option<String>) -> Result<(), String> {
    let int = |name: &str, want: i64| -> Result<(), String> {
        match get(name).and_then(|s| s.parse::<i64>().ok()) {
            Some(v) if v == want => Ok(()),
            other => Err(format!("{name} = {other:?}, expected {want}")),
        }
    };
    let empty = |name: &str| -> Result<(), String> {
        match get(name).as_deref() {
            Some("[]") => Ok(()),
            other => Err(format!("{name} = {other:?}, expected an empty list")),
        }
    };
    match *expect {
        Expect::Calc { value } => int("V", value),
        Expect::Block { decls } => int("NDECL", decls).and(empty("ERRS")),
        Expect::Pascal { vars, code } => {
            int("NVARS", vars).and(int("CODE", code)).and(empty("MSGS"))
        }
        Expect::Meta {
            symbols,
            productions,
        } => int("NSYMS", symbols)
            .and(int("NPRODS", productions))
            .and(int("NMSGS", 0))
            .and(int("NUNUSED", 0))
            .and(empty("MSGS")),
    }
}

fn check_eval(lang: &Lang, i: usize, eval: &Evaluation) -> Result<(), String> {
    let a = &lang.translator.analysis;
    check_outputs(&lang.cases[i].expect, |n| {
        eval.output(a, n).map(|v| v.to_string())
    })
    .map_err(|e| format!("{} #{i}: {e}", lang.name))
}

/// Compile, build and prepare every grammar and run each input once.
fn lang_setup(
    cases: Vec<(&'static str, Vec<Case>)>,
    engine: Option<&Engine>,
    funcs: &Funcs,
    out: &mut Outcome,
) -> Vec<Lang> {
    let mut langs = Vec::new();
    for (name, cases) in cases {
        let (src, scanner) = source_and_scanner(name);
        let analysis =
            linguist_frontend::analyze(src, &cli_config()).expect("bundled grammar compiles");
        let opts = job_options(&analysis);
        let prepared = engine.map(|e| e.prepare(&analysis));
        let translator = Translator::new(analysis, scanner()).expect("bundled translator");
        let n = cases.len();
        langs.push(Lang {
            name,
            translator,
            opts,
            cases,
            nodes: Vec::new(),
            reference: Vec::new(),
            counts: vec![None; n],
            tokens: vec![None; n],
            prepared,
        });
    }
    // Warm-up: every input once, checked.
    for lang in &mut langs {
        for i in 0..lang.cases.len() {
            out.record(timed_op(lang, i, engine, funcs).1.err());
        }
    }
    langs
}

/// Tree sizes and, for aot, the interpreter's outputs: computed outside
/// the timed set-up.
fn lang_references(langs: &mut [Lang], engine: Option<&Engine>, funcs: &Funcs) {
    for lang in langs.iter_mut() {
        for case in &lang.cases {
            let mut names = NameTable::new();
            let tree = lang
                .translator
                .parse_input(&case.text, &standard_intrinsics, &mut names)
                .expect("generated input parses");
            lang.nodes.push(tree.size());
            if engine.is_some() {
                let eval = evaluate(&lang.translator.analysis, funcs, &tree, &lang.opts)
                    .expect("interpreter evaluates the input");
                lang.reference.push(encoded_outputs(&eval));
            }
        }
    }
}

/// One operation: the call into the program, timed, then its check
/// against the references, untimed.
fn timed_op(
    lang: &mut Lang,
    i: usize,
    engine: Option<&Engine>,
    funcs: &Funcs,
) -> (Duration, Result<(), String>) {
    let text = &lang.cases[i].text;
    match engine {
        None => {
            let t = Instant::now();
            let res = lang.translator.translate(text, funcs, &lang.opts);
            let d = t.elapsed();
            let res = res
                .map_err(|e| format!("{} #{i}: {e}", lang.name))
                .and_then(|eval| {
                    check_eval(lang, i, &eval)?;
                    settle_counts(lang, i, EvalCounts::of(&eval.stats))
                });
            (d, res)
        }
        Some(e) => {
            let prepared = lang.prepared.as_ref().expect("aot classes are prepared");
            let t = Instant::now();
            // Scan and parse, then `Engine::evaluate` on the AOT route.
            let mut names = NameTable::new();
            let res = lang
                .translator
                .parse_input(text, &standard_intrinsics, &mut names)
                .map(|tree| {
                    e.evaluate(
                        prepared,
                        &lang.translator.analysis,
                        funcs,
                        &tree,
                        &lang.opts,
                    )
                });
            let d = t.elapsed();
            let res = res
                .map_err(|e| format!("{} #{i}: {e}", lang.name))
                .and_then(|outcome| check_aot(lang, i, outcome));
            (d, res)
        }
    }
}

fn settle_counts(lang: &mut Lang, i: usize, c: EvalCounts) -> Result<(), String> {
    match lang.counts[i] {
        None => {
            lang.counts[i] = Some(c);
            Ok(())
        }
        Some(first) if first == c => Ok(()),
        Some(first) => Err(format!(
            "{} #{i}: evaluation counts changed: {first:?} then {c:?}",
            lang.name
        )),
    }
}

/// Check an AOT outcome: it ran on the AOT engine, and its outputs match
/// the reference and, once known, the interpreter's bytes.
fn check_aot(lang: &Lang, i: usize, outcome: linguist_engine::EngineOutcome) -> Result<(), String> {
    if outcome.engine_used != EngineKind::CompiledAot {
        return Err(format!(
            "{} #{i}: ran on {} ({:?}), not the AOT engine",
            lang.name, outcome.engine_used, outcome.fallback
        ));
    }
    let eval = outcome
        .result
        .map_err(|e| format!("{} #{i}: {e}", lang.name))?;
    check_eval(lang, i, &eval)?;
    match lang.reference.get(i) {
        Some(want) if *want != encoded_outputs(&eval) => Err(format!(
            "{} #{i}: outputs differ from the interpreter's",
            lang.name
        )),
        _ => Ok(()),
    }
}

/// Scanner, parser and terminal binding built by the benchmark for the
/// traced run, which calls each layer itself.
struct Layers {
    scanner: Scanner,
    parser: UserParser,
    kind_to_sym: Vec<Option<linguist_ag::ids::SymbolId>>,
}

fn build_layers(t: &mut Tracer, lang: &Lang) -> Layers {
    let (_, scanner_fn) = source_and_scanner(lang.name);
    let g = &lang.translator.analysis.grammar;
    let scanner = t.span("lexgen.build", SETUP_REQ, |_| scanner_fn());
    let parser = t
        .span("lalr.tables", SETUP_REQ, |_| UserParser::build(g))
        .expect("bundled grammar is LALR(1)");
    // Token kinds bind to terminals by name, as `Translator::new` does.
    let kind_to_sym = (0..scanner.num_kinds() as u32)
        .map(|k| g.symbol_by_name(scanner.kind_name(k)))
        .collect();
    Layers {
        scanner,
        parser,
        kind_to_sym,
    }
}

/// Scan, stamp intrinsics and parse, one layer per span.
fn traced_tree(
    t: &mut Tracer,
    req: u64,
    lang: &Lang,
    layers: &Layers,
    i: usize,
) -> Result<(PTree, usize), String> {
    let text = &lang.cases[i].text;
    let tokens = t
        .span("lexgen.scan", req, |_| layers.scanner.scan(text))
        .map_err(|e| e.to_string())?;
    let g = &lang.translator.analysis.grammar;
    let stream = t.span("frontend.intrinsics", req, |_| {
        let mut names = NameTable::new();
        let mut stream = Vec::with_capacity(tokens.len());
        for tok in &tokens {
            let Some(sym) = layers.kind_to_sym[tok.kind as usize] else {
                continue;
            };
            let mut ctx = LeafCtx {
                sym,
                text: tok.text(text),
                span: tok.span,
                names: &mut names,
            };
            stream.push((sym, standard_intrinsics(g, &mut ctx)));
        }
        stream
    });
    let tree = t
        .span("lalr.parse", req, |_| layers.parser.parse_tree(stream))
        .map_err(|e| e.to_string())?;
    Ok((tree, tokens.len()))
}

/// What evaluated a traced request.
enum Ran {
    Interpreter(Evaluation),
    Engine(linguist_engine::EngineOutcome),
}

/// Totals the traced translate run accumulates besides its spans.
#[derive(Default)]
struct TracedTotals {
    pass_time: Duration,
    fallbacks: usize,
    nodes: usize,
}

/// One traced request: scan, intrinsics, parse, then the interpreter or
/// the engine, each in its own span. On the AOT route the compiled code
/// alone (`compiled_output_bytes`) is timed too, outside the request.
#[allow(clippy::too_many_arguments)]
fn traced_op(
    t: &mut Tracer,
    req: u64,
    lang: &mut Lang,
    layers: &Layers,
    i: usize,
    engine: Option<&Engine>,
    funcs: &Funcs,
    acc: &mut TracedTotals,
) -> Result<(), String> {
    let analysis = &lang.translator.analysis;
    let (tree, tokens, ran) = t.span("request", req, |t| -> Result<_, String> {
        let (tree, tokens) = traced_tree(t, req, lang, layers, i)?;
        let ran = match engine {
            None => Ran::Interpreter(
                t.span("eval.evaluate", req, |_| {
                    evaluate(analysis, funcs, &tree, &lang.opts)
                })
                .map_err(|e| e.to_string())?,
            ),
            Some(e) => {
                let p = lang.prepared.as_ref().expect("aot classes are prepared");
                Ran::Engine(t.span("engine.evaluate", req, |_| {
                    e.evaluate(p, analysis, funcs, &tree, &lang.opts)
                }))
            }
        };
        Ok((tree, tokens, ran))
    })?;
    acc.nodes += lang.nodes[i];
    if let Some(first) = lang.tokens[i].replace(tokens) {
        if first != tokens {
            return Err(format!("{} #{i}: token count changed", lang.name));
        }
    }
    match (ran, engine) {
        (Ran::Interpreter(eval), _) => {
            acc.pass_time += eval
                .stats
                .passes
                .iter()
                .map(|p| p.duration)
                .sum::<Duration>();
            check_eval(lang, i, &eval)?;
            if lang.counts[i] != Some(EvalCounts::of(&eval.stats)) {
                return Err(format!("{} #{i}: traced counts differ", lang.name));
            }
            Ok(())
        }
        (Ran::Engine(outcome), Some(e)) => {
            if outcome.engine_used != EngineKind::CompiledAot {
                acc.fallbacks += 1;
            }
            let p = lang.prepared.as_ref().expect("aot classes are prepared");
            let raw = t.span("engine.raw", req, |_| {
                e.compiled_output_bytes(p, analysis, &tree, &lang.opts)
            });
            check_aot(lang, i, outcome)?;
            match raw {
                Ok(bytes) if Some(&bytes) == lang.reference.get(i) => Ok(()),
                Ok(_) => Err(format!("{} #{i}: raw compiled bytes differ", lang.name)),
                Err(e) => Err(format!("{} #{i}: {e}", lang.name)),
            }
        }
        (Ran::Engine(_), None) => unreachable!("an engine outcome needs an engine"),
    }
}

/// The translate or aot set-up once, in this fresh process:
/// `(reference-speed seconds, raw seconds)`.
pub fn lang_setup_probe(seed: u64, aot: bool) -> (f64, f64) {
    let cases = inputs::translate_cases(seed, CASES_PER_CLASS, &inputs::IN_PROCESS);
    let funcs = Funcs::standard();
    let engine = aot.then(aot_engine);
    let mut langs = None;
    let times = probe(|| {
        langs = Some(lang_setup(
            cases,
            engine.as_ref(),
            &funcs,
            &mut Outcome::default(),
        ))
    });
    black_box(langs);
    times
}

fn aot_engine() -> Engine {
    Engine::new(EngineConfig {
        kind: EngineKind::CompiledAot,
        ..EngineConfig::default()
    })
}

/// The `translate` workload (`aot == false`) or the `aot` workload.
pub fn translate(seed: u64, seconds: f64, traced: bool, aot: bool, out: &mut Outcome) {
    let funcs = Funcs::standard();
    let engine = aot.then(aot_engine);
    let cases = inputs::translate_cases(seed, CASES_PER_CLASS, &inputs::IN_PROCESS);
    let mut langs = lang_setup(cases, engine.as_ref(), &funcs, out);
    lang_references(&mut langs, engine.as_ref(), &funcs);
    let code_bytes: usize = langs
        .iter()
        .map(|l| rustgen::rust_source(&l.translator.analysis).len())
        .sum();

    let mut tracer = Tracer::new();
    let layers: Vec<Layers> = if traced {
        langs.iter().map(|l| build_layers(&mut tracer, l)).collect()
    } else {
        Vec::new()
    };
    if let (true, Some(e)) = (traced, &engine) {
        for l in &langs {
            black_box(tracer.span("engine.prepare", SETUP_REQ, |_| {
                e.prepare(&l.translator.analysis)
            }));
        }
    }

    let mut samples: Vec<Vec<Sample>> = vec![Vec::new(); langs.len()];
    let mut speed = Speedometer::new();
    let mut acc = TracedTotals::default();
    let mut req = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut round = 0usize;
    while Instant::now() < deadline {
        let tick = speed.tick();
        for li in 0..langs.len() {
            let i = round % langs[li].cases.len();
            // The traced run alternates which variant goes first, so
            // neither gains from the other's warm caches.
            let traced_first = traced && round % 2 == 1;
            for phase in 0..if traced { 2 } else { 1 } {
                if (phase == 0) != traced_first {
                    let (d, res) = timed_op(&mut langs[li], i, engine.as_ref(), &funcs);
                    samples[li].push(Sample {
                        ms: ms(d),
                        tick,
                        work: langs[li].nodes[i],
                    });
                    out.record(res.err());
                } else {
                    req += 1;
                    let res = traced_op(
                        &mut tracer,
                        req,
                        &mut langs[li],
                        &layers[li],
                        i,
                        engine.as_ref(),
                        &funcs,
                        &mut acc,
                    );
                    out.record(res.map_err(|e| format!("traced {e}")).err());
                }
            }
        }
        round += 1;
    }

    if traced {
        layer_times(&tracer, out, req);
        let untraced: Vec<f64> = samples.iter().flatten().map(|s| s.ms).collect();
        overhead(out, &untraced, &tracer);
        let total_nodes: usize = langs.iter().flat_map(|l| l.nodes.iter()).sum();
        let n = langs.iter().map(|l| l.cases.len()).sum();
        let note = "sum over one pass through the input set";
        out.put("eval.nodes", total_nodes as f64, n, note);
        let tokens: usize = langs.iter().flat_map(|l| l.tokens.iter().flatten()).sum();
        out.put("lexgen.tokens", tokens as f64, n, note);
        if engine.is_none() {
            let mut c = EvalCounts::default();
            for l in &langs {
                for x in l.counts.iter().flatten() {
                    c.add(x);
                }
            }
            for (name, v) in [
                ("eval.passes", c.passes),
                ("eval.records_written", c.records_written),
                ("eval.apt_bytes", c.apt_bytes),
                ("eval.rules", c.rules),
                ("eval.globals_checked", c.globals_checked),
                ("eval.max_depth", c.max_depth),
            ] {
                let how = if name == "eval.max_depth" {
                    "largest over the input set"
                } else {
                    note
                };
                out.put(name, v as f64, n, how);
            }
            out.put(
                "eval.pass_ms",
                ms(acc.pass_time) / req.max(1) as f64,
                req as usize,
                "per request",
            );
            let eval_self = self_ms(&tracer, "eval.evaluate");
            out.put(
                "eval.us_per_node",
                eval_self * 1e3 / acc.nodes.max(1) as f64,
                acc.nodes,
                "evaluate self time per parse-tree node",
            );
        } else {
            let evaluate_ms = self_ms(&tracer, "engine.evaluate") / req.max(1) as f64;
            let raw_ms = self_ms(&tracer, "engine.raw") / req.max(1) as f64;
            out.put(
                "engine.raw_ms",
                raw_ms,
                req as usize,
                "compiled_output_bytes per request",
            );
            out.put(
                "engine.abi_ms",
                evaluate_ms - raw_ms,
                req as usize,
                "evaluate minus raw, per request",
            );
            out.put(
                "engine.fallback_share",
                acc.fallbacks as f64 / req.max(1) as f64,
                req as usize,
                "requests not run on the AOT engine",
            );
        }
    } else {
        let names: Vec<&str> = langs.iter().map(|l| l.name).collect();
        let design_n = if aot {
            AOT_DESIGN_N
        } else {
            TRANSLATE_DESIGN_N
        };
        report_timing(
            out,
            &names,
            &samples,
            &speed,
            design_n,
            "parse-tree nodes per second",
        );
        out.put(
            "code_bytes",
            code_bytes as f64,
            langs.len(),
            "rust_source bytes for the grammar set",
        );
        rss(out);
    }
}

// ------------------------------------------------------------- shared

/// One timed operation: raw time, the speedometer reading of its round,
/// and the work it did (source lines or parse-tree nodes).
#[derive(Clone, Copy, Debug)]
struct Sample {
    ms: f64,
    tick: usize,
    work: usize,
}

/// `p50_ms`, `tail_ms` and `throughput` in reference-speed time, with the
/// raw figures printed beside them.
fn report_timing(
    out: &mut Outcome,
    names: &[&str],
    samples: &[Vec<Sample>],
    speed: &Speedometer,
    design_n: usize,
    unit_note: &str,
) {
    let f = speed.factors();
    let conv: Vec<Vec<f64>> = samples
        .iter()
        .map(|c| c.iter().map(|s| s.ms * f[s.tick]).collect())
        .collect();
    let n = latency(out, names, &conv, design_n);
    let work: usize = samples.iter().flatten().map(|s| s.work).sum();
    let secs: f64 = conv.iter().flatten().sum::<f64>() / 1e3;
    out.put(
        "throughput",
        work as f64 / secs,
        n,
        format!("{unit_note}, at reference speed"),
    );
    let raw: Vec<Vec<f64>> = samples
        .iter()
        .map(|c| c.iter().map(|s| s.ms).collect())
        .collect();
    let refs: Vec<&[f64]> = raw.iter().map(|c| c.as_slice()).collect();
    if let Some(r) = stats::summarize(&refs, design_n) {
        let raw_secs: f64 = raw.iter().flatten().sum::<f64>() / 1e3;
        println!(
            "  raw (wall-clock) p50 {:.4} ms, tail {:.4} ms, throughput {:.1}/s; reference median {:.4} ms over {} rounds",
            r.p50,
            r.tail,
            work as f64 / raw_secs,
            speed.median_ms(),
            f.len()
        );
    }
}

/// p50 and tail over per-class samples; returns the sample count.
/// `design_n` is the class size the workload is built to reach (see
/// `stats::summarize`). Each class's own figures are printed as well.
pub fn latency(out: &mut Outcome, names: &[&str], classes: &[Vec<f64>], design_n: usize) -> usize {
    let refs: Vec<&[f64]> = classes.iter().map(|c| c.as_slice()).collect();
    match stats::summarize(&refs, design_n) {
        Some(s) => {
            for (name, c) in names.iter().zip(classes) {
                let (tail, beyond) = stats::percentile(c, s.tail_pct);
                println!(
                    "  class {name:<14} n={:<7} p50 {:.4} ms  p{} {:.4} ms ({beyond} beyond)",
                    c.len(),
                    stats::median(c),
                    s.tail_pct,
                    tail
                );
            }
            out.put(
                "p50_ms",
                s.p50,
                s.total_n,
                format!("geometric mean of {} class medians", classes.len()),
            );
            out.put(
                "tail_ms",
                s.tail,
                s.total_n,
                format!(
                    "p{} per class, geometric mean; smallest class n={} with {} beyond",
                    s.tail_pct, s.min_class_n, s.min_beyond
                ),
            );
            s.total_n
        }
        None => {
            out.fail("too few samples for a median and tail in every class".into());
            0
        }
    }
}

fn rss(out: &mut Outcome) {
    let mb = peak_rss_mb(std::process::id()).unwrap_or(0.0);
    out.put("peak_rss_mb", mb, 1, "VmHWM of the benchmark process");
}

/// Self time of every span named `name`, summed, in ms.
fn self_ms(t: &Tracer, name: &str) -> f64 {
    trace::self_time_by_name(t.spans())
        .get(name)
        .map_or(0.0, |(ns, _)| *ns as f64 / 1e6)
}

/// Per-layer `_ms` metrics: self time per request for layers called by
/// requests, per call for layers called only during set-up.
fn layer_times(t: &Tracer, out: &mut Outcome, requests: u64) {
    let spans = t.spans();
    let selfs = trace::self_times(spans);
    let mut req_ns: std::collections::BTreeMap<&str, u64> = Default::default();
    let mut setup: std::collections::BTreeMap<&str, (u64, usize)> = Default::default();
    for (s, ns) in spans.iter().zip(selfs) {
        if s.req == SETUP_REQ {
            let e = setup.entry(s.name).or_default();
            e.0 += ns;
            e.1 += 1;
        } else {
            *req_ns.entry(s.name).or_default() += ns;
        }
    }
    let metric = |name: &str| {
        let m = format!("{name}_ms");
        crate::metrics::PER_LAYER
            .iter()
            .any(|(n, _)| *n == m)
            .then_some(m)
    };
    for (name, ns) in req_ns {
        if let Some(m) = metric(name) {
            out.put(
                &m,
                ns as f64 / 1e6 / requests.max(1) as f64,
                requests as usize,
                "self time per request",
            );
        }
    }
    for (name, (ns, calls)) in setup {
        if let Some(m) = metric(name) {
            out.put(
                &m,
                ns as f64 / 1e6 / calls.max(1) as f64,
                calls,
                "self time per set-up call",
            );
        }
    }
}

/// Tracing overhead: mean traced request (its root span) minus mean
/// untraced request, over the same rounds; and the share of request
/// wall time no layer span covers.
fn overhead(out: &mut Outcome, untraced: &[f64], t: &Tracer) {
    let traced: Vec<f64> = t
        .spans()
        .iter()
        .filter(|s| s.name == "request" && s.parent.is_none())
        .map(|s| (s.end - s.start) as f64 / 1e6)
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let (u, tr) = (mean(untraced), mean(&traced));
    out.put(
        "trace.overhead_ms",
        tr - u,
        traced.len(),
        format!("traced {tr:.4} ms minus untraced {u:.4} ms per request"),
    );
    out.put(
        "trace.overhead_share",
        (tr - u) / u,
        traced.len(),
        "of the untraced request",
    );
    out.put(
        "trace.uncovered_share",
        trace::uncovered_share(t.spans(), "request"),
        traced.len(),
        "request wall time no layer span covers",
    );
}
