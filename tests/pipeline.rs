//! Pipeline-level integration tests: the listing file, Knuth's
//! binary-number grammar, driver error propagation, and intrinsic
//! attribute conventions.

use linguist86::ag::analysis::{Analysis, AnalysisError, Config};
use linguist86::ag::lint::{codes, LintConfig};
use linguist86::ag::passes::{Direction, PassConfig};
use linguist86::eval::funcs::Funcs;
use linguist86::eval::machine::{Backing, EvalOptions, Strategy};
use linguist86::eval::value::Value;
use linguist86::frontend::driver::{analyze, run, DriverError, DriverOptions};
use linguist86::frontend::{check_source, lower, parse, Translator};
use linguist86::grammars::{
    block_source, calc_source, knuth_scanner, knuth_source, meta_source, pascal_program,
    pascal_scanner, pascal_source,
};
use linguist86::lexgen::ScannerDef;
use std::time::{Duration, Instant};

#[test]
fn knuth_binary_numbers_evaluate() {
    let out = run(knuth_source(), &DriverOptions::default()).unwrap();
    assert_eq!(out.stats.passes, 1);
    let t = Translator::new(out.analysis, knuth_scanner()).unwrap();
    let funcs = Funcs::standard();
    let opts = EvalOptions::default();
    // Integer numerals: plain binary value.
    for (input, expect) in [
        ("0", 0i64),
        ("1", 1),
        ("1 0 1 1", 11),
        ("1 1 1 1 1 1 1 1", 255),
    ] {
        let r = t.translate(input, &funcs, &opts).unwrap();
        assert_eq!(
            r.output(&t.analysis, "VAL"),
            Some(&Value::Int(expect)),
            "{}",
            input
        );
    }
    // With a fraction: VAL is in units of 2^-len(fraction):
    // "1 1 0 1 . 0 1" = 13.25, len 2 → 13.25 * 4 = 53.
    let r = t.translate("1 1 0 1 . 0 1", &funcs, &opts).unwrap();
    assert_eq!(r.output(&t.analysis, "VAL"), Some(&Value::Int(53)));
}

#[test]
fn listing_contains_pass_annotations_and_tables() {
    let out = run(meta_source(), &DriverOptions::default()).unwrap();
    let listing = &out.listing;
    // Source lines numbered.
    assert!(listing.contains("    1 | #"));
    // Pass annotations, like the paper's "# pass 2" comments.
    for k in 1..=4 {
        assert!(
            listing.contains(&format!("# pass {}", k)),
            "pass {} annotation missing",
            k
        );
    }
    // Implicit copy-rules listed and marked.
    assert!(listing.contains("(implicit)"));
    // Subsumed copy-rules marked.
    assert!(listing.contains("(subsumed)"));
    // The attribute table with lifetimes and static allocation.
    assert!(listing.contains("ATTRIBUTES"));
    assert!(listing.contains("significant"));
    assert!(listing.contains("temporary"));
    // Pass directions.
    assert!(listing.contains("pass 1: right-to-left"));
    assert!(listing.contains("pass 2: left-to-right"));
    // Statistics block.
    assert!(listing.contains("alternating passes:   4"));
}

#[test]
fn listing_interleaves_diagnostics_with_source() {
    // The overlay-5 note about implicit copies appears in the listing.
    let out = run(block_source(), &DriverOptions::default()).unwrap();
    assert!(out.listing.contains("implicit copy-rules inserted"));
}

#[test]
fn driver_reports_not_evaluable_grammars() {
    // Sibling attributes feeding each other forever. The driver layers
    // its diagnostics: the (conservative) uniform circularity test runs
    // before pass assignment and correctly flags this flow as a
    // potential cycle — the same grammar fed directly to the pass
    // analysis is rejected as not alternating-pass evaluable
    // (unit-tested in linguist-ag).
    let src = r#"
grammar Spin ;
terminals x ;
nonterminals
  s : syn V int ;
  a : inh I int, syn V int ;
  b : inh I int, syn V int ;
start s ;
productions
prod s = a b :
  a.I = b.V ;
  b.I = a.V ;
  s.V = 0 ;
end
prod a = x :
  a.V = a.I ;
end
prod b = x :
  b.V = b.I ;
end
end
"#;
    match run(src, &DriverOptions::default()) {
        Err(DriverError::Analysis(e)) => {
            let text = e.to_string();
            assert!(
                text.contains("circularity") || text.contains("alternating passes"),
                "{}",
                text
            )
        }
        other => panic!("expected evaluability failure, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn driver_reports_exhausted_pass_budget() {
    // A 2-pass grammar under a 1-pass budget.
    let src = r#"
grammar Tight ;
terminals x : intrinsic OBJ int ;
nonterminals
  s : syn V int ;
  a : inh I int, syn V int ;
  b : syn V int ;
start s ;
productions
prod s = a b :
  a.I = b.V ;
  s.V = a.V ;
end
prod a = x :
  a.V = a.I ;
end
prod b = x :
  b.V = x.OBJ ;
end
end
"#;
    let opts = DriverOptions {
        config: Config {
            pass: PassConfig {
                first_direction: Direction::LeftToRight,
                max_passes: 1,
            },
            ..Config::default()
        },
        target: None,
        ..DriverOptions::default()
    };
    match run(src, &opts) {
        Err(DriverError::Analysis(e)) => {
            assert!(e.to_string().contains("exceeded 1 passes"), "{}", e)
        }
        other => panic!("expected pass-budget failure, got {:?}", other.map(|_| ())),
    }
    // With a normal budget it needs 2 passes under an L-R start (the
    // flow is right-to-left) — and just 1 under the default R-L start.
    let relaxed = DriverOptions {
        config: Config {
            pass: PassConfig {
                first_direction: Direction::LeftToRight,
                max_passes: 32,
            },
            ..Config::default()
        },
        target: None,
        ..DriverOptions::default()
    };
    assert_eq!(run(src, &relaxed).unwrap().stats.passes, 2);
    assert_eq!(run(src, &DriverOptions::default()).unwrap().stats.passes, 1);
}

#[test]
fn driver_reports_circular_grammars() {
    let src = r#"
grammar Circular ;
nonterminals
  s : syn A int, syn B int ;
start s ;
productions
prod s = :
  s.A = s.B ;
  s.B = s.A ;
end
end
"#;
    match run(src, &DriverOptions::default()) {
        Err(DriverError::Analysis(e)) => assert!(e.to_string().contains("circularity")),
        other => panic!("expected circularity, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn driver_reports_incomplete_grammars() {
    let src = r#"
grammar Holes ;
nonterminals
  s : syn V int ;
start s ;
productions
prod s = :
end
end
"#;
    match run(src, &DriverOptions::default()) {
        Err(DriverError::Analysis(e)) => {
            let text = e.to_string();
            assert!(text.contains("never defined"), "{}", text);
        }
        other => panic!("expected completeness failure, got {:?}", other.map(|_| ())),
    }
}

/// The driver and the library pipeline are two doors into one
/// analysis: on every bundled grammar, with and without the optimizer,
/// they must decide the same passes, lifetimes, subsumption and plans.
#[test]
fn driver_and_library_pipeline_agree_on_the_bundled_grammars() {
    for (name, src) in [
        ("calc", calc_source()),
        ("block", block_source()),
        ("knuth", knuth_source()),
        ("pascal", pascal_source()),
        ("meta", meta_source()),
    ] {
        for optimize in [false, true] {
            let cfg = Config {
                optimize,
                ..Config::default()
            };
            let via_driver = analyze(src, &cfg).unwrap();
            let grammar = lower(&parse(src).unwrap()).unwrap();
            let direct = Analysis::run(grammar, &cfg).unwrap();
            let case = format!("{} (optimize = {})", name, optimize);
            assert_eq!(
                format!("{:?}", via_driver.passes),
                format!("{:?}", direct.passes),
                "{}: passes",
                case
            );
            assert_eq!(
                format!("{:?}", via_driver.lifetimes),
                format!("{:?}", direct.lifetimes),
                "{}: lifetimes",
                case
            );
            assert_eq!(
                via_driver.subsumption.stats(&via_driver.grammar),
                direct.subsumption.stats(&direct.grammar),
                "{}: subsumption",
                case
            );
            assert_eq!(
                format!("{:?}", via_driver.plans),
                format!("{:?}", direct.plans),
                "{}: plans",
                case
            );
        }
    }
}

/// A grammar that is both incomplete and circular: the driver stops at
/// the first failing stage (completeness), while `check` reports both.
#[test]
fn incomplete_and_circular_grammar_fails_driver_at_completeness_and_check_reports_both() {
    let src = r#"
grammar Both ;
nonterminals
  s : syn A int, syn B int, syn U int ;
start s ;
productions
prod s = :
  s.A = s.B ;
  s.B = s.A ;
end
end
"#;
    match analyze(src, &Config::default()) {
        Err(DriverError::Analysis(AnalysisError::Check(_))) => {}
        other => panic!(
            "expected a completeness failure, got {:?}",
            other.map(|_| ())
        ),
    }
    let report = check_source(src, &Config::default(), &LintConfig::default());
    let seen: Vec<&str> = report.findings.iter().map(|f| f.code).collect();
    assert!(seen.contains(&codes::INCOMPLETE), "{:?}", seen);
    assert!(seen.contains(&codes::CIRCULARITY), "{:?}", seen);
    assert_eq!(report.passes, None);
}

#[test]
fn line_intrinsic_gets_source_lines() {
    // The LINE intrinsic convention: "the location in the source of the
    // text that corresponds to a leaf of the APT" (§IV).
    let src = r#"
grammar Lines ;
terminals
  w : intrinsic LINE int ;
nonterminals
  s : syn FIRST int, syn LAST int ;
start s ;
productions
prod s0 = s1 w :
  s0.FIRST = s1.FIRST ;
  s0.LAST = w.LINE ;
end
prod s = w :
  s.FIRST = w.LINE ;
  s.LAST = w.LINE ;
end
end
"#;
    let out = run(src, &DriverOptions::default()).unwrap();
    let scanner = ScannerDef::new()
        .skip(r"[ \t\n]+")
        .token("w", "[a-z]+")
        .build()
        .unwrap();
    let t = Translator::new(out.analysis, scanner).unwrap();
    let r = t
        .translate(
            "alpha\nbeta\n\n\ngamma",
            &Funcs::standard(),
            &EvalOptions::default(),
        )
        .unwrap();
    assert_eq!(r.output(&t.analysis, "FIRST"), Some(&Value::Int(1)));
    assert_eq!(r.output(&t.analysis, "LAST"), Some(&Value::Int(5)));
}

#[test]
fn unknown_external_function_is_reported_at_evaluation() {
    let src = r#"
grammar Mystery ;
terminals x ;
nonterminals s : syn V int ;
start s ;
productions
prod s = x :
  s.V = FrobnicateDeeply(1, 2) ;
end
end
"#;
    let out = run(src, &DriverOptions::default()).unwrap(); // analysis is fine
    let scanner = ScannerDef::new().token("x", "x").build().unwrap();
    let t = Translator::new(out.analysis, scanner).unwrap();
    let err = t
        .translate("x", &Funcs::standard(), &EvalOptions::default())
        .unwrap_err();
    assert!(err.to_string().contains("FrobnicateDeeply"), "{}", err);
}

#[test]
fn coalesce_mode_runs_through_the_driver() {
    let opts = DriverOptions {
        config: Config {
            group_mode: linguist86::ag::subsumption::GroupMode::CoalesceCopies,
            pass: PassConfig {
                first_direction: Direction::RightToLeft,
                max_passes: 32,
            },
            ..Config::default()
        },
        target: None,
        ..DriverOptions::default()
    };
    let out = run(meta_source(), &opts).unwrap();
    // Coalescing can only subsume at least as many copies as same-name.
    let base = run(meta_source(), &DriverOptions::default()).unwrap();
    let coal = out.analysis.subsumption.stats(&out.analysis.grammar);
    let same = base.analysis.subsumption.stats(&base.analysis.grammar);
    assert!(coal.subsumed_rules + 5 >= same.subsumed_rules);
}

/// A 38 KB pascal program (800 declarations, 800 statements) under the
/// options of a serve job: optimized grammar, RAM-backed APT, profile and
/// every global check on. Each check compares the symbol table in a
/// global with its reference value; with extensional map equality alone
/// that made the translation cubic in the program size (a minute in a
/// release build). Shared structure now settles each check at pointer cost.
#[test]
fn large_pascal_program_checks_its_globals_in_linear_time() {
    let config = Config {
        optimize: true,
        ..Config::default()
    };
    let analysis = analyze(pascal_source(), &config).unwrap();
    assert_eq!(analysis.passes.direction(1), Direction::RightToLeft);
    let t = Translator::new(analysis, pascal_scanner()).unwrap();
    let opts = EvalOptions {
        strategy: Strategy::BottomUp,
        backing: Backing::Memory,
        check_globals: true,
        profile: true,
        ..EvalOptions::default()
    };
    // The statement list nests 800 deep; an unoptimized build's frames
    // need more than a test thread's default stack for that.
    let (t, r, took) = std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(move || {
            let started = Instant::now();
            let r = t.translate(&pascal_program(800, 800), &Funcs::standard(), &opts);
            (t, r.unwrap(), started.elapsed())
        })
        .unwrap()
        .join()
        .unwrap();
    // About 0.3 s unoptimized; the cubic version needed minutes.
    assert!(took < Duration::from_secs(20), "took {:?}", took);
    assert_eq!(r.output(&t.analysis, "NVARS"), Some(&Value::Int(800)));
    assert_eq!(r.output(&t.analysis, "CODE"), Some(&Value::Int(4800)));
    assert_eq!(r.output(&t.analysis, "MSGS"), Some(&Value::nil()));
    assert_eq!(r.stats.globals_checked, 7999);
    assert_eq!(r.stats.globals_repaired, 0);
}
