//! The analysis pipeline: everything LINGUIST-86's overlays 3–4 compute.
//!
//! This module is the one place that knows the stage order.
//! [`Analysis::staged`] takes a built grammar through, in order:
//!
//! 1. implicit copy-rule insertion (§IV),
//! 2. the completeness check (§I),
//! 3. the sufficient non-circularity test (§I),
//! 4. the grammar optimizer, when [`Config::optimize`] is on,
//! 5. alternating-pass assignment (§II),
//! 6. lifetime (temporary/significant) analysis (§III),
//! 7. static subsumption (§III),
//! 8. evaluation-plan construction (§II–III).
//!
//! Completeness and circularity are both run before the pipeline stops,
//! so a rejection reports both. The circularity test runs once, before
//! the optimizer: the optimizer only removes dependency edges, so it
//! cannot make a non-circular grammar circular.
//!
//! The result owns the (possibly extended) grammar plus every analysis
//! product; it is the single input the evaluator and the code generator
//! need.

use crate::check::{check_completeness, CheckError};
use crate::circularity::{check_noncircular, Circularity, IoRelations};
use crate::grammar::Grammar;
use crate::implicit::{insert_implicit_copies, ImplicitStats};
use crate::lifetime::Lifetimes;
use crate::passes::{assign_passes, PassAssignment, PassConfig, PassError};
use crate::plan::{build_plans, PlanError, Plans};
use crate::subsumption::{GroupMode, Subsumption, SubsumptionCosts};
use std::fmt;
use std::time::{Duration, Instant};

/// Configuration for the whole pipeline.
#[derive(Clone, Copy, Debug, Default)]
pub struct Config {
    /// Pass-analysis settings (first direction, pass budget).
    pub pass: PassConfig,
    /// Whether to insert implicit copy-rules first (LINGUIST-86 always
    /// does; disable to reproduce "bare-bones" behaviour).
    pub skip_implicit: bool,
    /// Global-variable grouping mode for static subsumption.
    pub group_mode: GroupMode,
    /// Cost model for the keep-static check.
    pub costs: SubsumptionCosts,
    /// Disable static subsumption entirely (the paper's "without"
    /// timing/size comparison).
    pub disable_subsumption: bool,
    /// Run the grammar optimizer (constant folding, copy-chain
    /// collapsing, dead-attribute elimination) before scheduling. Off
    /// by default at the library level — the paper's figures are
    /// reproduced on the unoptimized grammar — and switched on by the
    /// CLI's `--opt` (whose default is on).
    pub optimize: bool,
}

/// Everything known about an analyzed grammar.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// The grammar, including any implicit copy-rules added.
    pub grammar: Grammar,
    /// How many implicit rules were inserted.
    pub implicit: ImplicitStats,
    /// Induced inherited→synthesized relations per symbol, as the
    /// circularity test computed them *before* the optimizer ran. The
    /// optimizer only removes edges and never renumbers attributes, so
    /// this is a superset of the optimized grammar's relation.
    pub io: IoRelations,
    /// The pass assignment.
    pub passes: PassAssignment,
    /// Attribute lifetimes.
    pub lifetimes: Lifetimes,
    /// The static-subsumption allocation.
    pub subsumption: Subsumption,
    /// Production-procedure plans per pass.
    pub plans: Plans,
    /// What the optimizer did, when [`Config::optimize`] was on.
    pub opt: Option<crate::dataflow::OptReport>,
}

/// A failure anywhere in the pipeline.
#[derive(Clone, Debug)]
pub enum AnalysisError {
    /// Completeness violations.
    Check(Vec<CheckError>),
    /// Potential circularity.
    Circular(Circularity),
    /// Not alternating-pass evaluable.
    Pass(PassError),
    /// Plan construction failed.
    Plan(PlanError),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Check/Circular carry structured ids; the located, named
        // rendering lives in the lint layer (`linguist check`), so the
        // bare Display stays a one-line summary.
        match self {
            AnalysisError::Check(errs) => {
                let undefined = errs
                    .iter()
                    .filter(|e| matches!(e, CheckError::Undefined { .. }))
                    .count();
                let multiple = errs
                    .iter()
                    .filter(|e| matches!(e, CheckError::MultiplyDefined { .. }))
                    .count();
                let illegal = errs.len() - undefined - multiple;
                write!(
                    f,
                    "{} completeness error(s): {} never defined, {} multiply defined, \
                     {} illegal target(s); run `linguist check` for located diagnostics",
                    errs.len(),
                    undefined,
                    multiple,
                    illegal
                )
            }
            AnalysisError::Circular(c) => write!(
                f,
                "potential circularity in production {} ({} occurrences); \
                 run `linguist check` for the named cycle",
                c.prod.0,
                c.cycle.len()
            ),
            AnalysisError::Pass(e) => write!(f, "{}", e),
            AnalysisError::Plan(e) => write!(f, "{}", e),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<PassError> for AnalysisError {
    fn from(e: PassError) -> AnalysisError {
        AnalysisError::Pass(e)
    }
}
impl From<PlanError> for AnalysisError {
    fn from(e: PlanError) -> AnalysisError {
        AnalysisError::Plan(e)
    }
}

/// One stage of the pipeline, in the order [`Analysis::staged`] runs
/// them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Implicit copy-rule insertion.
    Implicit,
    /// The completeness check.
    Completeness,
    /// The sufficient non-circularity test.
    Circularity,
    /// The grammar optimizer.
    Optimize,
    /// Alternating-pass assignment.
    Passes,
    /// Lifetime analysis.
    Lifetimes,
    /// Static subsumption.
    Subsumption,
    /// Evaluation-plan construction.
    Plans,
}

/// A grammar the pipeline rejected, with what the failing stage saw.
#[derive(Clone, Debug)]
pub struct Rejected {
    /// The grammar as it stood when the pipeline stopped.
    pub grammar: Grammar,
    /// What the optimizer did, if it ran before the failing stage.
    pub opt: Option<crate::dataflow::OptReport>,
    /// The pass count, if pass assignment succeeded before plan
    /// construction failed.
    pub passes: Option<usize>,
    /// Every error found, in stage order; never empty. Completeness and
    /// circularity errors are reported together.
    pub errors: Vec<AnalysisError>,
}

impl From<Box<Rejected>> for AnalysisError {
    /// The first failing stage's error.
    fn from(r: Box<Rejected>) -> AnalysisError {
        r.errors
            .into_iter()
            .next()
            .expect("a rejection carries at least one error")
    }
}

/// Run `f` as `stage` and report its wall time to `on_stage`.
fn timed<T>(on_stage: &mut impl FnMut(Stage, Duration), stage: Stage, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    on_stage(stage, t.elapsed());
    out
}

impl Analysis {
    /// Run the full pipeline on `grammar`.
    ///
    /// # Errors
    ///
    /// Returns the first failing stage as [`AnalysisError`].
    pub fn run(grammar: Grammar, cfg: &Config) -> Result<Analysis, AnalysisError> {
        Analysis::staged(grammar, cfg, &mut |_, _| {}).map_err(AnalysisError::from)
    }

    /// Run the full pipeline on `grammar`, reporting each stage that
    /// runs and its wall time to `on_stage`, once and in order. Stages
    /// that do not run are not reported: implicit copies under
    /// [`Config::skip_implicit`], the optimizer unless
    /// [`Config::optimize`], and everything after a failing stage.
    ///
    /// # Errors
    ///
    /// Returns a boxed [`Rejected`] holding every error found and the
    /// grammar as the failing stage saw it.
    pub fn staged(
        mut grammar: Grammar,
        cfg: &Config,
        on_stage: &mut impl FnMut(Stage, Duration),
    ) -> Result<Analysis, Box<Rejected>> {
        let implicit = if cfg.skip_implicit {
            ImplicitStats::default()
        } else {
            timed(on_stage, Stage::Implicit, || {
                insert_implicit_copies(&mut grammar)
            })
        };
        let mut errors = Vec::new();
        if let Err(e) = timed(on_stage, Stage::Completeness, || {
            check_completeness(&grammar)
        }) {
            errors.push(AnalysisError::Check(e));
        }
        let io = match timed(on_stage, Stage::Circularity, || check_noncircular(&grammar)) {
            Ok(io) => io,
            Err(c) => {
                errors.push(AnalysisError::Circular(c));
                IoRelations::default()
            }
        };
        if !errors.is_empty() {
            return Err(Box::new(Rejected {
                grammar,
                opt: None,
                passes: None,
                errors,
            }));
        }
        // No second circularity test: the optimizer only removes
        // dependency edges, so the grammar stays non-circular.
        let opt = cfg.optimize.then(|| {
            timed(on_stage, Stage::Optimize, || {
                crate::dataflow::optimize(&mut grammar)
            })
        });
        let passes = match timed(on_stage, Stage::Passes, || {
            assign_passes(&grammar, &cfg.pass)
        }) {
            Ok(passes) => passes,
            Err(e) => {
                return Err(Box::new(Rejected {
                    grammar,
                    opt,
                    passes: None,
                    errors: vec![e.into()],
                }))
            }
        };
        let lifetimes = timed(on_stage, Stage::Lifetimes, || {
            let mut lifetimes = Lifetimes::compute(&grammar, &passes);
            if cfg.optimize {
                lifetimes.enable_record_elision();
            }
            lifetimes
        });
        let subsumption = timed(on_stage, Stage::Subsumption, || {
            if cfg.disable_subsumption {
                Subsumption::disabled(&grammar)
            } else {
                Subsumption::compute(&grammar, cfg.group_mode, cfg.costs, Some(&passes))
            }
        });
        let plans = match timed(on_stage, Stage::Plans, || build_plans(&grammar, &passes)) {
            Ok(plans) => plans,
            Err(e) => {
                return Err(Box::new(Rejected {
                    grammar,
                    opt,
                    passes: Some(passes.num_passes()),
                    errors: vec![e.into()],
                }))
            }
        };
        Ok(Analysis {
            grammar,
            implicit,
            io,
            passes,
            lifetimes,
            subsumption,
            plans,
            opt,
        })
    }

    /// Grammar statistics including the pass count.
    pub fn stats(&self) -> crate::stats::GrammarStats {
        crate::stats::GrammarStats::compute(&self.grammar, Some(&self.passes))
    }

    /// The full static profile: statistics, subsumption outcome, and
    /// planned pass directions.
    pub fn profile(&self) -> crate::stats::GrammarProfile {
        crate::stats::GrammarProfile::compute(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::grammar::AgBuilder;
    use crate::ids::AttrOcc;
    use crate::passes::Direction;

    fn lr_config() -> Config {
        Config {
            pass: PassConfig {
                first_direction: Direction::LeftToRight,
                max_passes: 8,
            },
            ..Config::default()
        }
    }

    /// root -> S (root.V implicit), S -> x with S.V = x.OBJ.
    fn cycle_free() -> Grammar {
        let mut b = AgBuilder::new();
        let root = b.nonterminal("root");
        b.synthesized(root, "V", "int");
        let s = b.nonterminal("S");
        let sv = b.synthesized(s, "V", "int");
        let x = b.terminal("x");
        let obj = b.intrinsic(x, "OBJ", "int");
        b.production(root, vec![s], None); // root.V implicit
        let p1 = b.production(s, vec![x], None);
        b.rule(p1, vec![AttrOcc::lhs(sv)], Expr::Occ(AttrOcc::rhs(0, obj)));
        b.start(root);
        b.build().unwrap()
    }

    #[test]
    fn pipeline_runs_end_to_end() {
        let a = Analysis::run(cycle_free(), &lr_config()).unwrap();
        assert_eq!(a.implicit.total(), 1);
        assert_eq!(a.passes.num_passes(), 1);
        assert_eq!(a.plans.num_passes(), 1);
        assert_eq!(a.stats().semantic_functions, 2);
    }

    #[test]
    fn incomplete_grammar_fails_check_stage() {
        let mut b = AgBuilder::new();
        let s = b.nonterminal("S");
        b.synthesized(s, "V", "int"); // never defined, nothing to copy from
        b.production(s, vec![], None);
        b.start(s);
        let g = b.build().unwrap();
        match Analysis::run(g, &lr_config()) {
            Err(AnalysisError::Check(errs)) => assert!(!errs.is_empty()),
            other => panic!("expected check failure, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn circular_grammar_fails_circularity_stage() {
        assert!(matches!(
            Analysis::run(intra_production_cycle(), &lr_config()),
            Err(AnalysisError::Circular(_))
        ));
    }

    /// S.A = S.B; S.B = S.A: a cycle inside one production.
    fn intra_production_cycle() -> Grammar {
        let mut b = AgBuilder::new();
        let s = b.nonterminal("S");
        let a = b.synthesized(s, "A", "int");
        let c = b.synthesized(s, "B", "int");
        let p = b.production(s, vec![], None);
        b.rule(p, vec![AttrOcc::lhs(a)], Expr::Occ(AttrOcc::lhs(c)));
        b.rule(p, vec![AttrOcc::lhs(c)], Expr::Occ(AttrOcc::lhs(a)));
        b.start(s);
        b.build().unwrap()
    }

    /// root -> S with S.I = S.V, and S -> x with S.V = S.I: a cycle
    /// through the child's inherited/synthesized pair.
    fn cycle_through_child() -> Grammar {
        let mut b = AgBuilder::new();
        let root = b.nonterminal("root");
        let rv = b.synthesized(root, "V", "int");
        let s = b.nonterminal("S");
        let si = b.inherited(s, "I", "int");
        let sv = b.synthesized(s, "V", "int");
        let x = b.terminal("x");
        let p0 = b.production(root, vec![s], None);
        b.rule(
            p0,
            vec![AttrOcc::rhs(0, si)],
            Expr::Occ(AttrOcc::rhs(0, sv)),
        );
        b.rule(p0, vec![AttrOcc::lhs(rv)], Expr::Occ(AttrOcc::rhs(0, sv)));
        let p1 = b.production(s, vec![x], None);
        b.rule(p1, vec![AttrOcc::lhs(sv)], Expr::Occ(AttrOcc::lhs(si)));
        b.start(root);
        b.build().unwrap()
    }

    #[test]
    fn circular_grammars_fail_scheduling_without_the_circularity_stage() {
        // An intra-production cycle leaves plan construction with
        // unsatisfiable arguments; a cycle through a child leaves pass
        // assignment with stuck attributes.
        for (name, g, stuck_in_plans) in [
            ("intra-production", intra_production_cycle(), true),
            ("through a child", cycle_through_child(), false),
        ] {
            assert!(check_noncircular(&g).is_err(), "{} must be circular", name);
            assert!(check_completeness(&g).is_ok(), "{} must be complete", name);
            for first_direction in [Direction::LeftToRight, Direction::RightToLeft] {
                let cfg = PassConfig {
                    first_direction,
                    max_passes: 8,
                };
                let scheduled = assign_passes(&g, &cfg)
                    .map_err(AnalysisError::from)
                    .and_then(|passes| build_plans(&g, &passes).map_err(AnalysisError::from));
                match scheduled {
                    Err(AnalysisError::Plan(_)) if stuck_in_plans => {}
                    Err(AnalysisError::Pass(_)) if !stuck_in_plans => {}
                    other => panic!(
                        "{} cycle under {:?}: {:?}",
                        name,
                        first_direction,
                        other.map(|_| ())
                    ),
                }
            }
        }
    }

    #[test]
    fn observer_sees_each_stage_once_in_order() {
        use Stage::*;
        for optimize in [false, true] {
            let mut seen = Vec::new();
            let cfg = Config {
                optimize,
                ..lr_config()
            };
            Analysis::staged(cycle_free(), &cfg, &mut |stage, _| seen.push(stage)).unwrap();
            let mut want = vec![Implicit, Completeness, Circularity, Optimize];
            want.extend([Passes, Lifetimes, Subsumption, Plans]);
            if !optimize {
                want.retain(|&s| s != Optimize);
            }
            assert_eq!(seen, want, "optimize = {}", optimize);
        }
    }

    #[test]
    fn rejection_reports_completeness_and_circularity_together() {
        // The intra-production cycle plus an attribute nothing defines.
        let mut b = AgBuilder::new();
        let s = b.nonterminal("S");
        let a = b.synthesized(s, "A", "int");
        let c = b.synthesized(s, "B", "int");
        b.synthesized(s, "U", "int");
        let p = b.production(s, vec![], None);
        b.rule(p, vec![AttrOcc::lhs(a)], Expr::Occ(AttrOcc::lhs(c)));
        b.rule(p, vec![AttrOcc::lhs(c)], Expr::Occ(AttrOcc::lhs(a)));
        b.start(s);
        let g = b.build().unwrap();
        let mut seen = Vec::new();
        let rejected = Analysis::staged(g.clone(), &lr_config(), &mut |stage, _| seen.push(stage))
            .unwrap_err();
        assert_eq!(
            seen,
            vec![Stage::Implicit, Stage::Completeness, Stage::Circularity]
        );
        assert!(matches!(
            rejected.errors.as_slice(),
            [AnalysisError::Check(_), AnalysisError::Circular(_)]
        ));
        assert!(rejected.opt.is_none() && rejected.passes.is_none());
        assert!(matches!(
            Analysis::run(g, &lr_config()),
            Err(AnalysisError::Check(_))
        ));
    }

    #[test]
    fn disabled_subsumption_marks_nothing_static() {
        let mut b = AgBuilder::new();
        let root = b.nonterminal("root");
        b.synthesized(root, "V", "int");
        let s = b.nonterminal("S");
        let sv = b.synthesized(s, "V", "int");
        let p1 = b.production(root, vec![s], None);
        let _ = p1;
        let p2 = b.production(s, vec![], None);
        b.rule(p2, vec![AttrOcc::lhs(sv)], Expr::Int(1));
        b.start(root);
        let g = b.build().unwrap();
        let cfg = Config {
            disable_subsumption: true,
            ..lr_config()
        };
        let a = Analysis::run(g, &cfg).unwrap();
        let stats = a.subsumption.stats(&a.grammar);
        assert_eq!(stats.static_attrs, 0);
        assert_eq!(stats.subsumed_rules, 0);
    }

    #[test]
    fn error_display_is_informative() {
        let mut b = AgBuilder::new();
        let s = b.nonterminal("S");
        b.synthesized(s, "V", "int");
        b.production(s, vec![], None);
        b.start(s);
        let g = b.build().unwrap();
        let err = Analysis::run(g, &lr_config()).unwrap_err();
        assert!(err.to_string().contains("completeness"));
    }
}
