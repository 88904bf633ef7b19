//! `linguist check`: run every stage and every lint, collect coded
//! findings instead of aborting at the first failing overlay.
//!
//! [`crate::driver::run`] reproduces the original pipeline's behaviour —
//! the first failing overlay stops the run. This driver exists for the
//! *diagnosis* use case: it keeps going past completeness and
//! circularity errors so one invocation reports everything the analyses
//! know, each finding carrying its stable `AG0xx` code, source span,
//! and JSON payload.

use crate::lang::parse;
use crate::lower::lower_with_spans;
use linguist_ag::analysis::{Analysis, AnalysisError, Config};
use linguist_ag::lint::{
    circularity_finding, codes, completeness_findings, pass_error_findings, run_lints,
    run_structure_lints, sort_findings, Finding, LintConfig,
};
use linguist_support::diag::Severity;
use linguist_support::json::Json;

/// Everything one `check` run produced.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// All findings, in canonical (span, severity, code) order.
    pub findings: Vec<Finding>,
    /// The pass count, when the grammar got far enough to have one.
    pub passes: Option<usize>,
}

impl CheckReport {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of note-severity findings.
    pub fn notes(&self) -> usize {
        self.count(Severity::Note)
    }

    fn count(&self, s: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity == s).count()
    }

    /// Whether the grammar is usable: no errors.
    pub fn clean(&self) -> bool {
        self.errors() == 0
    }

    /// Whether `--deny-warnings` would accept it: no errors, no
    /// warnings (notes are always allowed).
    pub fn clean_denying_warnings(&self) -> bool {
        self.errors() == 0 && self.warnings() == 0
    }

    /// Render as `path:line:col: severity[code]: message` lines plus a
    /// one-line summary.
    pub fn render_text(&self, path: &str) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}:{}: {}[{}]: {}\n",
                path, f.span.start.line, f.span.start.col, f.severity, f.code, f.message
            ));
        }
        out.push_str(&format!(
            "{}: {} error(s), {} warning(s), {} note(s)",
            path,
            self.errors(),
            self.warnings(),
            self.notes()
        ));
        if let Some(p) = self.passes {
            out.push_str(&format!("; {} passes", p));
        }
        out.push('\n');
        out
    }

    /// The machine-readable report: a single deterministic JSON object.
    pub fn to_json(&self, path: &str) -> Json {
        Json::Obj(vec![
            ("grammar".to_string(), Json::str(path)),
            ("errors".to_string(), Json::int(self.errors() as i64)),
            ("warnings".to_string(), Json::int(self.warnings() as i64)),
            ("notes".to_string(), Json::int(self.notes() as i64)),
            (
                "passes".to_string(),
                self.passes.map_or(Json::Null, |p| Json::int(p as i64)),
            ),
            (
                "diagnostics".to_string(),
                Json::Arr(self.findings.iter().map(Finding::to_json).collect()),
            ),
        ])
    }
}

/// Check LINGUIST source text: parse, lower, and run every analysis
/// and lint that still applies, collecting coded findings throughout.
///
/// Staging mirrors the pipeline but degrades instead of aborting:
/// a syntax error is the only unrecoverable stage (there is no grammar
/// to look at); resolution errors suppress everything downstream;
/// completeness and circularity errors suppress only the pass-dependent
/// lints, leaving the structural ones to run.
pub fn check_source(source: &str, config: &Config, lint: &LintConfig) -> CheckReport {
    let lint = LintConfig {
        explain_residual_copies: lint.explain_residual_copies && !config.disable_subsumption,
        ..*lint
    };

    // Stage 1: parse (AG011).
    let file = match parse(source) {
        Ok(f) => f,
        Err(e) => {
            return CheckReport {
                findings: vec![Finding {
                    code: codes::SYNTAX,
                    severity: Severity::Error,
                    span: e.span,
                    message: format!("syntax error: {}", e.message),
                    payload: Json::Obj(vec![("kind".to_string(), Json::str("syntax"))]),
                }],
                passes: None,
            };
        }
    };

    // Stage 2: lower (AG012).
    let (grammar, mut spans) = match lower_with_spans(&file) {
        Ok(pair) => pair,
        Err(errs) => {
            let mut findings: Vec<Finding> = errs
                .iter()
                .map(|e| Finding {
                    code: codes::RESOLUTION,
                    severity: Severity::Error,
                    span: e.span,
                    message: e.message.clone(),
                    payload: Json::Obj(vec![("kind".to_string(), Json::str("resolution"))]),
                })
                .collect();
            sort_findings(&mut findings);
            return CheckReport {
                findings,
                passes: None,
            };
        }
    };

    // Stage 3: the analysis pipeline. Completeness (AG007) and
    // circularity (AG006) errors are reported together; pass assignment
    // (AG010) and plan construction run only on well-formed grammars.
    let rejected = match Analysis::staged(grammar, config, &mut |_, _| {}) {
        Ok(analysis) => {
            if let Some(report) = &analysis.opt {
                spans.remap_rules(&report.rule_remap);
            }
            let mut findings = run_lints(&analysis, &spans, &lint);
            sort_findings(&mut findings);
            return CheckReport {
                findings,
                passes: Some(analysis.passes.num_passes()),
            };
        }
        Err(rejected) => rejected,
    };
    if let Some(report) = &rejected.opt {
        spans.remap_rules(&report.rule_remap);
    }
    let g = &rejected.grammar;
    let mut findings = Vec::new();
    for e in &rejected.errors {
        match e {
            AnalysisError::Check(errs) => findings.extend(completeness_findings(g, &spans, errs)),
            AnalysisError::Circular(c) => findings.push(circularity_finding(g, &spans, c)),
            AnalysisError::Pass(e) => findings.extend(pass_error_findings(e)),
            AnalysisError::Plan(e) => findings.push(Finding {
                code: codes::NOT_PASS_EVALUABLE,
                severity: Severity::Error,
                span: linguist_support::pos::Span::default(),
                message: format!("evaluation-plan construction failed: {}", e),
                payload: Json::Obj(vec![("kind".to_string(), Json::str("plan-error"))]),
            }),
        }
    }

    // Degraded path: the grammar exists but pass-dependent lints are
    // unavailable. Structural lints still apply.
    findings.extend(run_structure_lints(g, &spans));
    sort_findings(&mut findings);
    CheckReport {
        findings,
        passes: rejected.passes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
grammar Tiny ;
terminals  x : intrinsic OBJ int ;
nonterminals  s : syn V int ;
start s ;
productions
prod s = x :
  s.V = x.OBJ ;
end
end
"#;

    #[test]
    fn clean_grammar_reports_no_errors() {
        let r = check_source(GOOD, &Config::default(), &LintConfig::default());
        assert!(r.clean(), "{:?}", r.findings);
        assert_eq!(r.passes, Some(1));
    }

    #[test]
    fn syntax_error_is_ag011() {
        let r = check_source("grammar ;;;", &Config::default(), &LintConfig::default());
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].code, codes::SYNTAX);
        assert!(!r.clean());
        assert_eq!(r.passes, None);
    }

    #[test]
    fn resolution_error_is_ag012_with_span() {
        let src = r#"
grammar T ;
nonterminals s : syn V int ;
start s ;
productions
prod s = :
  s.MISSING = 1 ;
end
end
"#;
        let r = check_source(src, &Config::default(), &LintConfig::default());
        assert_eq!(r.findings[0].code, codes::RESOLUTION);
        assert!(r.findings[0].span.start.line >= 6);
    }

    #[test]
    fn incomplete_grammar_still_gets_structural_lints() {
        // s.V is never defined (AG007) and `dead` is unreachable (AG002).
        let src = r#"
grammar T ;
terminals x ;
nonterminals
  s : syn V int ;
  dead ;
start s ;
productions
prod s = x :
end
end
"#;
        let r = check_source(src, &Config::default(), &LintConfig::default());
        assert!(!r.clean());
        let codes_seen: Vec<&str> = r.findings.iter().map(|f| f.code).collect();
        assert!(codes_seen.contains(&codes::INCOMPLETE), "{:?}", codes_seen);
        assert!(
            codes_seen.contains(&codes::UNREACHABLE_SYMBOL),
            "{:?}",
            codes_seen
        );
        assert_eq!(r.passes, None);
    }

    #[test]
    fn json_report_is_deterministic() {
        let a = check_source(GOOD, &Config::default(), &LintConfig::default())
            .to_json("tiny.lg")
            .to_string();
        let b = check_source(GOOD, &Config::default(), &LintConfig::default())
            .to_json("tiny.lg")
            .to_string();
        assert_eq!(a, b);
        assert!(a.starts_with(r#"{"grammar":"tiny.lg","errors":0"#), "{}", a);
    }

    #[test]
    fn text_report_has_summary_line() {
        let r = check_source(GOOD, &Config::default(), &LintConfig::default());
        let text = r.render_text("tiny.lg");
        assert!(
            text.contains("tiny.lg: 0 error(s), 0 warning(s)"),
            "{}",
            text
        );
        assert!(text.trim_end().ends_with("1 passes"));
    }
}
