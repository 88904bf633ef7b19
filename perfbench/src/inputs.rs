//! Seeded workload inputs and the independent references that check the
//! program's outputs.
//!
//! The same seed always yields the same inputs. No reference is computed
//! by the evaluator under test: calc values come from this module's own
//! arithmetic, block and pascal counts are known by construction, and
//! meta counts come from `frontend::lower` of the same text.

use linguist_grammars::synth::{generate, SynthParams};

/// SplitMix64: a small, fully specified generator, so inputs do not
/// depend on any library's sampling algorithm.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` under `seed`; distinct streams give
    /// independent sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Shuffle `v` in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.range(0, i as u64) as usize);
        }
    }
}

/// `n` stratified draws from `lo..=hi`: the k-th lies in the k-th of `n`
/// equal slices of the range. Inputs differ from seed to seed while the
/// total work of a set stays nearly the same.
pub fn strata(rng: &mut Rng, (lo, hi): (u64, u64), n: usize) -> Vec<u64> {
    let width = (hi - lo + 1) as f64 / n as f64;
    (0..n)
        .map(|k| {
            let jitter = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            lo + ((k as f64 + jitter) * width) as u64
        })
        .collect()
}

/// Stratified sizes for two parameters, paired slice by slice (so the
/// product varies as little as the factors do), in seeded order.
fn paired(rng: &mut Rng, a: (u64, u64), b: (u64, u64), n: usize) -> Vec<(usize, usize)> {
    let xs = strata(rng, a, n);
    let ys = strata(rng, b, n);
    let mut pairs: Vec<(usize, usize)> = xs
        .into_iter()
        .zip(ys)
        .map(|(x, y)| (x as usize, y as usize))
        .collect();
    rng.shuffle(&mut pairs);
    pairs
}

/// What a correct translation must produce, by grammar.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// calc: the value `V`.
    Calc { value: i64 },
    /// block: `NDECL` declarations and an empty `ERRS`.
    Block { decls: i64 },
    /// pascal: `NVARS` variables, `CODE` instructions, empty `MSGS`.
    Pascal { vars: i64, code: i64 },
    /// meta: symbol and production counts, no messages, nothing unused.
    Meta { symbols: i64, productions: i64 },
}

/// One translate input with its reference.
#[derive(Clone, Debug)]
pub struct Case {
    /// Source text handed to the translator.
    pub text: String,
    /// The reference outcome.
    pub expect: Expect,
}

/// A calc expression: a sum of signed terms, each a product of factors,
/// each a number or a parenthesized sum.
struct Sum(Vec<(char, Vec<Factor>)>);

enum Factor {
    Num(i64),
    Paren(Sum),
}

/// A sum of `terms` terms. The shape is fixed by position, so every draw
/// of one size has the same parse tree: term `i` has `1 + i % 3` factors,
/// and every eighth factor is a parenthesized three-term sum while
/// `depth` allows. The seed picks the operators and the numbers.
fn gen_sum(rng: &mut Rng, terms: u64, depth: u32) -> Sum {
    let mut out = Vec::new();
    let mut nth = 0;
    for i in 0..terms {
        let op = if i == 0 || rng.range(0, 1) == 0 {
            '+'
        } else {
            '-'
        };
        let mut facs = Vec::new();
        for _ in 0..1 + i % 3 {
            nth += 1;
            if depth > 0 && nth % 8 == 0 {
                facs.push(Factor::Paren(gen_sum(rng, 3, depth - 1)));
            } else {
                facs.push(Factor::Num(rng.range(0, 99) as i64));
            }
        }
        out.push((op, facs));
    }
    Sum(out)
}

fn render_sum(s: &Sum, out: &mut String) {
    for (i, (op, facs)) in s.0.iter().enumerate() {
        if i > 0 {
            out.push_str(if *op == '-' { " - " } else { " + " });
        }
        for (j, f) in facs.iter().enumerate() {
            if j > 0 {
                out.push_str(" * ");
            }
            match f {
                Factor::Num(n) => out.push_str(&n.to_string()),
                Factor::Paren(inner) => {
                    out.push('(');
                    render_sum(inner, out);
                    out.push(')');
                }
            }
        }
    }
}

/// Evaluate a calc source the way its grammar reads it: `+` and `-`
/// left-associative over `*`-products of numbers and parenthesized
/// sums, by hand-written recursive descent with checked arithmetic.
/// `None` on malformed text or overflow.
pub fn calc_reference(text: &str) -> Option<i64> {
    let toks: Vec<&str> = text
        .split_whitespace()
        .flat_map(|w| split_parens(w))
        .collect();
    let mut pos = 0;
    let v = read_sum(&toks, &mut pos)?;
    (pos == toks.len()).then_some(v)
}

fn split_parens(w: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    for (i, c) in w.char_indices() {
        if c == '(' || c == ')' {
            if start < i {
                out.push(&w[start..i]);
            }
            out.push(&w[i..i + 1]);
            start = i + 1;
        }
    }
    if start < w.len() {
        out.push(&w[start..]);
    }
    out
}

fn read_sum(t: &[&str], pos: &mut usize) -> Option<i64> {
    let mut acc = read_product(t, pos)?;
    while let Some(&op) = t.get(*pos) {
        match op {
            "+" => {
                *pos += 1;
                acc = acc.checked_add(read_product(t, pos)?)?;
            }
            "-" => {
                *pos += 1;
                acc = acc.checked_sub(read_product(t, pos)?)?;
            }
            _ => break,
        }
    }
    Some(acc)
}

fn read_product(t: &[&str], pos: &mut usize) -> Option<i64> {
    let mut acc = read_factor(t, pos)?;
    while t.get(*pos) == Some(&"*") {
        *pos += 1;
        acc = acc.checked_mul(read_factor(t, pos)?)?;
    }
    Some(acc)
}

fn read_factor(t: &[&str], pos: &mut usize) -> Option<i64> {
    let tok = *t.get(*pos)?;
    *pos += 1;
    if tok == "(" {
        let v = read_sum(t, pos)?;
        (t.get(*pos) == Some(&")")).then(|| *pos += 1)?;
        Some(v)
    } else {
        tok.parse().ok()
    }
}

/// A calc case with `terms` top-level terms.
pub fn calc_case(rng: &mut Rng, terms: u64) -> Case {
    loop {
        let mut text = String::new();
        render_sum(&gen_sum(rng, terms, 2), &mut text);
        // Overflowing expressions are redrawn, so every value is exact.
        if let Some(value) = calc_reference(&text) {
            return Case {
                text,
                expect: Expect::Calc { value },
            };
        }
    }
}

/// A block case: `decls` declarations (each used after it) at each of
/// `depth` nesting levels.
pub fn block_case(decls: usize, depth: usize) -> Case {
    Case {
        text: linguist_grammars::block_program(decls, depth),
        expect: Expect::Block {
            decls: (decls * depth) as i64,
        },
    }
}

/// A pascal case: `vars` integer declarations and `stmts` assignments
/// of the form `v := v + k * v`. Each assignment emits 6 instructions
/// under the grammar's CODE rules: 1 per variable or number read, 1 per
/// operator, 1 for the store.
pub fn pascal_case(vars: usize, stmts: usize) -> Case {
    Case {
        text: linguist_grammars::pascal_program(vars, stmts),
        expect: Expect::Pascal {
            vars: vars as i64,
            code: 6 * stmts as i64,
        },
    }
}

/// A seeded synthetic grammar printed as `.lg` source.
pub fn synth_source(name: &str, params: SynthParams) -> String {
    linguist_frontend::print_grammar(&generate(&params).grammar, name)
}

/// Rename the synthetic grammars' terminals `t0`, `t1`, ... to `ta`,
/// `tb`, ...: the meta grammar reads a trailing number as an occurrence
/// suffix, so a symbol whose name ends in digits reads as undeclared.
pub fn letter_names(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut word = String::new();
    let flush = |word: &mut String, out: &mut String| {
        match word.strip_prefix('t').and_then(|d| d.parse::<u64>().ok()) {
            Some(mut n) if word.len() > 1 => {
                out.push('t');
                let mut letters = Vec::new();
                loop {
                    letters.push((b'a' + (n % 26) as u8) as char);
                    n /= 26;
                    if n == 0 {
                        break;
                    }
                }
                out.extend(letters.iter().rev());
            }
            _ => out.push_str(word),
        }
        word.clear();
    };
    for c in text.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            word.push(c);
        } else {
            flush(&mut word, &mut out);
            out.push(c);
        }
    }
    flush(&mut word, &mut out);
    out
}

/// A meta case: `.lg` source whose counts come from lowering it.
pub fn meta_case(text: String) -> Case {
    let file = linguist_frontend::parse(&text).expect("generated grammar parses");
    let g = linguist_frontend::lower(&file).expect("generated grammar lowers");
    Case {
        expect: Expect::Meta {
            symbols: g.symbols().len() as i64,
            productions: g.productions().len() as i64,
        },
        text,
    }
}

/// Parameters for a seeded synthetic grammar of about `prods` list
/// productions and `attrs` inherited attributes.
pub fn synth_params(rng: &mut Rng, attrs: u64, prods: u64) -> SynthParams {
    SynthParams {
        inherited_attrs: attrs as usize,
        list_productions: prods as usize,
        copy_density: 0.5,
        seed: rng.next_u64(),
    }
}

/// Inputs per translate class. Odd, so a class's median falls inside the
/// middle input's own samples rather than in the gap between two inputs.
pub const CASES_PER_CLASS: usize = 7;

/// Input size ranges (inclusive) for the four translate classes. The
/// ranges are narrow, so a class's samples form one cluster.
pub struct Sizes {
    pub calc_terms: (u64, u64),
    pub block_decls: (u64, u64),
    pub block_depth: (u64, u64),
    pub pascal_vars: (u64, u64),
    pub pascal_stmts: (u64, u64),
    pub meta_attrs: (u64, u64),
    pub meta_prods: (u64, u64),
}

/// In-process inputs: a few milliseconds of evaluation each.
pub const IN_PROCESS: Sizes = Sizes {
    calc_terms: (56, 64),
    block_decls: (9, 11),
    block_depth: (4, 4),
    pascal_vars: (12, 16),
    pascal_stmts: (36, 40),
    meta_attrs: (4, 4),
    meta_prods: (9, 10),
};

/// Serve inputs: small jobs, a sliver of a loopback round trip.
pub const SERVE: Sizes = Sizes {
    calc_terms: (6, 8),
    block_decls: (2, 2),
    block_depth: (1, 2),
    pascal_vars: (2, 3),
    pascal_stmts: (3, 4),
    meta_attrs: (2, 2),
    meta_prods: (2, 3),
};

/// The four translate classes' inputs under `seed`, `per_class` each.
pub fn translate_cases(seed: u64, per_class: usize, z: &Sizes) -> Vec<(&'static str, Vec<Case>)> {
    let mut calc = Rng::new(seed, 1);
    let mut block = Rng::new(seed, 2);
    let mut pascal = Rng::new(seed, 3);
    let mut meta = Rng::new(seed, 4);
    let mut terms = strata(&mut calc, z.calc_terms, per_class);
    calc.shuffle(&mut terms);
    vec![
        (
            "calc",
            terms.into_iter().map(|t| calc_case(&mut calc, t)).collect(),
        ),
        (
            "block",
            paired(&mut block, z.block_decls, z.block_depth, per_class)
                .into_iter()
                .map(|(decls, depth)| block_case(decls, depth))
                .collect(),
        ),
        (
            "pascal",
            paired(&mut pascal, z.pascal_vars, z.pascal_stmts, per_class)
                .into_iter()
                .map(|(vars, stmts)| pascal_case(vars, stmts))
                .collect(),
        ),
        (
            "meta",
            paired(&mut meta, z.meta_attrs, z.meta_prods, per_class)
                .into_iter()
                .enumerate()
                .map(|(i, (attrs, prods))| {
                    // The grammar's shape is fixed per slot, so its cost
                    // does not vary with the seed; the seed names it.
                    let p = SynthParams {
                        inherited_attrs: attrs,
                        list_productions: prods,
                        copy_density: 0.5,
                        seed: i as u64,
                    };
                    let name = format!("M{:06x}", meta.range(0, 0xff_ffff));
                    meta_case(letter_names(&synth_source(&name, p)))
                })
                .collect(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_yields_identical_inputs() {
        let a = translate_cases(7, 3, &IN_PROCESS);
        let b = translate_cases(7, 3, &IN_PROCESS);
        let c = translate_cases(8, 3, &IN_PROCESS);
        let texts = |v: &[(&str, Vec<Case>)]| -> Vec<String> {
            v.iter()
                .flat_map(|(_, cs)| cs.iter().map(|c| c.text.clone()))
                .collect()
        };
        assert_eq!(texts(&a), texts(&b));
        assert_ne!(texts(&a), texts(&c));
        let expects = |v: &[(&str, Vec<Case>)]| -> Vec<Expect> {
            v.iter()
                .flat_map(|(_, cs)| cs.iter().map(|c| c.expect.clone()))
                .collect()
        };
        assert_eq!(expects(&a), expects(&b));
    }

    #[test]
    fn strata_cover_the_range_one_slice_each() {
        let mut rng = Rng::new(5, 0);
        let v = strata(&mut rng, (10, 89), 8);
        for (k, x) in v.iter().enumerate() {
            assert!(
                (10 + 10 * k as u64..10 + 10 * (k as u64 + 1)).contains(x),
                "{k}: {x}"
            );
        }
    }

    #[test]
    fn calc_reference_on_hand_computed_cases() {
        assert_eq!(calc_reference("1 + 2 * 3"), Some(7));
        assert_eq!(calc_reference("10 - 4 - 3"), Some(3));
        assert_eq!(calc_reference("(10 - 4) * (2 + 1) - 5"), Some(13));
        assert_eq!(calc_reference("2 * (3 + 4 * (1 - 2)) * 5"), Some(-10));
        assert_eq!(calc_reference("7"), Some(7));
        assert_eq!(calc_reference("1 +"), None);
        assert_eq!(calc_reference("(1 + 2"), None);
    }

    #[test]
    fn block_and_pascal_counts_by_construction() {
        let b = block_case(2, 3);
        assert_eq!(b.expect, Expect::Block { decls: 6 });
        assert_eq!(b.text.matches("var ").count(), 6);
        assert_eq!(b.text.matches("use ").count(), 6);
        let p = pascal_case(4, 5);
        assert_eq!(p.expect, Expect::Pascal { vars: 4, code: 30 });
        assert_eq!(p.text.matches(":= ").count(), 5);
        assert_eq!(p.text.matches(": integer").count(), 4);
    }

    #[test]
    fn letter_names_rename_numbered_terminals_only() {
        assert_eq!(
            letter_names("prod S0 = S1 t0 :\n  S1.CTX2 = t27.OBJ ; t ;"),
            "prod S0 = S1 ta :\n  S1.CTX2 = tbb.OBJ ; t ;"
        );
    }

    #[test]
    fn meta_counts_come_from_lowering() {
        let c = meta_case(linguist_grammars::calc_source().to_string());
        // calc.lg: 6 terminals + 3 nonterminals, 7 productions.
        assert_eq!(
            c.expect,
            Expect::Meta {
                symbols: 9,
                productions: 7
            }
        );
    }
}
