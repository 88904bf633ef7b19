//! Static subsumption (§III) — "the really important optimization".
//!
//! Attributes may be *statically allocated* to global variables;
//! "LINGUIST-86 allocates all static attributes with the same name to the
//! same global variable". A copy-rule whose source and target are
//! instances allocated to the same global needs **no code at all** — the
//! proper value is already in the global. The price is paid where a static
//! attribute is defined by something *other* than a subsumable copy-rule:
//! there the old global value must be saved in a stack temporary around
//! the sub-APT visit and restored afterwards.
//!
//! The selection algorithm is the paper's: "start by assuming that all
//! attributes are statically allocated. Each attribute is then checked to
//! see if it costs more in code size for it to be static than it would if
//! it were normally allocated … all remaining static attributes must be
//! reexamined until the process stabilizes. This is an n-cubed algorithm
//! and it does not always find an optimal set." The check compares the
//! copy-rule code a static attribute eliminates against the save/restore
//! code it induces, under an explicit [`SubsumptionCosts`] model.
//!
//! A second, more aggressive grouping ("Static subsumption can be even
//! more widely applied by allocating several different attributes to the
//! same global variable", with the restriction that two attributes of the
//! same symbol may not share) is available as
//! [`GroupMode::CoalesceCopies`] and drives the E13 ablation.

use crate::grammar::{AttrClass, Grammar};
use crate::ids::{AttrId, AttrOcc, ProdId, RuleId};
use crate::passes::PassAssignment;
use linguist_support::intern::Name;
use std::collections::HashMap;

/// Relative code-size costs used by the keep-static check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubsumptionCosts {
    /// Bytes of code one explicit copy-rule would generate.
    pub copy: usize,
    /// Bytes of save/set/restore code one non-subsumed definition of a
    /// static attribute generates.
    pub save_restore: usize,
}

impl Default for SubsumptionCosts {
    fn default() -> SubsumptionCosts {
        // "In general, the extra code necessary to save/restore a global
        // variable is as much as the code saved by subsuming several
        // copy-rules" — a save/restore site costs a few copies' worth.
        SubsumptionCosts {
            copy: 12,
            save_restore: 45,
        }
    }
}

/// How attributes are grouped onto global variables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GroupMode {
    /// The paper's production rule: one global per attribute *name*.
    #[default]
    SameName,
    /// The paper's extension: also coalesce differently-named attributes
    /// connected by copy-rules (union-find), subject to the
    /// same-symbol restriction.
    CoalesceCopies,
}

/// Identifier of a global variable (a group of attributes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u32);

/// Where in a production procedure one step of the global protocol runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SiteAt {
    /// Before the visit to child `i`: install an inherited value of the
    /// child in its global.
    BeforeVisit(u16),
    /// After the visit to child `i`: a synthesized value of the child must
    /// have arrived in its global.
    AfterVisit(u16),
    /// At the end of the procedure: leave a synthesized value of the
    /// left-hand side in its global for the parent.
    End,
}

/// One step of the global-variable protocol: a static attribute defined in
/// the current pass, at one place in one production procedure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProtocolSite {
    /// Where the step runs.
    pub at: SiteAt,
    /// The attribute.
    pub attr: AttrId,
    /// Its global variable.
    pub group: GroupId,
    /// Whether the production's rule defining the instance is subsumed, so
    /// its value must already be in the global. Always false after a visit,
    /// where the production defines nothing.
    pub subsumed: bool,
}

/// The computed static-subsumption allocation.
#[derive(Clone, Debug)]
pub struct Subsumption {
    /// Per attribute: whether it is statically allocated.
    is_static: Vec<bool>,
    /// Per attribute: its global-variable group.
    group_of: Vec<GroupId>,
    /// Group display names (attribute name, or joined names for coalesced
    /// groups).
    group_names: Vec<String>,
    /// Per rule: whether the rule is subsumed (generates no code).
    subsumed: Vec<bool>,
    /// Costs used.
    costs: SubsumptionCosts,
    /// The protocol sites of every (pass, production), flattened: row
    /// `(k - 1) × productions + p` is `sites[site_at[row]..site_at[row + 1]]`.
    sites: Vec<ProtocolSite>,
    site_at: Vec<u32>,
    productions: usize,
}

/// Aggregate statistics for the experiment tables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubsumptionStats {
    /// Number of statically allocated attributes.
    pub static_attrs: usize,
    /// Total eligible attributes.
    pub eligible_attrs: usize,
    /// Copy-rules in the grammar.
    pub copy_rules: usize,
    /// Copy-rules eliminated (subsumed).
    pub subsumed_rules: usize,
    /// Non-subsumed definitions of static attributes (each pays
    /// save/restore).
    pub save_restore_sites: usize,
}

impl Subsumption {
    /// Run the allocation algorithm. `passes` (when available) restricts
    /// subsumption to copies whose source and target live in the same
    /// pass — the global variables only carry current-pass information
    /// between production-procedures; a value from an earlier pass sits in
    /// the node record, so copying it cannot be elided.
    pub fn compute(
        g: &Grammar,
        mode: GroupMode,
        costs: SubsumptionCosts,
        passes: Option<&PassAssignment>,
    ) -> Subsumption {
        let n = g.attrs().len();
        let group_assign = assign_groups(g, mode);

        // Eligibility: only inherited and synthesized attributes take part
        // (intrinsics are parser-set leaf data; limb attributes are
        // production-local temporaries).
        let eligible: Vec<bool> = g
            .attrs()
            .iter()
            .map(|a| matches!(a.class, AttrClass::Inherited | AttrClass::Synthesized))
            .collect();

        // Start with every eligible attribute static (the paper's seed).
        // The decision unit is the allocation unit: the *group* sharing
        // one global variable ("LINGUIST-86 allocates all static
        // attributes with the same name to the same global variable").
        // A group earns its global when the copy-rules it subsumes, taken
        // together, outweigh the save/restore sites its other definitions
        // induce — the paper's observation that allocating all same-named
        // inherited attributes together is effective "because this context
        // information is not often updated".
        let num_groups = group_assign.group_names.len();
        let mut group_static = vec![true; num_groups];
        let mut is_static: Vec<bool> = eligible.clone();

        // Reexamine until stable (the n³ loop; one round suffices for
        // same-name groups, coalesced groupings can cascade).
        loop {
            let mut changed = false;
            #[allow(clippy::needless_range_loop)] // mutates the same vec
            for gix in 0..num_groups {
                if !group_static[gix] {
                    continue;
                }
                let (subsumable, other_defs) = classify_group_defs(
                    g,
                    GroupId(gix as u32),
                    &is_static,
                    &group_assign.group_of,
                    passes,
                );
                let benefit = subsumable * costs.copy;
                let cost = other_defs * costs.save_restore;
                if benefit < cost || subsumable == 0 {
                    group_static[gix] = false;
                    for ai in 0..n {
                        if group_assign.group_of[ai] == GroupId(gix as u32) {
                            is_static[ai] = false;
                        }
                    }
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Final subsumed-rule marking.
        let subsumed: Vec<bool> = g
            .rules()
            .iter()
            .map(|r| {
                rule_subsumable(
                    r.targets.first().copied().filter(|_| r.targets.len() == 1),
                    r.copy_source(),
                    &is_static,
                    &group_assign.group_of,
                    passes,
                )
            })
            .collect();

        let (sites, site_at) = match passes {
            Some(passes) => {
                protocol_table(g, &is_static, &group_assign.group_of, &subsumed, passes)
            }
            None => (Vec::new(), Vec::new()),
        };
        Subsumption {
            is_static,
            group_of: group_assign.group_of,
            group_names: group_assign.group_names,
            subsumed,
            costs,
            sites,
            site_at,
            productions: g.productions().len(),
        }
    }

    /// The no-op allocation: nothing static, nothing subsumed — the
    /// "without static subsumption" configuration of the paper's
    /// with/without comparison.
    pub fn disabled(g: &Grammar) -> Subsumption {
        let assign = assign_groups(g, GroupMode::SameName);
        Subsumption {
            is_static: vec![false; g.attrs().len()],
            group_of: assign.group_of,
            group_names: assign.group_names,
            subsumed: vec![false; g.rules().len()],
            costs: SubsumptionCosts::default(),
            sites: Vec::new(),
            site_at: Vec::new(),
            productions: g.productions().len(),
        }
    }

    /// Whether attribute `a` is statically allocated.
    pub fn is_static(&self, a: AttrId) -> bool {
        self.is_static[a.0 as usize]
    }

    /// The global-variable group of `a` (meaningful whether or not `a`
    /// ended up static).
    pub fn group_of(&self, a: AttrId) -> GroupId {
        self.group_of[a.0 as usize]
    }

    /// Display name of a group.
    pub fn group_name(&self, gr: GroupId) -> &str {
        &self.group_names[gr.0 as usize]
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.group_names.len()
    }

    /// Whether rule `r` is subsumed (generates no code).
    pub fn is_subsumed(&self, r: RuleId) -> bool {
        self.subsumed[r.0 as usize]
    }

    /// The global-protocol steps of production `p` in pass `k` (1-based),
    /// in procedure order for each place: the evaluation machine's work
    /// list, built once with the allocation. Empty for a pass outside the
    /// pass assignment the allocation was computed with, and always empty
    /// when it was computed without one.
    pub fn protocol(&self, k: u16, p: ProdId) -> &[ProtocolSite] {
        let Some(row) = (k as usize).checked_sub(1) else {
            return &[];
        };
        let row = row * self.productions + p.0 as usize;
        match (self.site_at.get(row), self.site_at.get(row + 1)) {
            (Some(&from), Some(&to)) => &self.sites[from as usize..to as usize],
            _ => &[],
        }
    }

    /// The cost model used.
    pub fn costs(&self) -> SubsumptionCosts {
        self.costs
    }

    /// Aggregate statistics.
    pub fn stats(&self, g: &Grammar) -> SubsumptionStats {
        let mut s = SubsumptionStats {
            eligible_attrs: g
                .attrs()
                .iter()
                .filter(|a| matches!(a.class, AttrClass::Inherited | AttrClass::Synthesized))
                .count(),
            static_attrs: self.is_static.iter().filter(|&&b| b).count(),
            ..SubsumptionStats::default()
        };
        for (ri, r) in g.rules().iter().enumerate() {
            if r.is_copy() {
                s.copy_rules += 1;
            }
            if self.subsumed[ri] {
                s.subsumed_rules += 1;
            } else if r.targets.iter().any(|t| self.is_static[t.attr.0 as usize]) {
                s.save_restore_sites += 1;
            }
        }
        s
    }
}

struct GroupAssign {
    group_of: Vec<GroupId>,
    group_names: Vec<String>,
}

fn assign_groups(g: &Grammar, mode: GroupMode) -> GroupAssign {
    let n = g.attrs().len();
    match mode {
        GroupMode::SameName => {
            let mut by_name: HashMap<Name, GroupId> = HashMap::new();
            let mut names = Vec::new();
            let mut group_of = Vec::with_capacity(n);
            for a in g.attrs() {
                let next = GroupId(names.len() as u32);
                let id = *by_name.entry(a.name).or_insert_with(|| {
                    names.push(g.resolve(a.name).to_owned());
                    next
                });
                group_of.push(id);
            }
            GroupAssign {
                group_of,
                group_names: names,
            }
        }
        GroupMode::CoalesceCopies => {
            // Union-find seeded by name groups, then merged across
            // copy-rules, refusing merges that would put two attributes of
            // one symbol in one global.
            let mut parent: Vec<usize> = (0..n).collect();
            fn find(parent: &mut Vec<usize>, x: usize) -> usize {
                if parent[x] != x {
                    let r = find(parent, parent[x]);
                    parent[x] = r;
                }
                parent[x]
            }
            let violates = |parent: &mut Vec<usize>, a: usize, b: usize, g: &Grammar| -> bool {
                // Would merging a's and b's classes co-locate two
                // attributes of the same symbol?
                let ra = find(parent, a);
                let rb = find(parent, b);
                if ra == rb {
                    return false;
                }
                let mut symbols = Vec::new();
                for x in 0..parent.len() {
                    let r = find(parent, x);
                    if r == ra || r == rb {
                        let s = g.attr(AttrId(x as u32)).symbol;
                        if symbols.contains(&s) {
                            return true;
                        }
                        symbols.push(s);
                    }
                }
                false
            };
            // Seed: same-name merges (the production rule), same
            // restriction applies trivially (same symbol can't declare one
            // name twice).
            let mut by_name: HashMap<Name, usize> = HashMap::new();
            for (ai, a) in g.attrs().iter().enumerate() {
                if let Some(&first) = by_name.get(&a.name) {
                    let (ra, rb) = (find(&mut parent, first), find(&mut parent, ai));
                    if ra != rb {
                        parent[rb] = ra;
                    }
                } else {
                    by_name.insert(a.name, ai);
                }
            }
            // Extension: merge across copy rules.
            for r in g.rules() {
                let (Some(t), Some(s)) = (r.targets.first(), r.copy_source()) else {
                    continue;
                };
                let (ta, sa) = (t.attr.0 as usize, s.attr.0 as usize);
                if !violates(&mut parent, ta, sa, g) {
                    let (ra, rb) = (find(&mut parent, ta), find(&mut parent, sa));
                    if ra != rb {
                        parent[rb] = ra;
                    }
                }
            }
            // Number the classes.
            let mut id_of_root: HashMap<usize, GroupId> = HashMap::new();
            let mut names: Vec<String> = Vec::new();
            let mut group_of = Vec::with_capacity(n);
            for ai in 0..n {
                let root = find(&mut parent, ai);
                let next = GroupId(names.len() as u32);
                let id = *id_of_root.entry(root).or_insert_with(|| {
                    names.push(g.resolve(g.attrs()[root].name).to_owned());
                    next
                });
                group_of.push(id);
            }
            GroupAssign {
                group_of,
                group_names: names,
            }
        }
    }
}

/// The protocol sites of every (pass, production), flattened in that order,
/// with the row offsets. A production procedure touches a global for each
/// static attribute of a child or of its left-hand side that is defined in
/// the pass: inherited ones of a child before its visit, synthesized ones
/// of a child after it, and synthesized ones of the left-hand side at the
/// end.
fn protocol_table(
    g: &Grammar,
    is_static: &[bool],
    group_of: &[GroupId],
    subsumed: &[bool],
    passes: &PassAssignment,
) -> (Vec<ProtocolSite>, Vec<u32>) {
    let prods = g.productions().len();
    let mut rows: Vec<Vec<ProtocolSite>> = vec![Vec::new(); passes.num_passes() * prods];
    for (pi, p) in g.productions().iter().enumerate() {
        let defined_by_subsumed = |occ: AttrOcc| {
            p.rules
                .iter()
                .find(|&&r| g.rule(r).targets.contains(&occ))
                .is_some_and(|&r| subsumed[r.0 as usize])
        };
        let mut add = |at: SiteAt, attr: AttrId, subsumed: bool| {
            let k = passes.pass_of(attr) as usize;
            if let Some(row) = k.checked_sub(1).and_then(|k| rows.get_mut(k * prods + pi)) {
                row.push(ProtocolSite {
                    at,
                    attr,
                    group: group_of[attr.0 as usize],
                    subsumed,
                });
            }
        };
        let statics = |sym| {
            g.symbol(sym)
                .attrs
                .iter()
                .copied()
                .filter(|a| is_static[a.0 as usize])
        };
        for (i, &sym) in p.rhs.iter().enumerate() {
            let i = i as u16;
            for a in statics(sym) {
                match g.attr(a).class {
                    AttrClass::Inherited => add(
                        SiteAt::BeforeVisit(i),
                        a,
                        defined_by_subsumed(AttrOcc::rhs(i, a)),
                    ),
                    AttrClass::Synthesized => add(SiteAt::AfterVisit(i), a, false),
                    _ => {}
                }
            }
        }
        for a in statics(p.lhs) {
            if g.attr(a).class == AttrClass::Synthesized {
                add(SiteAt::End, a, defined_by_subsumed(AttrOcc::lhs(a)));
            }
        }
    }
    let mut site_at = Vec::with_capacity(rows.len() + 1);
    site_at.push(0);
    let mut sites = Vec::new();
    for row in rows {
        sites.extend(row);
        site_at.push(sites.len() as u32);
    }
    (sites, site_at)
}

/// Count, over all rules defining any member of group `gr`, how many are
/// subsumable copy-rules and how many are "other" definitions (which pay
/// save/restore while the group is static).
fn classify_group_defs(
    g: &Grammar,
    gr: GroupId,
    is_static: &[bool],
    group_of: &[GroupId],
    passes: Option<&PassAssignment>,
) -> (usize, usize) {
    let mut subsumable = 0;
    let mut other = 0;
    for r in g.rules() {
        let hits = r
            .targets
            .iter()
            .filter(|t| group_of[t.attr.0 as usize] == gr && is_static[t.attr.0 as usize])
            .count();
        if hits == 0 {
            continue;
        }
        if rule_subsumable(
            r.targets.first().copied().filter(|_| r.targets.len() == 1),
            r.copy_source(),
            is_static,
            group_of,
            passes,
        ) {
            subsumable += 1;
        } else {
            other += hits;
        }
    }
    (subsumable, other)
}

fn rule_subsumable(
    target: Option<crate::ids::AttrOcc>,
    source: Option<crate::ids::AttrOcc>,
    is_static: &[bool],
    group_of: &[GroupId],
    passes: Option<&PassAssignment>,
) -> bool {
    match (target, source) {
        (Some(t), Some(s)) => {
            is_static[t.attr.0 as usize]
                && is_static[s.attr.0 as usize]
                && group_of[t.attr.0 as usize] == group_of[s.attr.0 as usize]
                && passes.is_none_or(|p| p.pass_of(t.attr) == p.pass_of(s.attr))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::grammar::AgBuilder;
    use crate::ids::AttrOcc;

    /// A copy-chain grammar: ENV copied down a list; VAL computed.
    /// root -> S; S -> S x | x.
    fn copy_chain() -> Grammar {
        let mut b = AgBuilder::new();
        let root = b.nonterminal("root");
        let rv = b.synthesized(root, "VAL", "int");
        let s = b.nonterminal("S");
        let sv = b.synthesized(s, "VAL", "int");
        let se = b.inherited(s, "ENV", "env");
        let x = b.terminal("x");
        let obj = b.intrinsic(x, "OBJ", "int");
        let p0 = b.production(root, vec![s], None);
        b.rule(p0, vec![AttrOcc::rhs(0, se)], Expr::Int(0)); // seed: non-copy
        b.rule(p0, vec![AttrOcc::lhs(rv)], Expr::Occ(AttrOcc::rhs(0, sv)));
        let p1 = b.production(s, vec![s, x], None);
        b.rule(p1, vec![AttrOcc::rhs(0, se)], Expr::Occ(AttrOcc::lhs(se))); // copy S.ENV = S0.ENV
        b.rule(p1, vec![AttrOcc::lhs(sv)], Expr::Occ(AttrOcc::rhs(0, sv))); // copy VAL up
        let p2 = b.production(s, vec![x], None);
        let lookup = b.name("Lookup");
        b.rule(
            p2,
            vec![AttrOcc::lhs(sv)],
            Expr::Call {
                func: lookup,
                args: vec![Expr::Occ(AttrOcc::lhs(se)), Expr::Occ(AttrOcc::rhs(0, obj))],
            },
        );
        b.start(root);
        b.build().unwrap()
    }

    #[test]
    fn env_chain_stays_static_and_copies_subsume() {
        let g = copy_chain();
        // In this miniature grammar ENV has one copy-rule against one
        // seeding definition; pick costs where one subsumed copy pays for
        // one save/restore. (In the paper's 1800-line grammar the ratio is
        // dozens of copies per seed, so the default costs keep ENV static
        // there.)
        let sub = Subsumption::compute(
            &g,
            GroupMode::SameName,
            SubsumptionCosts {
                copy: 20,
                save_restore: 10,
            },
            None,
        );
        let s = g.symbol_by_name("S").unwrap();
        let se = g.attr_by_name(s, "ENV").unwrap();
        assert!(sub.is_static(se), "ENV participates in a pure copy chain");
        let stats = sub.stats(&g);
        assert!(stats.subsumed_rules >= 1, "ENV copy subsumed: {:?}", stats);
        // The ENV copy-rule (rule index 2) must be subsumed.
        assert!(sub.is_subsumed(RuleId(2)));
    }

    #[test]
    fn protocol_table_lists_each_procedures_sites() {
        use crate::passes::{assign_passes, PassConfig};
        let g = copy_chain();
        let passes = assign_passes(&g, &PassConfig::default()).unwrap();
        assert_eq!(passes.num_passes(), 1);
        let costs = SubsumptionCosts {
            copy: 20,
            save_restore: 10,
        };
        let sub = Subsumption::compute(&g, GroupMode::SameName, costs, Some(&passes));
        let (root, s) = (
            g.symbol_by_name("root").unwrap(),
            g.symbol_by_name("S").unwrap(),
        );
        let root_val = g.attr_by_name(root, "VAL").unwrap();
        let (val, env) = (
            g.attr_by_name(s, "VAL").unwrap(),
            g.attr_by_name(s, "ENV").unwrap(),
        );
        let site = |at, attr, subsumed| ProtocolSite {
            at,
            attr,
            group: sub.group_of(attr),
            subsumed,
        };
        // root -> S: ENV seeded (saved and set), VAL copied up (subsumed).
        assert_eq!(
            sub.protocol(1, ProdId(0)),
            [
                site(SiteAt::AfterVisit(0), val, false),
                site(SiteAt::BeforeVisit(0), env, false),
                site(SiteAt::End, root_val, true),
            ]
        );
        // S -> S x: both copies subsumed; x has no static attribute.
        assert_eq!(
            sub.protocol(1, ProdId(1)),
            [
                site(SiteAt::AfterVisit(0), val, false),
                site(SiteAt::BeforeVisit(0), env, true),
                site(SiteAt::End, val, true),
            ]
        );
        // S -> x: VAL computed, not copied.
        assert_eq!(sub.protocol(1, ProdId(2)), [site(SiteAt::End, val, false)]);
        assert!(sub.protocol(0, ProdId(0)).is_empty());
        assert!(sub.protocol(2, ProdId(0)).is_empty());
        let without_passes = Subsumption::compute(&g, GroupMode::SameName, costs, None);
        assert!(without_passes.protocol(1, ProdId(0)).is_empty());
        assert!(Subsumption::disabled(&g).protocol(1, ProdId(0)).is_empty());
    }

    #[test]
    fn attribute_without_subsumable_copies_drops_out() {
        // VAL on root: defined only by a copy *from S.VAL* — both named
        // VAL, so that stays; but an attribute defined only by non-copies
        // must not stay static.
        let mut b = AgBuilder::new();
        let s = b.nonterminal("S");
        let sv = b.synthesized(s, "VAL", "int");
        let p = b.production(s, vec![], None);
        b.rule(p, vec![AttrOcc::lhs(sv)], Expr::Int(1)); // non-copy only
        b.start(s);
        let g = b.build().unwrap();
        let sub = Subsumption::compute(&g, GroupMode::SameName, SubsumptionCosts::default(), None);
        assert!(!sub.is_static(sv));
        assert_eq!(sub.stats(&g).subsumed_rules, 0);
    }

    #[test]
    fn cascade_reexamination_drops_dependent_attributes() {
        // A.N copied from B.N; B.N defined only by expensive non-copies.
        // Once B.N drops out of the static set, A.N's only copy source is
        // non-static, so A.N must drop too (the paper's reexamination).
        let mut b = AgBuilder::new();
        let root = b.nonterminal("root");
        let rv = b.synthesized(root, "OUT", "int");
        let aa = b.nonterminal("A");
        let an = b.synthesized(aa, "N", "int");
        let bb = b.nonterminal("B");
        let bn = b.synthesized(bb, "N", "int");
        let p0 = b.production(root, vec![aa], None);
        b.rule(p0, vec![AttrOcc::lhs(rv)], Expr::Occ(AttrOcc::rhs(0, an)));
        let p1 = b.production(aa, vec![bb], None);
        b.rule(p1, vec![AttrOcc::lhs(an)], Expr::Occ(AttrOcc::rhs(0, bn))); // the one copy
        let p2 = b.production(bb, vec![], None);
        b.rule(p2, vec![AttrOcc::lhs(bn)], Expr::Int(5)); // non-copy
        let p3 = b.production(bb, vec![], None);
        b.rule(p3, vec![AttrOcc::lhs(bn)], Expr::Int(7)); // non-copy
        b.start(root);
        let g = b.build().unwrap();
        // Costs where one subsumed copy cannot pay for two save/restores.
        let costs = SubsumptionCosts {
            copy: 10,
            save_restore: 30,
        };
        let sub = Subsumption::compute(&g, GroupMode::SameName, costs, None);
        assert!(!sub.is_static(bn), "B.N: 0 subsumable vs 2 non-copy defs");
        assert!(
            !sub.is_static(an),
            "A.N loses its subsumable copy once B.N is not static"
        );
    }

    #[test]
    fn cheap_save_restore_keeps_more_static() {
        let g = copy_chain();
        let generous = SubsumptionCosts {
            copy: 100,
            save_restore: 1,
        };
        let stingy = SubsumptionCosts {
            copy: 1,
            save_restore: 1000,
        };
        let s_gen = Subsumption::compute(&g, GroupMode::SameName, generous, None).stats(&g);
        let s_sti = Subsumption::compute(&g, GroupMode::SameName, stingy, None).stats(&g);
        assert!(s_gen.static_attrs >= s_sti.static_attrs);
        assert!(s_gen.subsumed_rules >= s_sti.subsumed_rules);
    }

    #[test]
    fn coalesce_mode_subsumes_cross_name_copies() {
        // S.A = T.B is a cross-name copy: SameName cannot subsume it,
        // CoalesceCopies can. T.B itself earns its static status through a
        // same-name copy chain (T -> T x), as the paper's per-attribute
        // check requires.
        let mut b = AgBuilder::new();
        let root = b.nonterminal("root");
        let rv = b.synthesized(root, "OUT", "int");
        let s = b.nonterminal("S");
        let sa = b.synthesized(s, "A", "int");
        let t = b.nonterminal("T");
        let tb = b.synthesized(t, "B", "int");
        let x = b.terminal("x");
        let p0 = b.production(root, vec![s], None);
        b.rule(p0, vec![AttrOcc::lhs(rv)], Expr::Occ(AttrOcc::rhs(0, sa)));
        let p1 = b.production(s, vec![t], None);
        b.rule(p1, vec![AttrOcc::lhs(sa)], Expr::Occ(AttrOcc::rhs(0, tb))); // cross-name copy
        let p2 = b.production(t, vec![t, x], None);
        b.rule(p2, vec![AttrOcc::lhs(tb)], Expr::Occ(AttrOcc::rhs(0, tb))); // same-name copy
        let p3 = b.production(t, vec![x], None);
        b.rule(p3, vec![AttrOcc::lhs(tb)], Expr::Int(3)); // the seed
        b.start(root);
        let g = b.build().unwrap();
        let costs = SubsumptionCosts {
            copy: 50,
            save_restore: 10,
        };
        let same = Subsumption::compute(&g, GroupMode::SameName, costs, None);
        let coal = Subsumption::compute(&g, GroupMode::CoalesceCopies, costs, None);
        // SameName: only the T.B = T.B chain copy subsumes.
        assert_eq!(same.stats(&g).subsumed_rules, 1);
        // Coalesced: the cross-name copies join in.
        assert!(coal.stats(&g).subsumed_rules > same.stats(&g).subsumed_rules);
        assert_eq!(coal.group_of(sa), coal.group_of(tb));
    }

    #[test]
    fn coalesce_respects_same_symbol_restriction() {
        // S.A = S1.B would coalesce A and B, but both live on S: must be
        // refused ("two different attributes of the same symbol can not be
        // allocated to the same global variable").
        let mut b = AgBuilder::new();
        let root = b.nonterminal("root");
        let rv = b.synthesized(root, "OUT", "int");
        let s = b.nonterminal("S");
        let sa = b.synthesized(s, "A", "int");
        let sb = b.synthesized(s, "B", "int");
        let x = b.terminal("x");
        let p0 = b.production(root, vec![s], None);
        b.rule(p0, vec![AttrOcc::lhs(rv)], Expr::Occ(AttrOcc::rhs(0, sa)));
        let p1 = b.production(s, vec![s], None);
        b.rule(p1, vec![AttrOcc::lhs(sa)], Expr::Occ(AttrOcc::rhs(0, sb))); // cross-name, same symbol
        b.rule(p1, vec![AttrOcc::lhs(sb)], Expr::Int(0));
        let p2 = b.production(s, vec![x], None);
        b.rule(p2, vec![AttrOcc::lhs(sa)], Expr::Int(1));
        b.rule(p2, vec![AttrOcc::lhs(sb)], Expr::Int(2));
        b.start(root);
        let g = b.build().unwrap();
        let coal = Subsumption::compute(
            &g,
            GroupMode::CoalesceCopies,
            SubsumptionCosts::default(),
            None,
        );
        assert_ne!(coal.group_of(sa), coal.group_of(sb));
    }

    #[test]
    fn group_names_are_attribute_names() {
        let g = copy_chain();
        let sub = Subsumption::compute(&g, GroupMode::SameName, SubsumptionCosts::default(), None);
        let s = g.symbol_by_name("S").unwrap();
        let se = g.attr_by_name(s, "ENV").unwrap();
        assert_eq!(sub.group_name(sub.group_of(se)), "ENV");
        assert!(sub.num_groups() >= 3); // ENV, VAL, OBJ at least
    }
}
