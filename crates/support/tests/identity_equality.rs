//! Equality of the persistent collections settles on shared structure:
//! two handles to one spine compare without comparing a single element,
//! lists that match element for element are walked once, and only then
//! do sets and partial functions fall back to comparing contents.

use linguist_support::list::List;
use linguist_support::pfunc::PartialFn;
use linguist_support::set::LSet;
use std::cell::Cell;

thread_local! {
    static COMPARISONS: Cell<usize> = const { Cell::new(0) };
}

/// An element that counts how often it is compared.
#[derive(Clone, Debug)]
struct Counted(u32);

impl PartialEq for Counted {
    fn eq(&self, other: &Counted) -> bool {
        COMPARISONS.with(|c| c.set(c.get() + 1));
        self.0 == other.0
    }
}

impl Eq for Counted {}

/// The result of `eq` and the element comparisons it made.
fn counted(eq: impl FnOnce() -> bool) -> (bool, usize) {
    COMPARISONS.with(|c| c.set(0));
    let result = eq();
    (result, COMPARISONS.with(Cell::get))
}

const N: u32 = 10_000;

#[test]
fn handles_to_one_list_compare_without_element_comparisons() {
    let xs: List<Counted> = (0..N).map(Counted).collect();
    let alias = xs.clone();
    assert_eq!(counted(|| xs == alias), (true, 0));

    // A copy with a spine of its own is walked once, element by element.
    let copy: List<Counted> = xs.iter().cloned().collect();
    assert_eq!(counted(|| xs == copy), (true, N as usize));

    // Lists that differ only in their heads stop at the shared tail.
    let (a, b) = (xs.cons(Counted(7)), xs.cons(Counted(7)));
    assert_eq!(counted(|| a == b), (true, 1));
    let c = xs.cons(Counted(8));
    assert_eq!(counted(|| a == c), (false, 1));
}

#[test]
fn handles_to_one_set_compare_without_element_comparisons() {
    let s: LSet<Counted> = (0..N).map(Counted).collect();
    let alias = s.clone();
    assert_eq!(counted(|| s == alias), (true, 0));
    // Re-adding a member keeps the spine, so the result is still free.
    let again = s.with(Counted(17));
    assert_eq!(counted(|| s == again), (true, 0));
}

#[test]
fn handles_to_one_partial_function_compare_without_element_comparisons() {
    let f: PartialFn<Counted, Counted> = (0..N).map(|i| (Counted(i), Counted(i + 1))).collect();
    let alias = f.clone();
    assert_eq!(counted(|| f == alias), (true, 0));
}

#[test]
fn sets_in_different_orders_fall_back_to_membership() {
    let a: LSet<Counted> = (0..50).map(Counted).collect();
    let b: LSet<Counted> = (0..50).rev().map(Counted).collect();
    assert_eq!(a, b);
    let c: LSet<Counted> = (0..49).map(Counted).collect();
    assert_ne!(a, c);
    assert_ne!(c, a);
    let d: LSet<Counted> = (1..51).map(Counted).collect();
    assert_ne!(a, d);
}

#[test]
fn partial_functions_compare_effective_bindings() {
    let shadowed = PartialFn::empty()
        .bind(Counted(1), Counted(10))
        .bind(Counted(2), Counted(20))
        .bind(Counted(1), Counted(11));
    let plain = PartialFn::empty()
        .bind(Counted(2), Counted(20))
        .bind(Counted(1), Counted(11));
    assert_eq!(shadowed, plain);
    assert_eq!(plain, shadowed);
    let other = plain.bind(Counted(2), Counted(21));
    assert_ne!(shadowed, other);
    assert_ne!(PartialFn::empty(), plain);
}
