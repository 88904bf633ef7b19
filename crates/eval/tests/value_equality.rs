//! `Value` equality against a reference written from the definitions:
//! lists compare element by element, sets by membership both ways, maps
//! by their effective (unshadowed) bindings. The values under test share
//! structure, are copied through the binary encoding so nothing is
//! shared, are built in different orders, and shadow map bindings, so
//! every path of the identity-first comparison is exercised.

use linguist_eval::value::Value;
use linguist_support::intern::Name;
use linguist_support::pfunc::PartialFn;
use proptest::prelude::*;

/// Equality as the definitions state it, with no shortcut.
fn reference_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Sym(x), Value::Sym(y)) => x.index() == y.index(),
        (Value::Str(x), Value::Str(y)) => x.as_str() == y.as_str(),
        (Value::List(x), Value::List(y)) => {
            let (x, y) = (x.to_vec(), y.to_vec());
            x.len() == y.len() && x.iter().zip(&y).all(|(p, q)| reference_eq(p, q))
        }
        (Value::Set(x), Value::Set(y)) => {
            let within =
                |s: &[Value], t: &[Value]| s.iter().all(|v| t.iter().any(|w| reference_eq(v, w)));
            let (x, y): (Vec<Value>, Vec<Value>) =
                (x.iter().cloned().collect(), y.iter().cloned().collect());
            within(&x, &y) && within(&y, &x)
        }
        (Value::Map(x), Value::Map(y)) => {
            let (x, y) = (bindings(x), bindings(y));
            x.len() == y.len()
                && x.iter().all(|(k, v)| {
                    y.iter()
                        .any(|(k2, v2)| reference_eq(k, k2) && reference_eq(v, v2))
                })
        }
        _ => false,
    }
}

/// The effective bindings of `m`: the newest pair for each key.
fn bindings(m: &PartialFn<Value, Value>) -> Vec<(Value, Value)> {
    let mut out: Vec<(Value, Value)> = Vec::new();
    for (k, v) in m.iter() {
        if !out.iter().any(|(seen, _)| reference_eq(seen, k)) {
            out.push((k.clone(), v.clone()));
        }
    }
    out
}

/// A copy that shares nothing with `v`.
fn copy(v: &Value) -> Value {
    let mut buf = Vec::new();
    v.encode(&mut buf);
    let mut pos = 0;
    let out = Value::decode(&buf, &mut pos).unwrap();
    assert_eq!(pos, buf.len());
    out
}

/// Small domains, so that separately generated values are often equal.
fn arb_leaf() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0i64..3).prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        "[ab]{0,1}".prop_map(|s| Value::str(&s)),
        (0usize..2).prop_map(|i| Value::Sym(Name::from_index(i))),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    arb_leaf().prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4)
                .prop_map(|v| Value::List(v.into_iter().collect())),
            prop::collection::vec(inner.clone(), 0..4)
                .prop_map(|v| Value::Set(v.into_iter().collect())),
            prop::collection::vec((arb_leaf(), inner), 0..5)
                .prop_map(|pairs| Value::Map(pairs.into_iter().collect())),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Independently drawn values: `==` agrees with the reference, both
    /// ways round and for copies that share nothing.
    #[test]
    fn equality_agrees_with_the_reference(a in arb_value(), b in arb_value()) {
        let want = reference_eq(&a, &b);
        prop_assert_eq!(a == b, want, "{} vs {}", a, b);
        prop_assert_eq!(b == a, want, "{} vs {}", b, a);
        prop_assert_eq!(copy(&a) == b, want, "copy of {} vs {}", a, b);
        prop_assert_eq!(a == copy(&b), want, "{} vs copy of {}", a, b);
    }

    /// A value equals itself, its aliases and its copies, also inside a
    /// collection that mixes shared and copied members.
    #[test]
    fn copies_and_aliases_are_equal(a in arb_value(), b in arb_value()) {
        let ca = copy(&a);
        prop_assert!(a == a.clone());
        prop_assert_eq!(&a, &ca);
        prop_assert_eq!(&ca, &a);
        let shared = Value::List([a.clone(), b.clone()].into_iter().collect());
        let mixed = Value::List([ca, b].into_iter().collect());
        prop_assert!(shared == mixed && reference_eq(&shared, &mixed));
        let copied = copy(&shared);
        prop_assert!(shared == copied && mixed == copied);
    }

    /// A set is the same set whatever order its members arrived in.
    #[test]
    fn sets_ignore_insertion_order(items in prop::collection::vec(arb_value(), 0..6), turn in 0usize..6) {
        let forward = Value::Set(items.iter().cloned().collect());
        let mut rotated = items.clone();
        rotated.reverse();
        let r = turn % rotated.len().max(1);
        rotated.rotate_left(r);
        let other = Value::Set(rotated.iter().map(copy).collect());
        prop_assert_eq!(&forward, &other);
        prop_assert_eq!(&other, &forward);
        prop_assert!(reference_eq(&forward, &other));
        // One member fewer: equal exactly when the member was a duplicate.
        if let Some((_, rest)) = rotated.split_first() {
            let fewer = Value::Set(rest.iter().cloned().collect());
            prop_assert_eq!(forward == fewer, reference_eq(&forward, &fewer), "{} vs {}", forward, fewer);
        }
    }

    /// Shadowed bindings do not count: a map equals the map of its
    /// effective bindings, bound in any order.
    #[test]
    fn maps_compare_effective_bindings(
        pairs in prop::collection::vec((arb_leaf(), arb_value()), 0..8),
        key in arb_leaf(),
        value in arb_value(),
    ) {
        let m: PartialFn<Value, Value> = pairs.into_iter().collect();
        let effective = bindings(&m);
        let plain: PartialFn<Value, Value> = effective.iter().rev().map(|(k, v)| (copy(k), copy(v))).collect();
        let (m, plain) = (Value::Map(m), Value::Map(plain));
        prop_assert_eq!(&m, &plain);
        prop_assert_eq!(&plain, &m);
        prop_assert!(reference_eq(&m, &plain));
        // Rebinding one key shadows its old binding on one side only.
        let Value::Map(inner) = &m else { unreachable!() };
        let rebound = Value::Map(inner.bind(key, value));
        prop_assert_eq!(m == rebound, reference_eq(&m, &rebound), "{} vs {}", m, rebound);
        prop_assert_eq!(rebound == plain, reference_eq(&rebound, &plain), "{} vs {}", rebound, plain);
    }
}
