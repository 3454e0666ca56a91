//! Seeded violation for `policy-dispatch-coverage`: a PolicyKind variant
//! nothing dispatches.  This file is a lint fixture, never compiled.

pub enum PolicyKind {
    Lru,
    LruK { k: u8 },
    Orphan,
}

pub fn build(kind: PolicyKind) -> BoxedCache {
    match kind {
        PolicyKind::Lru => lru(),
        PolicyKind::LruK { k } => lru_k(k),
        _ => unreachable!("Orphan has no construction path"),
    }
}
