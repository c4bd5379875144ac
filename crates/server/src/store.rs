//! The design store: a name map of per-design `RwLock`s.
//!
//! Each registered design lives behind its own `RwLock` so concurrent
//! read-only queries (path analysis, worst-paths) proceed in parallel
//! while an `eco_resize` takes the write side of just that design. The
//! name map itself is written only by `register_design`, so queries share
//! its read side.

use nsigma_core::{NsigmaTimer, TimingSession};
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

/// One registered design's timing session, sharing the server's timer
/// through an [`Arc`].
pub type DesignSlot = RwLock<TimingSession<Arc<NsigmaTimer>>>;

/// Registered designs by name.
#[derive(Default)]
pub struct DesignStore {
    designs: RwLock<HashMap<String, Arc<DesignSlot>>>,
}

impl DesignStore {
    /// Registers a design. Returns `false` (and leaves the store unchanged)
    /// if the name is already taken.
    pub fn insert(&self, name: &str, slot: TimingSession<Arc<NsigmaTimer>>) -> bool {
        let mut map = self.designs.write().unwrap_or_else(PoisonError::into_inner);
        if map.contains_key(name) {
            return false;
        }
        map.insert(name.to_string(), Arc::new(RwLock::new(slot)));
        true
    }

    /// Looks up a design by name.
    pub fn get(&self, name: &str) -> Option<Arc<DesignSlot>> {
        self.designs
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
    }

    /// Number of registered designs.
    pub fn len(&self) -> usize {
        self.designs
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsigma_cells::cell::{Cell, CellKind};
    use nsigma_cells::CellLibrary;
    use nsigma_core::sta::TimerConfig;
    use nsigma_core::MergeRule;
    use nsigma_mc::design::Design;
    use nsigma_netlist::generators::arith::ripple_adder;
    use nsigma_netlist::mapping::map_to_cells;
    use nsigma_process::Technology;

    fn tiny() -> (Arc<NsigmaTimer>, Design) {
        let tech = Technology::synthetic_28nm();
        let mut lib = CellLibrary::new();
        for kind in [
            CellKind::Inv,
            CellKind::Buf,
            CellKind::Nand2,
            CellKind::Xor2,
        ] {
            for s in [1, 2, 4, 8] {
                lib.add(Cell::new(kind, s));
            }
        }
        let netlist = map_to_cells(&ripple_adder(2), &lib).unwrap();
        let design = Design::with_generated_parasitics(tech.clone(), lib.clone(), netlist, 3);
        let mut cfg = TimerConfig::standard(3);
        cfg.char_samples = 300;
        cfg.wire.nets = 1;
        cfg.wire.samples = 200;
        (
            Arc::new(NsigmaTimer::build(&tech, &lib, &cfg).unwrap()),
            design,
        )
    }

    #[test]
    fn insert_get_and_duplicate_rejection() {
        let (timer, design) = tiny();
        let store = DesignStore::default();
        assert!(store.is_empty());
        let s =
            TimingSession::new(Arc::clone(&timer), design.clone(), MergeRule::Pessimistic).unwrap();
        assert!(store.insert("a", s));
        let s2 = TimingSession::new(timer, design, MergeRule::Pessimistic).unwrap();
        assert!(!store.insert("a", s2), "duplicate name must be rejected");
        assert_eq!(store.len(), 1);
        assert!(store.get("a").is_some());
        assert!(store.get("b").is_none());
    }

    #[test]
    fn shared_timer_survives_many_designs() {
        let (timer, design) = tiny();
        let store = DesignStore::default();
        for i in 0..8 {
            let s = TimingSession::new(Arc::clone(&timer), design.clone(), MergeRule::Pessimistic)
                .unwrap();
            assert!(store.insert(&format!("d{i}"), s));
        }
        assert_eq!(store.len(), 8);
        // Every slot borrows the same timer instance.
        let a = store.get("d0").unwrap();
        let b = store.get("d7").unwrap();
        let pa = a.read().unwrap().timer() as *const NsigmaTimer;
        let pb = b.read().unwrap().timer() as *const NsigmaTimer;
        assert_eq!(pa, pb);
    }
}
