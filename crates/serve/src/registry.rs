//! Named graphs the service can answer queries about.
//!
//! The registry holds host-side CSRs; *device* residency is per-worker and
//! managed by [`crate::pool::DeviceWorker`] (a graph may be resident on
//! several devices at once, or none). A `BTreeMap` keeps iteration order —
//! and therefore every downstream decision — deterministic. Partitions for
//! device-group serving are cached by the [`crate::sched::Service`] that
//! uses them.

use eta_graph::Csr;
use std::collections::BTreeMap;

/// Host-side catalog of named graphs.
#[derive(Debug, Default)]
pub struct GraphRegistry {
    graphs: BTreeMap<String, Csr>,
}

impl GraphRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a graph under `name`.
    pub fn insert(&mut self, name: &str, csr: Csr) {
        self.graphs.insert(name.to_string(), csr);
    }

    pub fn get(&self, name: &str) -> Option<&Csr> {
        self.graphs.get(name)
    }

    /// Registered names, in sorted order.
    pub fn names(&self) -> Vec<&str> {
        self.graphs.keys().map(|s| s.as_str()).collect()
    }

    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eta_graph::generate::{rmat, RmatConfig};

    #[test]
    fn insert_get_and_sorted_names() {
        let mut reg = GraphRegistry::new();
        assert!(reg.is_empty());
        reg.insert("zeta", rmat(&RmatConfig::paper(8, 1_000, 1)));
        reg.insert("alpha", rmat(&RmatConfig::paper(8, 1_000, 2)));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.names(), vec!["alpha", "zeta"]);
        assert!(reg.get("alpha").is_some());
        assert!(reg.get("missing").is_none());
    }
}
