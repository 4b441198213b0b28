//! Dictionary-encoded triples.

use crate::dictionary::NodeId;
use serde::{Deserialize, Serialize};

/// A dictionary-encoded RDF triple: subject, predicate, object ids.
///
/// 12 bytes, `Copy`, hashable — the unit of work everywhere in the system.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct Triple {
    /// Subject id.
    pub s: NodeId,
    /// Predicate id.
    pub p: NodeId,
    /// Object id.
    pub o: NodeId,
}

impl Triple {
    /// Construct from the three ids.
    #[inline]
    pub fn new(s: NodeId, p: NodeId, o: NodeId) -> Self {
        Triple { s, p, o }
    }

    /// The triple's components as an array `[s, p, o]`.
    #[inline]
    pub fn as_array(&self) -> [NodeId; 3] {
        [self.s, self.p, self.o]
    }
}

impl From<(NodeId, NodeId, NodeId)> for Triple {
    fn from((s, p, o): (NodeId, NodeId, NodeId)) -> Self {
        Triple { s, p, o }
    }
}

impl std::fmt::Display for Triple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({} {} {})", self.s, self.p, self.o)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(NodeId(s), NodeId(p), NodeId(o))
    }

    #[test]
    fn size_is_12_bytes() {
        assert_eq!(std::mem::size_of::<Triple>(), 12);
    }

    #[test]
    fn tuple_conversion_and_array() {
        let tr: Triple = (NodeId(1), NodeId(2), NodeId(3)).into();
        assert_eq!(tr.as_array(), [NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn ordering_is_spo_lexicographic() {
        assert!(t(0, 9, 9) < t(1, 0, 0));
        assert!(t(1, 0, 9) < t(1, 1, 0));
        assert!(t(1, 1, 0) < t(1, 1, 1));
    }
}
