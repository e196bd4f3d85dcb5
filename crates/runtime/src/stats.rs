use dmx_topology::NodeId;

/// Counters one node accumulates over its lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// `REQUEST` messages sent by this node.
    pub requests_sent: u64,
    /// `PRIVILEGE` messages sent by this node.
    pub privileges_sent: u64,
    /// Critical-section entries performed by this node's local user.
    pub entries: u64,
    /// Acquisitions whose user gave up waiting (a
    /// [`timeout`](crate::LockRequest::timeout) or
    /// [`deadline`](crate::LockRequest::deadline) expired): the
    /// privilege arrived (or was already held) with nobody waiting and
    /// was released immediately.
    pub abandoned: u64,
}

impl NodeStats {
    /// All protocol messages this node sent.
    ///
    /// # Examples
    ///
    /// ```
    /// use dmx_runtime::NodeStats;
    /// let s = NodeStats { requests_sent: 2, privileges_sent: 1, entries: 1, abandoned: 0 };
    /// assert_eq!(s.messages_sent(), 3);
    /// ```
    pub fn messages_sent(&self) -> u64 {
        self.requests_sent + self.privileges_sent
    }
}

/// Whole-cluster counters returned by [`Cluster::shutdown`](crate::Cluster::shutdown).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Per-node counters, indexed by node.
    pub per_node: Vec<NodeStats>,
    /// Total protocol messages exchanged.
    pub messages_total: u64,
    /// Total critical-section entries.
    pub entries: u64,
}

impl ClusterStats {
    pub(crate) fn from_nodes(per_node: Vec<NodeStats>) -> Self {
        let messages_total = per_node.iter().map(NodeStats::messages_sent).sum();
        let entries = per_node.iter().map(|s| s.entries).sum();
        ClusterStats {
            per_node,
            messages_total,
            entries,
        }
    }

    /// Counters for one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    ///
    /// # Examples
    ///
    /// ```
    /// use dmx_runtime::{ClusterStats, NodeStats};
    /// use dmx_topology::NodeId;
    /// let stats = ClusterStats::default();
    /// assert!(stats.per_node.is_empty());
    /// ```
    pub fn node(&self, node: NodeId) -> &NodeStats {
        &self.per_node[node.index()]
    }

    /// Mean messages per critical-section entry across the run.
    ///
    /// # Examples
    ///
    /// ```
    /// # use dmx_runtime::ClusterStats;
    /// assert_eq!(ClusterStats::default().messages_per_entry(), 0.0);
    /// ```
    pub fn messages_per_entry(&self) -> f64 {
        if self.entries == 0 {
            0.0
        } else {
            self.messages_total as f64 / self.entries as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation() {
        let stats = ClusterStats::from_nodes(vec![
            NodeStats {
                requests_sent: 2,
                privileges_sent: 1,
                entries: 1,
                abandoned: 0,
            },
            NodeStats {
                requests_sent: 0,
                privileges_sent: 1,
                entries: 2,
                abandoned: 0,
            },
        ]);
        assert_eq!(stats.messages_total, 4);
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.node(NodeId(1)).privileges_sent, 1);
        assert!((stats.messages_per_entry() - 4.0 / 3.0).abs() < 1e-12);
    }
}
