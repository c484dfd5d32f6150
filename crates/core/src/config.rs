//! Enumeration configuration.

/// Configuration shared by all enumeration algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumConfig {
    /// Pattern-size limit `n`: the maximum number of pattern nodes,
    /// including the two targets. The paper's experiments use 5.
    pub max_pattern_nodes: usize,
    /// Optional cap on the number of instances *stored* per explanation.
    /// `None` stores all instances (exact counts); benchmarks set a cap to
    /// bound memory on hub-heavy pairs, and runs report saturation.
    pub instance_cap: Option<usize>,
}

impl EnumConfig {
    /// The paper's configuration: pattern size ≤ 5, exact instances.
    pub fn paper() -> Self {
        EnumConfig { max_pattern_nodes: 5, instance_cap: None }
    }

    /// Configuration with a different size limit.
    pub fn with_max_nodes(mut self, n: usize) -> Self {
        self.max_pattern_nodes = n;
        self
    }

    /// Configuration with an instance cap.
    pub fn with_instance_cap(mut self, cap: usize) -> Self {
        self.instance_cap = Some(cap);
        self
    }

    /// The derived simple-path length limit `l = n - 1` (§3.1).
    pub fn path_len_limit(&self) -> usize {
        self.max_pattern_nodes.saturating_sub(1)
    }
}

impl Default for EnumConfig {
    fn default() -> Self {
        EnumConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = EnumConfig::default();
        assert_eq!(c.max_pattern_nodes, 5);
        assert_eq!(c.path_len_limit(), 4);
        assert_eq!(c.instance_cap, None);
    }

    #[test]
    fn builders() {
        let c = EnumConfig::paper().with_max_nodes(3).with_instance_cap(10);
        assert_eq!(c.max_pattern_nodes, 3);
        assert_eq!(c.path_len_limit(), 2);
        assert_eq!(c.instance_cap, Some(10));
    }
}
