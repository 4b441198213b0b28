//! Configuration of a parallel reasoning run.

use crate::comm::CommMode;
use crate::fault::FaultPlan;
use owlpar_datalog::backward::TableScope;
use owlpar_datalog::{MaterializationStrategy, Rule};
use owlpar_partition::multilevel::PartitionOptions;
use std::sync::Arc;
use std::time::Duration;

/// Which of the paper's two partitioning approaches to use, and with
/// which policy.
#[derive(Debug, Clone)]
pub enum PartitioningStrategy {
    /// Algorithm 1 — split the instance triples; every worker runs the
    /// complete rule-base.
    Data(DataPolicy),
    /// Algorithm 2 — split the rule-base; every worker holds the complete
    /// data.
    Rule {
        /// Weigh dependency edges with the dataset's predicate histogram.
        weighted: bool,
    },
    /// Hybrid (the paper's stated future work, after Shao/Bell/Hull):
    /// rules split into `rule_groups` groups, data split into
    /// `k / rule_groups` shards; requires `rule_groups` to divide `k`.
    Hybrid {
        /// Number of rule groups (`g`); data shards = `k / g`.
        rule_groups: usize,
    },
    /// Let the static plan analyzer pick: score the candidate strategies
    /// (`owlpar_core::plan::auto_candidates`) with the OWL011–OWL016
    /// cost model and run the argmin-cost deny-free plan. Refuses with
    /// [`RunError::Plan`](crate::error::RunError::Plan) — before any
    /// worker spawns — when every candidate has deny-level plan
    /// diagnostics; that refusal is not overridable.
    Auto,
}

/// Ownership policy for the data-partitioning approach (mirrors
/// `owlpar_partition::OwnershipPolicy`, minus the non-`Send` key closure).
#[derive(Debug, Clone)]
pub enum DataPolicy {
    /// Multilevel min-cut graph partitioning (METIS role).
    Graph(PartitionOptions),
    /// Streaming hash ownership.
    Hash {
        /// Hash seed.
        seed: u64,
    },
    /// Domain-specific (IRI-authority) grouping.
    Domain,
    /// Linear Deterministic Greedy streaming partitioning.
    Streaming,
}

impl PartitioningStrategy {
    /// Data partitioning with the graph policy and default options.
    pub fn data_graph() -> Self {
        PartitioningStrategy::Data(DataPolicy::Graph(PartitionOptions::default()))
    }

    /// Data partitioning with hash ownership.
    pub fn data_hash() -> Self {
        PartitioningStrategy::Data(DataPolicy::Hash { seed: 0xa5a5 })
    }

    /// Data partitioning with the domain-specific policy.
    pub fn data_domain() -> Self {
        PartitioningStrategy::Data(DataPolicy::Domain)
    }

    /// Data partitioning with LDG streaming ownership.
    pub fn data_streaming() -> Self {
        PartitioningStrategy::Data(DataPolicy::Streaming)
    }

    /// Unweighted rule partitioning.
    pub fn rule() -> Self {
        PartitioningStrategy::Rule { weighted: false }
    }

    /// Analyzer-selected strategy.
    pub fn auto() -> Self {
        PartitioningStrategy::Auto
    }

    /// The strategy a CLI `--strategy` name selects for `k` workers:
    /// `graph`, `hash`, `domain` (data policies), `rule`, `hybrid` (two
    /// rule groups when `k` is even, else one) or `auto`.
    pub fn from_name(name: &str, k: usize) -> Result<Self, String> {
        Ok(match name {
            "graph" => Self::data_graph(),
            "hash" => Self::data_hash(),
            "domain" => Self::data_domain(),
            "rule" => Self::rule(),
            "hybrid" => PartitioningStrategy::Hybrid {
                rule_groups: if k.is_multiple_of(2) { 2 } else { 1 },
            },
            "auto" => Self::auto(),
            other => return Err(format!("unknown strategy '{other}'")),
        })
    }

    /// Short family label (`data` / `rule` / `hybrid` / `auto`) — the
    /// name the CLIs and plan reports use.
    pub fn label(&self) -> &'static str {
        match self {
            PartitioningStrategy::Data(_) => "data",
            PartitioningStrategy::Rule { .. } => "rule",
            PartitioningStrategy::Hybrid { .. } => "hybrid",
            PartitioningStrategy::Auto => "auto",
        }
    }
}

/// Round synchronization discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoundMode {
    /// Barrier-synchronized rounds — the paper's implementation.
    #[default]
    Barrier,
    /// Asynchronous: a worker "not wait\[s\] till all other partitions
    /// finish, but rather start\[s\] immediately using all the currently
    /// received tuples" (§VI-B). Channel transport only.
    Async,
}

/// What the master does when the pre-spawn lint gate finds a rule that is
/// not safe under the configured partitioning (a deny finding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnsafeRulePolicy {
    /// Refuse the run with [`RunError::Lint`](crate::error::RunError::Lint)
    /// before any worker spawns.
    #[default]
    Refuse,
    /// Fall back to full data replication (rule partitioning): every
    /// worker holds the complete data, so any join shape is evaluable.
    /// Structural denials (broken rules) still refuse — replication cannot
    /// fix a rule that is wrong everywhere.
    ReplicateData,
}

/// What the master does when a worker is lost mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultRecovery {
    /// Report the loss as a `RunError::Workers` and produce no closure.
    Fail,
    /// Data partitioning only: survivors drain cleanly, the master adopts
    /// the dead worker's base partition and re-closes serially — the
    /// recovered closure equals the serial closure (forward closure is
    /// monotonic). Other strategies fall back to failing.
    #[default]
    AdoptAndReclose,
}

/// Full configuration of a run.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Number of partitions / workers.
    pub k: usize,
    /// Partitioning approach.
    pub strategy: PartitioningStrategy,
    /// Closure engine each worker wraps (paper: Jena's hybrid engine;
    /// default here: the backward per-resource emulation of it).
    pub materialization: MaterializationStrategy,
    /// Inter-partition transport.
    pub comm: CommMode,
    /// Barrier rounds (paper) or the async §VI-B variant.
    pub rounds: RoundMode,
    /// Injected faults for robustness testing (`None` = run clean).
    pub fault: Option<Arc<FaultPlan>>,
    /// Patience at the round barrier and for a round's collect; a worker
    /// waiting longer reports a structured timeout instead of hanging.
    pub round_timeout: Duration,
    /// Reaction to losing a worker.
    pub recovery: FaultRecovery,
    /// User-supplied rules evaluated alongside the compiled ontology
    /// rules. They pass through the same pre-spawn lint gate — this is
    /// how a rule-base that is *not* provably partition-safe reaches the
    /// master, since the compiler only emits single-join rules.
    pub extra_rules: Vec<Rule>,
    /// Reaction to a deny-level lint finding at startup.
    pub unsafe_rules: UnsafeRulePolicy,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            k: 2,
            strategy: PartitioningStrategy::data_graph(),
            materialization: MaterializationStrategy::BackwardJena(TableScope::PerQuery),
            comm: CommMode::Channel,
            rounds: RoundMode::Barrier,
            fault: None,
            round_timeout: Duration::from_secs(30),
            recovery: FaultRecovery::default(),
            extra_rules: Vec::new(),
            unsafe_rules: UnsafeRulePolicy::default(),
        }
    }
}

impl ParallelConfig {
    /// Convenience: same config with a different k.
    pub fn with_k(&self, k: usize) -> Self {
        ParallelConfig {
            k,
            ..self.clone()
        }
    }

    /// Convenience: fast forward-chaining materialization (used by tests
    /// and the correctness suite; the speedup experiments use the
    /// default backward engine).
    pub fn forward(mut self) -> Self {
        self.materialization = MaterializationStrategy::ForwardSemiNaive;
        self
    }

    /// Convenience: in-node parallel forward closure in every worker.
    /// `threads == 0` lets the master split the machine's parallelism
    /// evenly across the `k` workers at spawn time.
    pub fn forward_parallel(mut self, threads: usize) -> Self {
        self.materialization = MaterializationStrategy::ForwardParallel { threads };
        self
    }

    /// Convenience: attach a fault-injection plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(Arc::new(plan));
        self
    }

    /// Convenience: set the round/collect patience.
    pub fn with_round_timeout(mut self, timeout: Duration) -> Self {
        self.round_timeout = timeout;
        self
    }

    /// Convenience: set the reaction to worker loss.
    pub fn with_recovery(mut self, recovery: FaultRecovery) -> Self {
        self.recovery = recovery;
        self
    }

    /// Convenience: evaluate `rules` alongside the compiled ontology
    /// rules (they must be interned against the run's dictionary).
    pub fn with_extra_rules(mut self, rules: Vec<Rule>) -> Self {
        self.extra_rules = rules;
        self
    }

    /// Convenience: set the reaction to a deny-level lint finding.
    pub fn with_unsafe_rules(mut self, policy: UnsafeRulePolicy) -> Self {
        self.unsafe_rules = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ParallelConfig::default();
        assert_eq!(c.k, 2);
        assert!(matches!(c.strategy, PartitioningStrategy::Data(DataPolicy::Graph(_))));
        assert!(matches!(
            c.materialization,
            MaterializationStrategy::BackwardJena(_)
        ));
    }

    #[test]
    fn with_k_overrides_only_k() {
        let c = ParallelConfig::default().with_k(8);
        assert_eq!(c.k, 8);
        assert!(matches!(c.comm, CommMode::Channel));
    }

    #[test]
    fn forward_switches_materialization() {
        let c = ParallelConfig::default().forward();
        assert_eq!(c.materialization, MaterializationStrategy::ForwardSemiNaive);
    }

    #[test]
    fn strategy_names_parse_for_every_cli() {
        for (name, label) in [
            ("graph", "data"),
            ("hash", "data"),
            ("domain", "data"),
            ("rule", "rule"),
            ("hybrid", "hybrid"),
            ("auto", "auto"),
        ] {
            let s = PartitioningStrategy::from_name(name, 4);
            assert_eq!(s.map(|s| s.label()), Ok(label), "{name}");
        }
        for (k, groups) in [(4, 2), (3, 1)] {
            assert!(matches!(
                PartitioningStrategy::from_name("hybrid", k),
                Ok(PartitioningStrategy::Hybrid { rule_groups }) if rule_groups == groups
            ));
        }
        let bogus = PartitioningStrategy::from_name("bogus", 2).map(|s| s.label());
        assert_eq!(bogus, Err("unknown strategy 'bogus'".to_string()));
    }
}
