//! Dataflow-graph extraction from parsed ConDRust functions.
//!
//! Each operator call becomes a node; SSA-style def-use edges become
//! typed channels. The graph is what the deterministic executor runs and
//! what lowers to the `dfg` dialect of `everest-ir`.

use std::collections::HashMap;
use std::fmt;

use crate::lang::{Function, LoopStmt};

/// Node index in a [`DataflowGraph`].
pub(crate) type NodeId = usize;

/// The kind of a dataflow node.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// Emits the items of the input collection in order.
    Source,
    /// A pure operator call (replicable for data parallelism).
    Map {
        /// Registered operator name.
        callee: String,
    },
    /// A stateful operator call (state thread; never replicated).
    StatefulMap {
        /// State constructor name (registry key).
        ctor: String,
        /// Method name (kept for diagnostics).
        method: String,
    },
    /// A conditional gate: forwards its last input when the predicate
    /// over the leading inputs holds.
    Filter {
        /// Predicate name.
        predicate: String,
    },
    /// Collects results into the output vector.
    Sink,
}

/// A node plus its input value sources.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Node id (position in [`DataflowGraph::nodes`]).
    pub id: NodeId,
    /// Operator kind.
    pub kind: NodeKind,
    /// Producing nodes of each input, in argument order.
    pub inputs: Vec<NodeId>,
    /// Human-readable label (defined variable).
    pub label: String,
}

/// A deterministic dataflow graph extracted from a ConDRust function.
#[derive(Debug, Clone, PartialEq)]
pub struct DataflowGraph {
    /// Function name.
    pub name: String,
    /// Nodes in topological order (construction order guarantees it).
    pub nodes: Vec<Node>,
}

/// Graph-construction error.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphError {
    /// Explanation.
    pub message: String,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dataflow extraction error: {}", self.message)
    }
}

impl std::error::Error for GraphError {}

impl DataflowGraph {
    /// Extracts the dataflow graph from a parsed function.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] for undefined variables, unused pushes, or
    /// multiple pushes (one logical output stream per function).
    pub fn from_function(f: &Function) -> Result<Self, GraphError> {
        let mut nodes: Vec<Node> = Vec::new();
        // variable name -> defining node
        let mut defs: HashMap<String, NodeId> = HashMap::new();
        let states: HashMap<String, String> = f.states.iter().cloned().collect();

        nodes.push(Node {
            id: 0,
            kind: NodeKind::Source,
            inputs: Vec::new(),
            label: f.loop_var.clone(),
        });
        defs.insert(f.loop_var.clone(), 0);

        let mut sink_feed: Option<NodeId> = None;
        for stmt in &f.body {
            match stmt {
                LoopStmt::Let { name, call } => {
                    let inputs = resolve_args(&defs, &call.args)?;
                    let id = nodes.len();
                    let kind = match &call.receiver {
                        Some(receiver) => {
                            let ctor = states.get(receiver).ok_or_else(|| GraphError {
                                message: format!("unknown state variable '{receiver}'"),
                            })?;
                            NodeKind::StatefulMap {
                                ctor: ctor.clone(),
                                method: call.callee.clone(),
                            }
                        }
                        None => NodeKind::Map {
                            callee: call.callee.clone(),
                        },
                    };
                    nodes.push(Node {
                        id,
                        kind,
                        inputs,
                        label: name.clone(),
                    });
                    defs.insert(name.clone(), id);
                }
                LoopStmt::Push { value } => {
                    if sink_feed.is_some() {
                        return Err(GraphError {
                            message: "multiple pushes; a function has one output stream".into(),
                        });
                    }
                    let src = *defs.get(value).ok_or_else(|| GraphError {
                        message: format!("push of undefined variable '{value}'"),
                    })?;
                    sink_feed = Some(src);
                }
                LoopStmt::IfPush { predicate, value } => {
                    if sink_feed.is_some() {
                        return Err(GraphError {
                            message: "multiple pushes; a function has one output stream".into(),
                        });
                    }
                    let mut inputs = resolve_args(&defs, &predicate.args)?;
                    let payload = *defs.get(value).ok_or_else(|| GraphError {
                        message: format!("push of undefined variable '{value}'"),
                    })?;
                    inputs.push(payload);
                    let id = nodes.len();
                    nodes.push(Node {
                        id,
                        kind: NodeKind::Filter {
                            predicate: predicate.callee.clone(),
                        },
                        inputs,
                        label: format!("filter_{value}"),
                    });
                    sink_feed = Some(id);
                }
            }
        }
        let feed = sink_feed.ok_or_else(|| GraphError {
            message: "loop body never pushes a result".into(),
        })?;
        let id = nodes.len();
        nodes.push(Node {
            id,
            kind: NodeKind::Sink,
            inputs: vec![feed],
            label: f.out.clone(),
        });
        Ok(DataflowGraph {
            name: f.name.clone(),
            nodes,
        })
    }

    /// The sink node.
    ///
    /// # Panics
    ///
    /// Never for graphs built by [`DataflowGraph::from_function`].
    pub fn sink(&self) -> &Node {
        self.nodes
            .last()
            .expect("graphs always end with their sink")
    }

    /// Consumers of each node's output, indexed by producer id.
    pub fn consumers(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for node in &self.nodes {
            for &input in &node.inputs {
                out[input].push(node.id);
            }
        }
        out
    }

    /// Number of replicable (pure map) nodes — the parallelism the graph
    /// exposes beyond pipelining.
    pub fn replicable_nodes(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Map { .. }))
            .count()
    }
}

fn resolve_args(
    defs: &HashMap<String, NodeId>,
    args: &[String],
) -> Result<Vec<NodeId>, GraphError> {
    args.iter()
        .map(|a| {
            defs.get(a).copied().ok_or_else(|| GraphError {
                message: format!("use of undefined variable '{a}'"),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::parse_function;

    fn graph(src: &str) -> DataflowGraph {
        DataflowGraph::from_function(&parse_function(src).unwrap()).unwrap()
    }

    #[test]
    fn builds_pipeline_with_filter_and_state() {
        let g = graph(
            "fn map_match(samples: Vec<S>) -> Vec<M> {
                let mut out = Vec::new();
                let mut hmm = viterbi_state();
                for s in samples {
                    let c = candidates(s);
                    let m = hmm.step(c, s);
                    if plausible(m) {
                        out.push(m);
                    }
                }
                out
            }",
        );
        assert_eq!(g.nodes.len(), 5); // source, candidates, step, filter, sink
        assert!(matches!(g.nodes[0].kind, NodeKind::Source));
        assert!(matches!(&g.nodes[1].kind, NodeKind::Map { callee } if callee == "candidates"));
        assert!(
            matches!(&g.nodes[2].kind, NodeKind::StatefulMap { ctor, method }
                if ctor == "viterbi_state" && method == "step")
        );
        assert_eq!(g.nodes[2].inputs, vec![1, 0]); // (c, s)
        assert!(
            matches!(&g.nodes[3].kind, NodeKind::Filter { predicate } if predicate == "plausible")
        );
        assert_eq!(g.sink().inputs, vec![3]);
    }

    #[test]
    fn fanout_is_represented_as_multiple_consumers() {
        let g = graph(
            "fn f(xs: Vec<f64>) -> Vec<f64> {
                let mut out = Vec::new();
                for x in xs {
                    let a = f1(x);
                    let b = f2(x, a);
                    out.push(b);
                }
                out
            }",
        );
        let consumers = g.consumers();
        // x feeds f1 and f2
        assert_eq!(consumers[0], vec![1, 2]);
    }

    #[test]
    fn undefined_variable_rejected() {
        let f = parse_function(
            "fn f(xs: Vec<f64>) -> Vec<f64> {
                let mut out = Vec::new();
                for x in xs {
                    let y = g(z);
                    out.push(y);
                }
                out
            }",
        )
        .unwrap();
        let err = DataflowGraph::from_function(&f).unwrap_err();
        assert!(err.message.contains("'z'"));
    }

    #[test]
    fn no_push_rejected() {
        let f = parse_function(
            "fn f(xs: Vec<f64>) -> Vec<f64> {
                let mut out = Vec::new();
                for x in xs {
                    let y = g(x);
                }
                out
            }",
        )
        .unwrap();
        let err = DataflowGraph::from_function(&f).unwrap_err();
        assert!(err.message.contains("never pushes"));
    }

    #[test]
    fn double_push_rejected() {
        let f = parse_function(
            "fn f(xs: Vec<f64>) -> Vec<f64> {
                let mut out = Vec::new();
                for x in xs {
                    out.push(x);
                    out.push(x);
                }
                out
            }",
        )
        .unwrap();
        let err = DataflowGraph::from_function(&f).unwrap_err();
        assert!(err.message.contains("multiple pushes"));
    }

    #[test]
    fn replicable_count_excludes_stateful() {
        let g = graph(
            "fn f(xs: Vec<f64>) -> Vec<f64> {
                let mut out = Vec::new();
                let mut acc = mk_acc();
                for x in xs {
                    let a = pure1(x);
                    let b = pure2(a);
                    let c = acc.fold(b);
                    out.push(c);
                }
                out
            }",
        );
        assert_eq!(g.replicable_nodes(), 2);
    }
}
