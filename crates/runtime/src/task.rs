//! Task graphs with EVEREST resource-request extensions.
//!
//! The runtime exposes a Dask-like API (paper §VI-A): applications build
//! a graph of tasks with dependencies; the EVEREST extension lets tasks
//! declare *resource requests* — most importantly that an FPGA
//! implementation of the task's kernel exists, with its accelerated
//! execution time.

use std::collections::HashMap;
use std::fmt;

/// Task identifier within a [`TaskGraph`].
pub(crate) type TaskId = usize;

/// One task: durations, dependencies and resource requests.
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// Human-readable name.
    pub name: String,
    /// Tasks whose outputs this task consumes.
    pub deps: Vec<TaskId>,
    /// Execution time on a CPU core, in microseconds.
    pub cpu_us: f64,
    /// Execution time on an FPGA node, if an accelerated kernel exists
    /// (the EVEREST resource-request extension).
    pub fpga_us: Option<f64>,
    /// CPU cores requested.
    pub cores: u32,
    /// Bytes of output produced (transferred when a consumer runs on a
    /// different node).
    pub output_bytes: u64,
}

impl TaskSpec {
    /// Creates a CPU-only task.
    pub fn new(name: &str, cpu_us: f64) -> TaskSpec {
        TaskSpec {
            name: name.to_string(),
            deps: Vec::new(),
            cpu_us,
            fpga_us: None,
            cores: 1,
            output_bytes: 0,
        }
    }

    /// Declares dependencies.
    pub fn after<I: IntoIterator<Item = TaskId>>(mut self, deps: I) -> TaskSpec {
        self.deps = deps.into_iter().collect();
        self
    }

    /// Declares an FPGA implementation with its accelerated duration.
    pub fn with_fpga(mut self, fpga_us: f64) -> TaskSpec {
        self.fpga_us = Some(fpga_us);
        self
    }

    /// Declares the output size.
    pub fn with_output_bytes(mut self, bytes: u64) -> TaskSpec {
        self.output_bytes = bytes;
        self
    }

    /// Fault-free duration of one placement, in µs: the accelerated
    /// time on the FPGA (the CPU time when there is none), the CPU time
    /// on the cores.
    pub(crate) fn healthy_us(&self, on_fpga: bool) -> f64 {
        match self.fpga_us {
            Some(fpga_us) if on_fpga => fpga_us,
            _ => self.cpu_us,
        }
    }
}

/// A directed acyclic graph of tasks.
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    tasks: Vec<TaskSpec>,
}

/// Error for malformed graphs.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphError {
    /// Explanation.
    pub message: String,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task graph error: {}", self.message)
    }
}

impl std::error::Error for GraphError {}

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new() -> TaskGraph {
        TaskGraph::default()
    }

    /// Adds a task; dependencies must refer to already-added tasks
    /// (which makes cycles impossible by construction).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] on forward/dangling dependencies.
    pub fn add(&mut self, spec: TaskSpec) -> Result<TaskId, GraphError> {
        let id = self.tasks.len();
        for &d in &spec.deps {
            if d >= id {
                return Err(GraphError {
                    message: format!(
                        "task '{}' depends on task {d}, which is not yet defined",
                        spec.name
                    ),
                });
            }
        }
        self.tasks.push(spec);
        Ok(id)
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The task with the given id.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range ids.
    pub fn task(&self, id: TaskId) -> &TaskSpec {
        &self.tasks[id]
    }

    /// Iterates `(id, spec)`.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &TaskSpec)> {
        self.tasks.iter().enumerate()
    }

    /// Consumers of each task.
    pub fn consumers(&self) -> Vec<Vec<TaskId>> {
        let mut out = vec![Vec::new(); self.tasks.len()];
        for (id, t) in self.iter() {
            for &d in &t.deps {
                out[d].push(id);
            }
        }
        out
    }

    /// Upward rank (critical-path length to any sink, in µs of CPU time):
    /// the classic HEFT priority.
    pub(crate) fn upward_ranks(&self) -> Vec<f64> {
        let consumers = self.consumers();
        let mut rank = vec![0.0f64; self.tasks.len()];
        for id in (0..self.tasks.len()).rev() {
            let own = self.tasks[id].cpu_us;
            let tail = consumers[id].iter().map(|&c| rank[c]).fold(0.0, f64::max);
            rank[id] = own + tail;
        }
        rank
    }

    /// Builds a map name → id (last wins for duplicates).
    pub fn names(&self) -> HashMap<String, TaskId> {
        self.iter().map(|(i, t)| (t.name.clone(), i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_diamond_graph() {
        let mut g = TaskGraph::new();
        let a = g.add(TaskSpec::new("a", 10.0)).unwrap();
        let b = g.add(TaskSpec::new("b", 20.0).after([a])).unwrap();
        let c = g.add(TaskSpec::new("c", 30.0).after([a])).unwrap();
        let d = g.add(TaskSpec::new("d", 5.0).after([b, c])).unwrap();
        assert_eq!(g.len(), 4);
        assert_eq!(g.consumers()[a], vec![b, c]);
        let ranks = g.upward_ranks();
        // rank(d)=5, rank(b)=25, rank(c)=35, rank(a)=45
        assert_eq!(ranks[d], 5.0);
        assert_eq!(ranks[c], 35.0);
        assert_eq!(ranks[a], 45.0);
    }

    #[test]
    fn forward_dependency_rejected() {
        let mut g = TaskGraph::new();
        let err = g.add(TaskSpec::new("x", 1.0).after([3])).unwrap_err();
        assert!(err.message.contains("not yet defined"));
    }

    #[test]
    fn builder_methods_compose() {
        let t = TaskSpec::new("k", 100.0)
            .with_fpga(10.0)
            .with_output_bytes(1 << 20);
        assert_eq!(t.fpga_us, Some(10.0));
        assert_eq!(t.output_bytes, 1 << 20);
    }
}
