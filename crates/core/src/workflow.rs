//! LEXIS-style workflow deployment (paper §IV): applications describe a
//! workflow of steps; steps marked for FPGA acceleration are offloaded
//! to FPGA-equipped nodes through the runtime's resource manager.

use everest_runtime::{Cluster, Policy, Scheduler, SimulationResult, TaskGraph, TaskSpec};

use crate::basecamp::CompiledKernel;
use crate::error::SdkError;

/// One workflow step.
#[derive(Debug, Clone)]
pub struct WorkflowStep {
    /// Step name (unique within the workflow).
    pub name: String,
    /// Names of steps this one depends on.
    pub depends_on: Vec<String>,
    /// CPU execution time estimate (µs).
    pub cpu_us: f64,
    /// Output size in bytes.
    pub output_bytes: u64,
    /// Marked for FPGA offloading (the LEXIS extension of §IV); the
    /// value names the compiled kernel supplying the accelerated time.
    pub accelerate_with: Option<String>,
}

/// A deployable workflow descriptor.
#[derive(Debug, Clone, Default)]
pub struct Workflow {
    /// Workflow name.
    pub name: String,
    /// Steps in definition order.
    pub steps: Vec<WorkflowStep>,
}

impl Workflow {
    /// Creates an empty workflow.
    pub fn new(name: &str) -> Workflow {
        Workflow {
            name: name.to_string(),
            steps: Vec::new(),
        }
    }

    /// Adds a step.
    pub fn step(mut self, step: WorkflowStep) -> Workflow {
        self.steps.push(step);
        self
    }

    /// Converts to a runtime task graph, resolving accelerated steps
    /// against the compiled kernels.
    ///
    /// # Errors
    ///
    /// Returns [`SdkError::Runtime`] for unknown dependencies or missing
    /// kernels.
    pub(crate) fn to_task_graph(
        &self,
        kernels: &[(&str, &CompiledKernel)],
    ) -> Result<TaskGraph, SdkError> {
        let mut graph = TaskGraph::new();
        let mut ids = std::collections::HashMap::new();
        for step in &self.steps {
            let deps: Vec<usize> = step
                .depends_on
                .iter()
                .map(|d| {
                    ids.get(d.as_str()).copied().ok_or_else(|| {
                        SdkError::Runtime(format!(
                            "step '{}' depends on unknown step '{d}'",
                            step.name
                        ))
                    })
                })
                .collect::<Result<_, _>>()?;
            let mut spec = TaskSpec::new(&step.name, step.cpu_us)
                .after(deps)
                .with_output_bytes(step.output_bytes);
            if let Some(kernel_name) = &step.accelerate_with {
                let kernel = kernels
                    .iter()
                    .find(|(n, _)| n == kernel_name)
                    .map(|(_, k)| k)
                    .ok_or_else(|| {
                        SdkError::Runtime(format!("no compiled kernel '{kernel_name}'"))
                    })?;
                let t = kernel.fpga_time_us.ok_or_else(|| {
                    SdkError::Runtime(format!(
                        "kernel '{kernel_name}' was compiled for CPU; cannot offload"
                    ))
                })?;
                spec = spec.with_fpga(t);
            }
            let id = graph
                .add(spec)
                .map_err(|e| SdkError::Runtime(e.to_string()))?;
            ids.insert(step.name.as_str(), id);
        }
        Ok(graph)
    }

    /// Deploys and simulates the workflow on a cluster; the EVEREST
    /// runtime schedules accelerated steps onto FPGA nodes.
    ///
    /// # Errors
    ///
    /// Returns [`SdkError::Runtime`] for malformed workflows.
    pub fn execute(
        &self,
        kernels: &[(&str, &CompiledKernel)],
        cluster: Cluster,
    ) -> Result<SimulationResult, SdkError> {
        let graph = self.to_task_graph(kernels)?;
        let scheduler = Scheduler::new(cluster, Policy::Heft);
        Ok(scheduler.run(&graph))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basecamp::{Basecamp, CompileOptions};
    use everest_ekl::rrtmg::{major_absorber_source, RrtmgDims};

    fn compiled() -> CompiledKernel {
        let dims = RrtmgDims {
            nlay: 8,
            ngpt: 4,
            ntemp: 5,
            npres: 10,
            neta: 4,
            nflav: 2,
        };
        Basecamp::new()
            .compile_kernel(&major_absorber_source(dims), CompileOptions::default())
            .unwrap()
    }

    fn wrf_workflow() -> Workflow {
        Workflow::new("wrf_ensemble")
            .step(WorkflowStep {
                name: "ingest".into(),
                depends_on: vec![],
                cpu_us: 2_000.0,
                output_bytes: 1 << 20,
                accelerate_with: None,
            })
            .step(WorkflowStep {
                name: "radiation".into(),
                depends_on: vec!["ingest".into()],
                cpu_us: 500_000.0,
                output_bytes: 1 << 18,
                accelerate_with: Some("rrtmg".into()),
            })
            .step(WorkflowStep {
                name: "postprocess".into(),
                depends_on: vec!["radiation".into()],
                cpu_us: 3_000.0,
                output_bytes: 1 << 16,
                accelerate_with: None,
            })
    }

    #[test]
    fn offloaded_workflow_beats_cpu_only() {
        let kernel = compiled();
        let w = wrf_workflow();
        let cluster = everest_runtime::Cluster::everest(2, 1, 8);
        let accelerated = w.execute(&[("rrtmg", &kernel)], cluster.clone()).unwrap();
        // CPU-only variant: drop the acceleration mark.
        let mut cpu_only = w.clone();
        cpu_only.steps[1].accelerate_with = None;
        let plain = cpu_only.execute(&[], cluster).unwrap();
        assert!(
            accelerated.makespan_us < plain.makespan_us / 5.0,
            "offloading must dominate: {} vs {}",
            accelerated.makespan_us,
            plain.makespan_us
        );
        // the radiation step ran on the FPGA
        assert!(accelerated.entries.iter().any(|e| e.on_fpga));
    }

    #[test]
    fn unknown_dependency_is_reported() {
        let w = Workflow::new("bad").step(WorkflowStep {
            name: "a".into(),
            depends_on: vec!["ghost".into()],
            cpu_us: 1.0,
            output_bytes: 0,
            accelerate_with: None,
        });
        let err = w.to_task_graph(&[]).unwrap_err();
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn missing_kernel_is_reported() {
        let w = wrf_workflow();
        let err = w.to_task_graph(&[]).unwrap_err();
        assert!(err.to_string().contains("rrtmg"));
    }
}
