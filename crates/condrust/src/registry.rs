//! Operator registry: named Rust functions callable from ConDRust code.
//!
//! ConDRust separates *coordination* (the parsed Rust-subset program)
//! from *computation* (plain Rust functions). The registry binds the
//! names used in the program to implementations. Stateful operators
//! follow the STCLang state-thread model: each node owns private state
//! threaded through its invocations, which preserves determinism because
//! a node processes its inputs in arrival order on a single logical
//! thread.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::value::Value;

/// A pure (stateless) operator: `args -> value`.
pub(crate) type PureFn = Arc<dyn Fn(&[Value]) -> Value + Send + Sync>;

/// A predicate used by `if p(x) { out.push(x) }` filters.
pub(crate) type PredicateFn = Arc<dyn Fn(&[Value]) -> bool + Send + Sync>;

/// A stateful operator: `(state, args) -> value`, mutating its state.
pub(crate) type StatefulFn = Arc<dyn Fn(&mut Value, &[Value]) -> Value + Send + Sync>;

/// Constructor producing the initial state of a stateful operator.
pub(crate) type StateInitFn = Arc<dyn Fn() -> Value + Send + Sync>;

/// Error returned when a program references an unregistered operator.
#[derive(Debug, Clone, PartialEq)]
pub struct UnknownOperator {
    /// The missing name.
    pub name: String,
}

impl fmt::Display for UnknownOperator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown operator '{}'", self.name)
    }
}

impl std::error::Error for UnknownOperator {}

/// Binds operator names to Rust implementations.
#[derive(Clone, Default)]
pub struct Registry {
    pure: HashMap<String, PureFn>,
    predicates: HashMap<String, PredicateFn>,
    stateful: HashMap<String, (StateInitFn, StatefulFn)>,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("pure", &self.pure.keys().collect::<Vec<_>>())
            .field("predicates", &self.predicates.keys().collect::<Vec<_>>())
            .field("stateful", &self.stateful.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a pure operator.
    pub fn register_pure<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: Fn(&[Value]) -> Value + Send + Sync + 'static,
    {
        self.pure.insert(name.to_string(), Arc::new(f));
        self
    }

    /// Registers a filter predicate.
    pub fn register_predicate<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: Fn(&[Value]) -> bool + Send + Sync + 'static,
    {
        self.predicates.insert(name.to_string(), Arc::new(f));
        self
    }

    /// Registers a stateful operator with its state constructor.
    pub fn register_stateful<I, F>(&mut self, name: &str, init: I, step: F) -> &mut Self
    where
        I: Fn() -> Value + Send + Sync + 'static,
        F: Fn(&mut Value, &[Value]) -> Value + Send + Sync + 'static,
    {
        self.stateful
            .insert(name.to_string(), (Arc::new(init), Arc::new(step)));
        self
    }

    /// Looks up a pure operator.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownOperator`] if the name is not registered.
    pub fn pure(&self, name: &str) -> Result<PureFn, UnknownOperator> {
        self.pure.get(name).cloned().ok_or_else(|| UnknownOperator {
            name: name.to_string(),
        })
    }

    /// Looks up a predicate.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownOperator`] if the name is not registered.
    pub fn predicate(&self, name: &str) -> Result<PredicateFn, UnknownOperator> {
        self.predicates
            .get(name)
            .cloned()
            .ok_or_else(|| UnknownOperator {
                name: name.to_string(),
            })
    }

    /// Looks up a stateful operator.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownOperator`] if the name is not registered.
    pub(crate) fn stateful(
        &self,
        name: &str,
    ) -> Result<(StateInitFn, StatefulFn), UnknownOperator> {
        self.stateful
            .get(name)
            .cloned()
            .ok_or_else(|| UnknownOperator {
                name: name.to_string(),
            })
    }

    /// Whether a name refers to a predicate.
    pub fn is_predicate(&self, name: &str) -> bool {
        self.predicates.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_call_pure() {
        let mut r = Registry::new();
        r.register_pure("double", |args| Value::F64(args[0].as_f64().unwrap() * 2.0));
        let f = r.pure("double").unwrap();
        assert_eq!(f(&[Value::F64(3.0)]), Value::F64(6.0));
        assert!(r.pure("nope").is_err());
    }

    #[test]
    fn stateful_operator_threads_state() {
        let mut r = Registry::new();
        r.register_stateful(
            "counter",
            || Value::I64(0),
            |state, _args| {
                let n = state.as_i64().unwrap() + 1;
                *state = Value::I64(n);
                Value::I64(n)
            },
        );
        let (init, step) = r.stateful("counter").unwrap();
        let mut state = init();
        assert_eq!(step(&mut state, &[]), Value::I64(1));
        assert_eq!(step(&mut state, &[]), Value::I64(2));
        assert!(r.stateful("double").is_err());
    }

    #[test]
    fn predicates_are_separate_namespace() {
        let mut r = Registry::new();
        r.register_predicate("positive", |args| args[0].as_f64().unwrap() > 0.0);
        let p = r.predicate("positive").unwrap();
        assert!(p(&[Value::F64(1.0)]));
        assert!(!p(&[Value::F64(-1.0)]));
        assert!(r.is_predicate("positive"));
    }
}
