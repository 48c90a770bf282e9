//! Method registries: how a byte stream names behaviour.
//!
//! A memory-resident private queue carries closures; a remote one carries
//! method names plus arguments.  A [`MethodRegistry`] maps those names to
//! functions over the handler-owned state; a [`crate::server::BlockServer`]
//! dispatches every frame it applies through one.  A [`RemoteObject`]
//! bundles the state with its registry so a [`crate::node::RemoteNode`] can
//! host it.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::wire::WireValue;

/// The signature of a registered method: it receives the handler-owned state
/// and the decoded arguments, and returns a value (commands return
/// [`WireValue::Unit`]) or an application-level error message.
pub type Method<T> = dyn Fn(&mut T, &[WireValue]) -> Result<WireValue, String> + Send + Sync;

/// A named set of methods over a state type `T`.
pub struct MethodRegistry<T> {
    methods: BTreeMap<String, Arc<Method<T>>>,
}

impl<T> Default for MethodRegistry<T> {
    fn default() -> Self {
        MethodRegistry {
            methods: BTreeMap::new(),
        }
    }
}

impl<T> MethodRegistry<T> {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `method` under `name`, replacing any previous registration.
    /// Returns `self` so registrations chain.
    pub fn with(
        mut self,
        name: &str,
        method: impl Fn(&mut T, &[WireValue]) -> Result<WireValue, String> + Send + Sync + 'static,
    ) -> Self {
        self.register(name, method);
        self
    }

    /// Registers `method` under `name`.
    pub fn register(
        &mut self,
        name: &str,
        method: impl Fn(&mut T, &[WireValue]) -> Result<WireValue, String> + Send + Sync + 'static,
    ) {
        self.methods.insert(name.to_string(), Arc::new(method));
    }

    /// The registered method names, sorted.
    pub fn method_names(&self) -> Vec<String> {
        self.methods.keys().cloned().collect()
    }

    /// Applies the method registered under `name`.
    pub fn dispatch(
        &self,
        state: &mut T,
        name: &str,
        args: &[WireValue],
    ) -> Result<WireValue, String> {
        match self.methods.get(name) {
            Some(method) => method(state, args),
            None => Err(format!("no method `{name}` registered")),
        }
    }
}

impl<T> std::fmt::Debug for MethodRegistry<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MethodRegistry")
            .field("methods", &self.method_names())
            .finish()
    }
}

/// Handler-owned state paired with the registry that gives it behaviour;
/// this is what a [`crate::node::RemoteNode`] hosts (the state on its
/// handler, the registry in its block server).
pub struct RemoteObject<T> {
    /// The state owned by the hosting node's handler.
    pub state: T,
    /// The methods clients may invoke on it.
    pub registry: Arc<MethodRegistry<T>>,
}

impl<T> RemoteObject<T> {
    /// Bundles state with its registry.
    pub fn new(state: T, registry: MethodRegistry<T>) -> Self {
        RemoteObject {
            state,
            registry: Arc::new(registry),
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RemoteObject<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteObject")
            .field("state", &self.state)
            .field("methods", &self.registry.method_names())
            .finish()
    }
}

/// A ready-made registry for an integer counter — used by tests, examples and
/// benchmarks as the remote analogue of the quickstart counter.
pub fn counter_registry() -> MethodRegistry<i64> {
    MethodRegistry::new()
        .with("add", |count, args| {
            let amount = args.first().ok_or("add requires one argument")?.as_int()?;
            *count += amount;
            Ok(WireValue::Unit)
        })
        .with("reset", |count, _| {
            *count = 0;
            Ok(WireValue::Unit)
        })
        .with("value", |count, _| Ok(WireValue::Int(*count)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_routes_to_registered_methods() {
        let registry = counter_registry();
        let mut state = 0i64;
        registry
            .dispatch(&mut state, "add", &[WireValue::Int(4)])
            .unwrap();
        registry
            .dispatch(&mut state, "add", &[WireValue::Int(-1)])
            .unwrap();
        assert_eq!(
            registry.dispatch(&mut state, "value", &[]).unwrap(),
            WireValue::Int(3)
        );
        registry.dispatch(&mut state, "reset", &[]).unwrap();
        assert_eq!(state, 0);
    }

    #[test]
    fn unknown_methods_and_bad_arguments_are_errors() {
        let registry = counter_registry();
        let mut state = 0i64;
        assert!(registry.dispatch(&mut state, "missing", &[]).is_err());
        assert!(registry.dispatch(&mut state, "add", &[]).is_err());
        assert!(registry
            .dispatch(&mut state, "add", &[WireValue::Bool(true)])
            .is_err());
    }

    #[test]
    fn registration_order_does_not_matter_and_names_are_sorted() {
        let registry = MethodRegistry::<u8>::new()
            .with("zeta", |_, _| Ok(WireValue::Unit))
            .with("alpha", |_, _| Ok(WireValue::Unit));
        assert_eq!(registry.method_names(), vec!["alpha", "zeta"]);
        assert!(format!("{registry:?}").contains("alpha"));
    }

    #[test]
    fn remote_object_applies_methods_to_its_state() {
        let mut object = RemoteObject::new(10i64, counter_registry());
        let registry = Arc::clone(&object.registry);
        registry
            .dispatch(&mut object.state, "add", &[WireValue::Int(5)])
            .unwrap();
        assert_eq!(
            registry.dispatch(&mut object.state, "value", &[]).unwrap(),
            WireValue::Int(15)
        );
        assert!(format!("{object:?}").contains("15"));
    }
}
