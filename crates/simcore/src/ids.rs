//! Strongly-typed identifiers shared across the workspace.
//!
//! The simulator threads many kinds of small integer identifiers through its
//! data structures (requests, GPUs, instances, replicas, conversations).
//! Newtype wrappers keep them from being mixed up at compile time and give
//! the debugger readable output.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
        pub struct $name(pub u64);

        impl $name {
            /// Returns the raw numeric value.
            pub fn raw(self) -> u64 {
                self.0
            }

            /// Returns the value as a `usize` index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                $name(v)
            }
        }

        impl From<usize> for $name {
            fn from(v: usize) -> Self {
                $name(v as u64)
            }
        }

        // Id-keyed maps serialize with the raw number as the object key.
        impl serde::MapKey for $name {
            fn to_key(&self) -> String {
                self.0.to_string()
            }

            fn parse_key(s: &str) -> Result<Self, serde::DeError> {
                s.parse::<u64>()
                    .map($name)
                    .map_err(|_| serde::DeError::custom(format!("bad id key `{s}`")))
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

define_id!(
    /// Identifier of a serving request.
    RequestId,
    "req"
);

define_id!(
    /// Identifier of a physical GPU device in the simulated cluster.
    GpuId,
    "gpu"
);

define_id!(
    /// Identifier of a node (server) in the simulated cluster.
    NodeId,
    "node"
);

define_id!(
    /// Identifier of an elastic instance (a model replica spanning one or
    /// more GPUs under tensor parallelism).
    InstanceId,
    "inst"
);

define_id!(
    /// Identifier of a serving replica in a fleet (one full serving engine
    /// with its own cluster node, KV pool and scheduler).
    ReplicaId,
    "replica"
);

define_id!(
    /// Identifier of a multi-turn conversation. Requests sharing a
    /// conversation id form strictly-growing prompt prefixes (each turn's
    /// prompt extends the previous turn's full context), which is what the
    /// prefix-cache tier keys its token-granularity index on.
    ConversationId,
    "conv"
);

/// A monotonically increasing identifier allocator.
///
/// # Examples
///
/// ```
/// use loong_simcore::ids::{IdAllocator, RequestId};
///
/// let mut alloc = IdAllocator::<RequestId>::new();
/// assert_eq!(alloc.next(), RequestId(0));
/// assert_eq!(alloc.next(), RequestId(1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct IdAllocator<T> {
    next: u64,
    _marker: std::marker::PhantomData<T>,
}

impl<T: From<u64>> IdAllocator<T> {
    /// Creates an allocator starting at zero.
    pub fn new() -> Self {
        IdAllocator {
            next: 0,
            _marker: std::marker::PhantomData,
        }
    }

    /// Allocates the next identifier.
    ///
    /// Deliberately named like `Iterator::next`; the allocator is not an
    /// iterator (allocation never ends and is never `None`).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> T {
        let id = self.next;
        self.next += 1;
        T::from(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_format_with_prefix() {
        assert_eq!(format!("{}", RequestId(3)), "req3");
        assert_eq!(format!("{:?}", InstanceId(1)), "inst1");
        assert_eq!(format!("{}", ConversationId(7)), "conv7");
    }

    #[test]
    fn allocator_is_monotone() {
        let mut alloc = IdAllocator::<RequestId>::new();
        let a = alloc.next();
        let b = alloc.next();
        assert!(b > a);
        // Two allocations so far: the next id is the third.
        assert_eq!(alloc.next(), RequestId(2));
    }

    #[test]
    fn conversions_roundtrip() {
        let id = GpuId::from(5usize);
        assert_eq!(id.index(), 5);
        assert_eq!(id.raw(), 5);
        assert_eq!(GpuId::from(5u64), id);
    }
}
