//! GPU memory accounting.
//!
//! Serving long contexts is memory-dominated: the paper's headline example
//! is a single 1M-token request whose key-value cache alone needs 488 GB.
//! [`MemoryBudget`] splits each GPU's memory into model weights, a fixed
//! activation/workspace reservation, and the remainder available for
//! key-value cache slots — mirroring how vLLM/LightLLM size their paged KV
//! pools.

use crate::gpu::GpuSpec;

/// Memory budget of a single GPU participating in an elastic instance.
///
/// # Examples
///
/// ```
/// use loong_cluster::gpu::GpuSpec;
/// use loong_cluster::memory::MemoryBudget;
///
/// // Llama-2-7B weights sharded over 2 GPUs, 64 KiB of KV per token per GPU.
/// let budget = MemoryBudget::new(&GpuSpec::a800_80gb(), 7e9 * 2.0 / 2.0, 0.10, 65536.0);
/// assert!(budget.kv_slot_capacity() > 100_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryBudget {
    /// Total device memory in bytes.
    pub total_bytes: f64,
    /// Bytes consumed by the (sharded) model weights on this GPU.
    pub weight_bytes: f64,
    /// Bytes reserved for activations, communication buffers and workspace.
    pub workspace_bytes: f64,
    /// Bytes of key-value cache stored per token on this GPU.
    pub kv_bytes_per_token: f64,
}

impl MemoryBudget {
    /// Creates a budget for one GPU.
    ///
    /// `weight_bytes` is the shard of model weights resident on this GPU;
    /// `workspace_fraction` is the fraction of total memory reserved for
    /// activations and buffers (vLLM defaults to roughly 10%);
    /// `kv_bytes_per_token` is the per-token KV footprint on this GPU.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are not positive/finite or the weights plus
    /// workspace exceed device memory.
    pub fn new(
        gpu: &GpuSpec,
        weight_bytes: f64,
        workspace_fraction: f64,
        kv_bytes_per_token: f64,
    ) -> Self {
        assert!(
            weight_bytes >= 0.0 && weight_bytes.is_finite(),
            "invalid weight bytes"
        );
        assert!(
            (0.0..1.0).contains(&workspace_fraction),
            "workspace fraction must be in [0, 1), got {workspace_fraction}"
        );
        assert!(
            kv_bytes_per_token > 0.0,
            "kv bytes per token must be positive"
        );
        let workspace_bytes = gpu.memory_bytes * workspace_fraction;
        let budget = MemoryBudget {
            total_bytes: gpu.memory_bytes,
            weight_bytes,
            workspace_bytes,
            kv_bytes_per_token,
        };
        assert!(
            budget.kv_pool_bytes() >= 0.0,
            "model weights ({weight_bytes} B) plus workspace do not fit in {} B of device memory",
            gpu.memory_bytes
        );
        budget
    }

    /// Bytes left over for the key-value cache pool.
    pub fn kv_pool_bytes(&self) -> f64 {
        self.total_bytes - self.weight_bytes - self.workspace_bytes
    }

    /// Number of whole token slots the key-value pool can hold.
    pub fn kv_slot_capacity(&self) -> u64 {
        (self.kv_pool_bytes() / self.kv_bytes_per_token)
            .floor()
            .max(0.0) as u64
    }

    /// Fraction of the KV pool used when `tokens` slots are occupied.
    pub fn utilization(&self, tokens: u64) -> f64 {
        let cap = self.kv_slot_capacity();
        if cap == 0 {
            return 1.0;
        }
        tokens as f64 / cap as f64
    }
}

/// Fraction of host DRAM *not* available to the KV swap tier.
pub(crate) const HOST_RESERVED_FRACTION: f64 = 0.5;

/// Host-DRAM budget of one node, sizing the swap tier that evicted KV cache
/// spills into.
///
/// Production inference servers pair each 8-GPU node with 1–2 TB of DRAM;
/// only half of it is available for KV swap (the rest holds the OS, weights
/// staged for loading, and pinned transfer buffers). The budget mirrors
/// [`MemoryBudget`]: total bytes and the per-token KV footprint, yielding a
/// whole-token host slot capacity.
///
/// # Examples
///
/// ```
/// use loong_cluster::memory::HostMemoryBudget;
///
/// // 1 TiB of DRAM, half reserved, 512 KiB of KV per token.
/// let budget = HostMemoryBudget::new(1024.0 * 1024.0 * 1024.0 * 1024.0, 524_288.0);
/// assert_eq!(budget.kv_slot_capacity(), 1_048_576);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostMemoryBudget {
    /// Total host DRAM in bytes.
    pub total_bytes: f64,
    /// Bytes of key-value cache stored per token (whole-model footprint:
    /// a swapped token leaves every GPU shard).
    pub kv_bytes_per_token: f64,
}

impl HostMemoryBudget {
    /// Creates a host budget.
    ///
    /// # Panics
    ///
    /// Panics if `total_bytes` is not positive/finite or
    /// `kv_bytes_per_token` is not positive.
    pub fn new(total_bytes: f64, kv_bytes_per_token: f64) -> Self {
        assert!(
            total_bytes > 0.0 && total_bytes.is_finite(),
            "host memory must be positive"
        );
        assert!(
            kv_bytes_per_token > 0.0,
            "kv bytes per token must be positive"
        );
        HostMemoryBudget {
            total_bytes,
            kv_bytes_per_token,
        }
    }

    /// Bytes available to the host KV swap pool.
    pub fn kv_pool_bytes(&self) -> f64 {
        self.total_bytes * (1.0 - HOST_RESERVED_FRACTION)
    }

    /// Number of whole token slots the host swap pool can hold.
    pub fn kv_slot_capacity(&self) -> u64 {
        (self.kv_pool_bytes() / self.kv_bytes_per_token)
            .floor()
            .max(0.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::GIB;

    /// Llama-2-7B in FP16 sharded over 4 GPUs with a GQA=32-head KV layout.
    fn example_budget() -> MemoryBudget {
        let gpu = GpuSpec::a800_80gb();
        // 7B params * 2 bytes / 4-way TP.
        MemoryBudget::new(&gpu, 7e9 * 2.0 / 4.0, 0.10, 32768.0)
    }

    #[test]
    fn capacity_is_positive_and_reasonable() {
        let b = example_budget();
        let cap = b.kv_slot_capacity();
        // ~68 GiB free / 32 KiB per token => ~2.2M slots.
        assert!(cap > 1_000_000, "capacity {cap} too small");
        assert!(cap < 10_000_000, "capacity {cap} implausibly large");
    }

    #[test]
    fn utilization_tracks_tokens() {
        let b = example_budget();
        let cap = b.kv_slot_capacity();
        assert_eq!(b.utilization(0), 0.0);
        assert!((b.utilization(cap) - 1.0).abs() < 1e-9);
        assert!(b.utilization(cap / 2) < 0.51);
    }

    #[test]
    fn host_budget_holds_far_more_tokens_than_hbm() {
        // 1 TiB of DRAM against 80 GiB of HBM: even with half the DRAM
        // reserved, the swap tier holds several device pools' worth of KV.
        let device = example_budget();
        let host = HostMemoryBudget::new(1024.0 * GIB, device.kv_bytes_per_token);
        assert!(host.kv_slot_capacity() > 4 * device.kv_slot_capacity());
        assert!((host.kv_pool_bytes() - 512.0 * GIB).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn oversized_weights_panic() {
        let gpu = GpuSpec::a800_80gb();
        let _ = MemoryBudget::new(&gpu, 200.0 * GIB, 0.10, 32768.0);
    }

    #[test]
    #[should_panic(expected = "workspace fraction")]
    fn bad_workspace_fraction_panics() {
        let gpu = GpuSpec::a800_80gb();
        let _ = MemoryBudget::new(&gpu, 1e9, 1.5, 32768.0);
    }
}
