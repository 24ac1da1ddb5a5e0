//! GPU device model.
//!
//! A [`GpuSpec`] captures the handful of hardware parameters that determine
//! iteration latency in a roofline model: peak dense FP16 throughput, HBM
//! bandwidth, and memory capacity, together with achievable-efficiency
//! factors that account for kernels not reaching peak. The default spec
//! models the NVIDIA A800 80GB SXM used in the paper's testbed.

use serde::{Deserialize, Serialize};

/// Number of bytes in one gibibyte.
pub const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// Number of bytes in one gigabyte (decimal), used for bandwidth figures.
pub const GB: f64 = 1e9;

/// Static description of a GPU device.
///
/// # Examples
///
/// ```
/// use loong_cluster::gpu::GpuSpec;
///
/// let gpu = GpuSpec::a800_80gb();
/// assert!(gpu.memory_bytes > 70.0 * 1024.0 * 1024.0 * 1024.0);
/// assert!(gpu.effective_flops() < gpu.peak_flops);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Human-readable device name.
    pub name: String,
    /// Peak dense FP16/BF16 throughput in FLOP/s.
    pub peak_flops: f64,
    /// Peak HBM bandwidth in bytes/s.
    pub hbm_bandwidth: f64,
    /// Total device memory in bytes.
    pub memory_bytes: f64,
    /// Fraction of peak FLOP/s that large GEMM-dominated kernels achieve.
    pub compute_efficiency: f64,
    /// Fraction of peak HBM bandwidth that memory-bound kernels achieve.
    pub bandwidth_efficiency: f64,
    /// Fixed per-kernel-launch / scheduling overhead per transformer layer,
    /// in seconds. Captures the constant term of iteration latency.
    pub per_layer_overhead_s: f64,
}

impl GpuSpec {
    /// The NVIDIA A800 80GB SXM configuration used in the paper's testbed.
    ///
    /// The A800 is the export variant of the A100: identical compute
    /// (312 TFLOP/s dense FP16) and HBM (~2.0 TB/s), with NVLink capped at
    /// 400 GB/s.
    pub fn a800_80gb() -> Self {
        GpuSpec {
            name: "NVIDIA A800 80GB SXM".to_string(),
            peak_flops: 312e12,
            hbm_bandwidth: 2039.0 * GB,
            memory_bytes: 80.0 * GIB,
            compute_efficiency: 0.55,
            bandwidth_efficiency: 0.80,
            per_layer_overhead_s: 18e-6,
        }
    }

    /// Effective sustained FLOP/s for compute-bound kernels.
    pub fn effective_flops(&self) -> f64 {
        self.peak_flops * self.compute_efficiency
    }

    /// Effective sustained HBM bandwidth for memory-bound kernels, in
    /// bytes/s.
    pub fn effective_bandwidth(&self) -> f64 {
        self.hbm_bandwidth * self.bandwidth_efficiency
    }

    /// Validates that all parameters are physically meaningful.
    pub fn validate(&self) -> Result<(), String> {
        if self.peak_flops <= 0.0 || self.peak_flops.is_nan() {
            return Err(format!("{}: peak_flops must be positive", self.name));
        }
        if self.hbm_bandwidth <= 0.0 || self.hbm_bandwidth.is_nan() {
            return Err(format!("{}: hbm_bandwidth must be positive", self.name));
        }
        if self.memory_bytes <= 0.0 || self.memory_bytes.is_nan() {
            return Err(format!("{}: memory_bytes must be positive", self.name));
        }
        if !(0.0..=1.0).contains(&self.compute_efficiency) {
            return Err(format!(
                "{}: compute_efficiency must be in [0,1]",
                self.name
            ));
        }
        if !(0.0..=1.0).contains(&self.bandwidth_efficiency) {
            return Err(format!(
                "{}: bandwidth_efficiency must be in [0,1]",
                self.name
            ));
        }
        if self.per_layer_overhead_s < 0.0 {
            return Err(format!(
                "{}: per_layer_overhead_s must be non-negative",
                self.name
            ));
        }
        Ok(())
    }
}

impl Default for GpuSpec {
    fn default() -> Self {
        GpuSpec::a800_80gb()
    }
}

/// A point-to-point interconnect link model (bandwidth + latency).
///
/// Communication time for a message of `bytes` over a link is
/// `latency + bytes / bandwidth` (the classic alpha-beta model).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Sustained bandwidth in bytes/s.
    pub bandwidth: f64,
    /// One-way latency in seconds.
    pub latency: f64,
}

impl LinkSpec {
    /// Creates a link with the given bandwidth (bytes/s) and latency (s).
    ///
    /// # Panics
    ///
    /// Panics if bandwidth is not positive or latency is negative.
    pub fn new(bandwidth: f64, latency: f64) -> Self {
        assert!(bandwidth > 0.0, "link bandwidth must be positive");
        assert!(latency >= 0.0, "link latency must be non-negative");
        LinkSpec { bandwidth, latency }
    }

    /// Intra-node NVLink as in the paper's testbed: 400 GB/s between any two
    /// GPUs, ~3 microseconds launch latency.
    pub fn nvlink_a800() -> Self {
        LinkSpec::new(400.0 * GB, 3e-6)
    }

    /// Inter-node InfiniBand: four 200 Gbps HCAs per node shared by eight
    /// GPUs, so roughly 12.5 GB/s per GPU pair sustained, with ~10 us
    /// latency.
    pub fn infiniband_4x200g() -> Self {
        LinkSpec::new(12.5 * GB, 10e-6)
    }

    /// The device↔host path of one GPU: PCIe 4.0 x16 (31.5 GB/s raw,
    /// ~25 GB/s sustained for large DMA transfers, ~10 us launch latency).
    /// KV swap traffic between HBM and host DRAM is costed over this link.
    pub fn pcie_gen4_x16() -> Self {
        LinkSpec::new(25.0 * GB, 10e-6)
    }

    /// Transfer time for a message of `bytes` bytes.
    pub fn transfer_time(&self, bytes: f64) -> f64 {
        assert!(bytes >= 0.0, "message size must be non-negative");
        if bytes == 0.0 {
            return 0.0;
        }
        self.latency + bytes / self.bandwidth
    }

    /// Returns the slower (bottleneck) of two links: the minimum bandwidth
    /// and the maximum latency.
    pub fn bottleneck(&self, other: &LinkSpec) -> LinkSpec {
        LinkSpec {
            bandwidth: self.bandwidth.min(other.bandwidth),
            latency: self.latency.max(other.latency),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a800_spec_is_valid() {
        let gpu = GpuSpec::a800_80gb();
        assert!(gpu.validate().is_ok());
        assert!(gpu.effective_flops() > 100e12);
        assert!(gpu.effective_bandwidth() > 1000.0 * GB);
    }

    #[test]
    fn all_presets_are_valid() {
        // The A800 is the one GPU preset.
        let gpu = GpuSpec::a800_80gb();
        assert!(gpu.validate().is_ok(), "{} failed validation", gpu.name);
    }

    #[test]
    fn invalid_spec_is_rejected() {
        let mut gpu = GpuSpec::a800_80gb();
        gpu.compute_efficiency = 1.5;
        assert!(gpu.validate().is_err());
        let mut gpu = GpuSpec::a800_80gb();
        gpu.peak_flops = 0.0;
        assert!(gpu.validate().is_err());
    }

    #[test]
    fn link_transfer_time_is_alpha_beta() {
        let link = LinkSpec::new(100.0 * GB, 5e-6);
        let t = link.transfer_time(100.0 * GB);
        assert!((t - 1.000005).abs() < 1e-9);
        assert_eq!(link.transfer_time(0.0), 0.0);
    }

    #[test]
    fn pcie_sits_between_nvlink_and_ib() {
        // D2H swap bandwidth: slower than intra-node NVLink, faster than the
        // per-pair share of the inter-node fabric.
        let pcie = LinkSpec::pcie_gen4_x16();
        assert!(pcie.bandwidth < LinkSpec::nvlink_a800().bandwidth);
        assert!(pcie.bandwidth > LinkSpec::infiniband_4x200g().bandwidth);
        // Swapping a 1M-token LWM KV cache (~488 GB) over PCIe takes tens of
        // seconds — the reason swap is a last resort, not a free lunch.
        let t = pcie.transfer_time(488.0 * GB);
        assert!(t > 10.0, "expected tens of seconds, got {t}");
    }

    #[test]
    fn nvlink_is_faster_than_ib() {
        let nv = LinkSpec::nvlink_a800();
        let ib = LinkSpec::infiniband_4x200g();
        let bytes = 1.0 * GB;
        assert!(nv.transfer_time(bytes) < ib.transfer_time(bytes));
    }

    #[test]
    fn bottleneck_takes_worst_of_both() {
        let nv = LinkSpec::nvlink_a800();
        let ib = LinkSpec::infiniband_4x200g();
        let b = nv.bottleneck(&ib);
        assert_eq!(b.bandwidth, ib.bandwidth);
        assert_eq!(b.latency, ib.latency);
    }
}
