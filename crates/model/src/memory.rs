//! Memory accounting: parameters, key/value caches, activations.
//!
//! The WAA-M allocation policy (§4.1) and the memory-overhead evaluation
//! (Figure 9) are driven entirely by these quantities.

use serde::Serialize;

use crate::config::{LayerKind, ModelConfig};

/// A breakdown of device-memory consumption in bytes.
///
/// # Example
///
/// ```
/// use exegpt_model::MemoryFootprint;
///
/// let fp = MemoryFootprint { param_bytes: 10, kv_bytes: 5, activation_bytes: 1 };
/// assert_eq!(fp.total(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct MemoryFootprint {
    /// Bytes held by model parameters.
    pub param_bytes: u64,
    /// Bytes held by key/value caches.
    pub kv_bytes: u64,
    /// Bytes held by transient activations.
    pub activation_bytes: u64,
}

impl MemoryFootprint {
    /// Total bytes across all categories.
    pub fn total(&self) -> u64 {
        self.param_bytes + self.kv_bytes + self.activation_bytes
    }

    /// Component-wise sum of two footprints.
    pub fn and(self, other: MemoryFootprint) -> MemoryFootprint {
        MemoryFootprint {
            param_bytes: self.param_bytes + other.param_bytes,
            kv_bytes: self.kv_bytes + other.kv_bytes,
            activation_bytes: self.activation_bytes + other.activation_bytes,
        }
    }
}

impl ModelConfig {
    /// Self-attention KV-cache bytes per token, per layer (`2 · d_attn ·
    /// dtype_bytes` — one key and one value vector).
    pub fn kv_bytes_per_token_per_layer(&self) -> u64 {
        2 * self.d_attn() as u64 * self.dtype_bytes() as u64
    }

    /// Self-attention KV-cache bytes for `batch` queries with `ctx` cached
    /// tokens each, across `layers` layers.
    pub fn kv_cache_bytes(&self, batch: usize, ctx: usize, layers: usize) -> u64 {
        self.kv_bytes_per_token_per_layer() * batch as u64 * ctx as u64 * layers as u64
    }

    /// Cross-attention KV-cache bytes for `batch` inputs of `input_len`
    /// tokens across `layers` decoder layers (encoder–decoder models only;
    /// returns 0 otherwise).
    pub fn cross_kv_cache_bytes(&self, batch: usize, input_len: usize, layers: usize) -> u64 {
        if self.has_cross_attention(LayerKind::Decoder) {
            self.kv_bytes_per_token_per_layer() * batch as u64 * input_len as u64 * layers as u64
        } else {
            0
        }
    }

    /// Parameter bytes of a contiguous run of `layers` layers of one kind.
    pub fn layer_run_param_bytes(&self, layer: LayerKind, layers: usize) -> u64 {
        self.layer_param_count(layer) * layers as u64 * self.dtype_bytes() as u64
    }

    /// Peak transient activation bytes for a micro-batch of `batch` sequences
    /// of length `seq` flowing through one layer (residual stream + the
    /// feed-forward inner activation, double-buffered).
    pub fn activation_bytes(&self, batch: usize, seq: usize) -> u64 {
        let tokens = batch as u64 * seq as u64;
        let dt = self.dtype_bytes() as u64;
        tokens * (2 * self.d_model() as u64 + self.d_ff() as u64) * dt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_cache_scales_with_everything() {
        let m = ModelConfig::opt_13b();
        let base = m.kv_cache_bytes(1, 1, 1);
        assert_eq!(base, 2 * 5120 * 2);
        assert_eq!(m.kv_cache_bytes(4, 3, 2), base * 24);
    }

    #[test]
    fn cross_kv_zero_for_decoder_only() {
        let m = ModelConfig::gpt3_101b();
        assert_eq!(m.cross_kv_cache_bytes(8, 128, 40), 0);
        let t5 = ModelConfig::t5_11b();
        assert!(t5.cross_kv_cache_bytes(8, 128, 24) > 0);
    }

    #[test]
    fn footprint_total_and_sum() {
        let a = MemoryFootprint { param_bytes: 1, kv_bytes: 2, activation_bytes: 3 };
        let b = MemoryFootprint { param_bytes: 10, kv_bytes: 20, activation_bytes: 30 };
        assert_eq!(a.total(), 6);
        assert_eq!(a.and(b).total(), 66);
    }

    #[test]
    fn param_bytes_match_fp16() {
        let m = ModelConfig::gpt3_175b();
        assert_eq!(m.param_bytes(), m.param_count() * 2);
    }
}
