//! Floating-point and byte-traffic accounting for transformer kernels.
//!
//! Costs are split the same way the paper's XProfiler splits its measurements
//! (§3): the *attention kernel* (whose cost depends on batch size **and**
//! sequence length) and the *rest of the layer* (projections + feed-forward,
//! whose cost depends only on the total number of tokens, i.e. batch ×
//! length). The cluster crate's roofline model turns a [`KernelCost`] into
//! seconds.
//!
//! Conventions: one multiply-accumulate = 2 FLOPs; weights are streamed from
//! HBM once per kernel invocation; the attention cache is re-read every
//! decoding iteration (this is what makes decoding memory-bound, the effect
//! at the heart of the paper's diminishing-batch problem).

use crate::config::{LayerKind, ModelConfig};

/// Work descriptor for one kernel invocation: compute and memory traffic.
///
/// A passive value consumed by the cluster cost model.
///
/// # Example
///
/// ```
/// use exegpt_model::ModelConfig;
///
/// let m = ModelConfig::opt_13b();
/// let enc = m.encode_rest_cost(8, 128);
/// let dec = m.decode_rest_cost(8);
/// // Encoding 128 tokens/query does ~128x the compute of decoding 1 token.
/// assert!(enc.flops / dec.flops > 100.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KernelCost {
    /// Floating-point operations.
    pub flops: f64,
    /// Bytes moved to/from device memory.
    pub bytes: f64,
}

impl KernelCost {
    /// Sum of two kernel costs (executed back to back).
    pub fn and(self, other: KernelCost) -> KernelCost {
        KernelCost { flops: self.flops + other.flops, bytes: self.bytes + other.bytes }
    }

    /// Cost scaled by a factor (e.g. per-layer cost × layer count).
    pub fn scaled(self, k: f64) -> KernelCost {
        KernelCost { flops: self.flops * k, bytes: self.bytes * k }
    }
}

impl ModelConfig {
    /// Attention-kernel cost of *encoding* `batch` sequences of length `seq`
    /// through one layer: the `QK^T` and `AV` batched matmuls.
    ///
    /// FLOPs are `4·B·S²·d_attn` (two matmuls, 2 FLOPs/MAC); byte traffic
    /// assumes a fused (flash-style) kernel that never materializes the `S²`
    /// score matrix, so it reads Q/K/V and writes the context vector.
    pub fn encode_attention_cost(&self, batch: usize, seq: usize) -> KernelCost {
        let b = batch as f64;
        let s = seq as f64;
        let da = self.d_attn() as f64;
        let dt = self.dtype_bytes() as f64;
        KernelCost { flops: 4.0 * b * s * s * da, bytes: 4.0 * b * s * da * dt }
    }

    /// Non-attention cost of *encoding* `batch` sequences of length `seq`
    /// through one layer: Q/K/V/O projections plus the feed-forward block.
    ///
    /// Depends only on the token count `batch·seq`, matching the paper's
    /// observation that the profiler can sweep "input sizes" for this part.
    pub fn encode_rest_cost(&self, batch: usize, seq: usize) -> KernelCost {
        let tokens = (batch * seq) as f64;
        let d = self.d_model() as f64;
        let da = self.d_attn() as f64;
        let dff = self.d_ff() as f64;
        let dt = self.dtype_bytes() as f64;
        let proj_flops = 2.0 * tokens * 4.0 * d * da;
        let ffn_flops = 2.0 * tokens * 2.0 * d * dff;
        let weight_bytes = (4.0 * d * da + 2.0 * d * dff) * dt;
        let act_bytes = 4.0 * tokens * d * dt;
        KernelCost { flops: proj_flops + ffn_flops, bytes: weight_bytes + act_bytes }
    }

    /// Attention-kernel cost of one *decoding* iteration for `batch` queries
    /// whose current total context length (input + generated so far) is
    /// `ctx`, plus cross-attention over `input_len` cached input tokens for
    /// encoder–decoder models.
    ///
    /// With the incremental-decoding KV cache only the single new token
    /// attends over the cache, so FLOPs are `4·B·ctx·d_attn` but the *entire*
    /// cache (`2·B·ctx·d_attn` elements) must be re-read — the memory-bound
    /// regime that motivates large decoding batches.
    pub fn decode_attention_cost(
        &self,
        layer: LayerKind,
        batch: usize,
        ctx: usize,
        input_len: usize,
    ) -> KernelCost {
        let b = batch as f64;
        let l = ctx as f64;
        let da = self.d_attn() as f64;
        let dt = self.dtype_bytes() as f64;
        let mut flops = 4.0 * b * l * da;
        let mut bytes = 2.0 * b * l * da * dt + 4.0 * b * da * dt;
        if self.has_cross_attention(layer) {
            let s_in = input_len as f64;
            flops += 4.0 * b * s_in * da;
            bytes += 2.0 * b * s_in * da * dt;
        }
        KernelCost { flops, bytes }
    }

    /// Non-attention cost of one *decoding* iteration for `batch` queries
    /// through one layer (projections + feed-forward for a single new token
    /// per query).
    ///
    /// The layer's weights are streamed once regardless of batch size, so at
    /// small batches this kernel is weight-bandwidth-bound and batching is
    /// nearly free — the effect the RRA/WAA strategies exploit.
    pub fn decode_rest_cost(&self, batch: usize) -> KernelCost {
        let b = batch as f64;
        let d = self.d_model() as f64;
        let da = self.d_attn() as f64;
        let dff = self.d_ff() as f64;
        let dt = self.dtype_bytes() as f64;
        let proj_flops = 2.0 * b * 4.0 * d * da;
        let ffn_flops = 2.0 * b * 2.0 * d * dff;
        let weight_bytes = (4.0 * d * da + 2.0 * d * dff) * dt;
        let act_bytes = 4.0 * b * d * dt;
        KernelCost { flops: proj_flops + ffn_flops, bytes: weight_bytes + act_bytes }
    }

    /// Extra per-iteration cost of the cross-attention *projections*
    /// (query/output) in decoder layers of encoder–decoder models.
    ///
    /// Returns a zero cost for decoder-only models.
    pub fn cross_projection_cost(&self, layer: LayerKind, batch: usize) -> KernelCost {
        if !self.has_cross_attention(layer) {
            return KernelCost::default();
        }
        let b = batch as f64;
        let d = self.d_model() as f64;
        let da = self.d_attn() as f64;
        let dt = self.dtype_bytes() as f64;
        KernelCost { flops: 2.0 * b * 2.0 * d * da, bytes: 2.0 * d * da * dt + 2.0 * b * d * dt }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_rest_scales_linearly_in_tokens() {
        let m = ModelConfig::opt_13b();
        let a = m.encode_rest_cost(4, 64);
        let b = m.encode_rest_cost(8, 64);
        assert!((b.flops / a.flops - 2.0).abs() < 1e-12);
    }

    #[test]
    fn encode_attention_scales_quadratically_in_seq() {
        let m = ModelConfig::opt_13b();
        let a = m.encode_attention_cost(1, 64);
        let b = m.encode_attention_cost(1, 128);
        assert!((b.flops / a.flops - 4.0).abs() < 1e-12);
    }

    #[test]
    fn decode_rest_weight_bytes_independent_of_batch() {
        let m = ModelConfig::gpt3_39b();
        let a = m.decode_rest_cost(1);
        let b = m.decode_rest_cost(64);
        // Weight streaming dominates; byte growth is far less than 64x.
        assert!(b.bytes / a.bytes < 2.0);
        // But FLOPs do scale with batch.
        assert!((b.flops / a.flops - 64.0).abs() < 1e-9);
    }

    #[test]
    fn decode_attention_reads_entire_cache() {
        let m = ModelConfig::opt_13b();
        let short = m.decode_attention_cost(LayerKind::Decoder, 8, 64, 0);
        let long = m.decode_attention_cost(LayerKind::Decoder, 8, 640, 0);
        assert!(long.bytes > 8.0 * short.bytes);
    }

    #[test]
    fn cross_attention_costs_zero_for_decoder_only() {
        let m = ModelConfig::gpt3_175b();
        assert_eq!(m.cross_projection_cost(LayerKind::Decoder, 16), KernelCost::default());
    }

    #[test]
    fn cross_attention_costs_nonzero_for_t5_decoder() {
        let m = ModelConfig::t5_11b();
        assert!(m.cross_projection_cost(LayerKind::Decoder, 16).flops > 0.0);
        assert!(
            m.decode_attention_cost(LayerKind::Decoder, 4, 10, 100).flops
                > m.decode_attention_cost(LayerKind::Decoder, 4, 10, 0).flops
        );
    }

    #[test]
    fn kernel_cost_combinators() {
        let a = KernelCost { flops: 1.0, bytes: 2.0 };
        let b = KernelCost { flops: 3.0, bytes: 4.0 };
        assert_eq!(a.and(b), KernelCost { flops: 4.0, bytes: 6.0 });
        assert_eq!(a.scaled(2.0), KernelCost { flops: 2.0, bytes: 4.0 });
    }
}
