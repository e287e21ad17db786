//! Model configuration types.

use serde::Serialize;

use crate::error::ModelError;

/// Structural family of a transformer model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ModelKind {
    /// Encoder–decoder models such as T5/UL2: dedicated encoder layers encode
    /// the input once, decoder layers (with cross-attention) generate output.
    EncoderDecoder,
    /// Decoder-only models such as OPT/GPT-3: the same decoder layers perform
    /// both input encoding (prefill) and output decoding.
    DecoderOnly,
}

/// Role of a single transformer layer.
///
/// For [`ModelKind::DecoderOnly`] every layer is a [`LayerKind::Decoder`]; the
/// *phase* (encoding vs. decoding) is a property of the work, not the layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum LayerKind {
    /// Encoder layer: self-attention + feed-forward.
    Encoder,
    /// Decoder layer: self-attention (+ cross-attention for encoder–decoder
    /// models) + feed-forward.
    Decoder,
}

/// Static description of a transformer model's shape.
///
/// Dimensions follow Table 1 of the paper. Two extra degrees of freedom are
/// carried explicitly because T5-11B needs them: `d_attn` (the total inner
/// dimension of the attention projections, `num_heads * head_dim`, which for
/// T5 is 16× `d_model`) and `d_ff` (the feed-forward inner dimension, 64×
/// `d_model` for T5, 4× for OPT/GPT-3).
///
/// # Example
///
/// ```
/// use exegpt_model::{ModelConfig, ModelKind};
///
/// let gpt = ModelConfig::gpt3_175b();
/// assert_eq!(gpt.kind(), ModelKind::DecoderOnly);
/// assert_eq!(gpt.num_layers(), 96);
/// assert_eq!(gpt.head_dim(), 128);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ModelConfig {
    name: String,
    kind: ModelKind,
    num_layers: usize,
    d_model: usize,
    d_attn: usize,
    d_ff: usize,
    num_heads: usize,
    vocab_size: usize,
    max_seq_len: usize,
    dtype_bytes: usize,
}

impl ModelConfig {
    /// Creates a model configuration, validating dimensional invariants.
    ///
    /// `num_layers` is the *total* layer count as reported in Table 1 of the
    /// paper; for encoder–decoder models it is split evenly into encoders and
    /// decoders.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidDimension`] if any dimension is zero, if
    /// `d_attn` is not divisible by `num_heads`, or if an encoder–decoder
    /// model has an odd `num_layers`.
    #[expect(clippy::too_many_arguments, reason = "one argument per architecture dimension")]
    pub fn new(
        name: impl Into<String>,
        kind: ModelKind,
        num_layers: usize,
        d_model: usize,
        d_attn: usize,
        d_ff: usize,
        num_heads: usize,
        vocab_size: usize,
        max_seq_len: usize,
        dtype_bytes: usize,
    ) -> Result<Self, ModelError> {
        let name = name.into();
        let dims = [
            ("num_layers", num_layers),
            ("d_model", d_model),
            ("d_attn", d_attn),
            ("d_ff", d_ff),
            ("num_heads", num_heads),
            ("vocab_size", vocab_size),
            ("max_seq_len", max_seq_len),
            ("dtype_bytes", dtype_bytes),
        ];
        for (what, v) in dims {
            if v == 0 {
                return Err(ModelError::InvalidDimension { what, why: "must be non-zero" });
            }
        }
        if !d_attn.is_multiple_of(num_heads) {
            return Err(ModelError::InvalidDimension {
                what: "d_attn",
                why: "must be divisible by num_heads",
            });
        }
        if kind == ModelKind::EncoderDecoder && !num_layers.is_multiple_of(2) {
            return Err(ModelError::InvalidDimension {
                what: "num_layers",
                why: "encoder-decoder models need an even total layer count",
            });
        }
        Ok(Self {
            name,
            kind,
            num_layers,
            d_model,
            d_attn,
            d_ff,
            num_heads,
            vocab_size,
            max_seq_len,
            dtype_bytes,
        })
    }

    /// Human-readable model name, e.g. `"GPT-3 175B"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Structural family.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Total number of transformer layers (encoders + decoders).
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// Number of encoder layers (0 for decoder-only models).
    pub fn num_encoder_layers(&self) -> usize {
        match self.kind {
            ModelKind::EncoderDecoder => self.num_layers / 2,
            ModelKind::DecoderOnly => 0,
        }
    }

    /// Number of decoder layers.
    ///
    /// For decoder-only models this is all layers; they also perform the
    /// encoding (prefill) phase.
    pub fn num_decoder_layers(&self) -> usize {
        match self.kind {
            ModelKind::EncoderDecoder => self.num_layers / 2,
            ModelKind::DecoderOnly => self.num_layers,
        }
    }

    /// Hidden (residual-stream) dimension.
    pub fn d_model(&self) -> usize {
        self.d_model
    }

    /// Total attention projection dimension (`num_heads * head_dim`).
    pub fn d_attn(&self) -> usize {
        self.d_attn
    }

    /// Feed-forward inner dimension.
    pub fn d_ff(&self) -> usize {
        self.d_ff
    }

    /// Number of attention heads.
    pub fn num_heads(&self) -> usize {
        self.num_heads
    }

    /// Per-head dimension (`d_attn / num_heads`).
    pub fn head_dim(&self) -> usize {
        self.d_attn / self.num_heads
    }

    /// Vocabulary size used for embedding/unembedding accounting.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Maximum supported total sequence length (input + output).
    pub fn max_seq_len(&self) -> usize {
        self.max_seq_len
    }

    /// Bytes per parameter/activation element (2 for FP16).
    pub fn dtype_bytes(&self) -> usize {
        self.dtype_bytes
    }

    /// Whether a layer of the given kind carries a cross-attention block.
    ///
    /// Only decoder layers of encoder–decoder models do.
    pub fn has_cross_attention(&self, layer: LayerKind) -> bool {
        self.kind == ModelKind::EncoderDecoder && layer == LayerKind::Decoder
    }

    /// Parameter count of a single layer of the given kind.
    ///
    /// Attention projections contribute `4 * d_model * d_attn` (Q, K, V, O),
    /// cross-attention (when present) another `4 * d_model * d_attn`, and the
    /// feed-forward block `2 * d_model * d_ff`. Layer norms and biases are
    /// counted (`~4 * d_model`) for completeness though they are negligible.
    pub fn layer_param_count(&self, layer: LayerKind) -> u64 {
        let d = self.d_model as u64;
        let da = self.d_attn as u64;
        let dff = self.d_ff as u64;
        let attn = 4 * d * da;
        let cross = if self.has_cross_attention(layer) { 4 * d * da } else { 0 };
        let ffn = 2 * d * dff;
        let norms = 4 * d;
        attn + cross + ffn + norms
    }

    /// Total parameter count, including the (un)embedding matrix.
    pub fn param_count(&self) -> u64 {
        let enc = self.num_encoder_layers() as u64 * self.layer_param_count(LayerKind::Encoder);
        let dec = self.num_decoder_layers() as u64 * self.layer_param_count(LayerKind::Decoder);
        let embed = self.vocab_size as u64 * self.d_model as u64;
        enc + dec + embed
    }

    /// Total parameter bytes in the configured precision.
    pub fn param_bytes(&self) -> u64 {
        self.param_count() * self.dtype_bytes as u64
    }

    /// Iterator over all layer kinds in execution order (encoders first).
    pub fn layers(&self) -> impl Iterator<Item = LayerKind> + '_ {
        let enc = self.num_encoder_layers();
        let dec = self.num_decoder_layers();
        std::iter::repeat_n(LayerKind::Encoder, enc)
            .chain(std::iter::repeat_n(LayerKind::Decoder, dec))
    }
}

impl std::fmt::Display for ModelConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_dimensions() {
        let err = ModelConfig::new("x", ModelKind::DecoderOnly, 0, 1, 1, 1, 1, 1, 1, 1)
            .expect_err("zero layers must be rejected");
        assert!(matches!(err, ModelError::InvalidDimension { what: "num_layers", .. }));
    }

    #[test]
    fn rejects_indivisible_heads() {
        let err = ModelConfig::new("x", ModelKind::DecoderOnly, 2, 8, 10, 32, 3, 100, 64, 2)
            .expect_err("d_attn % heads != 0 must be rejected");
        assert!(matches!(err, ModelError::InvalidDimension { what: "d_attn", .. }));
    }

    #[test]
    fn rejects_odd_encoder_decoder_layers() {
        let err = ModelConfig::new("x", ModelKind::EncoderDecoder, 3, 8, 8, 32, 2, 100, 64, 2)
            .expect_err("odd layer count must be rejected for enc-dec");
        assert!(matches!(err, ModelError::InvalidDimension { what: "num_layers", .. }));
    }

    #[test]
    fn encoder_decoder_split_is_even() {
        let m = ModelConfig::t5_11b();
        assert_eq!(m.num_encoder_layers(), 24);
        assert_eq!(m.num_decoder_layers(), 24);
        assert_eq!(m.num_layers(), 48);
    }

    #[test]
    fn decoder_only_has_no_encoders() {
        let m = ModelConfig::opt_13b();
        assert_eq!(m.num_encoder_layers(), 0);
        assert_eq!(m.num_decoder_layers(), m.num_layers());
    }

    #[test]
    fn cross_attention_only_in_enc_dec_decoders() {
        let t5 = ModelConfig::t5_11b();
        assert!(t5.has_cross_attention(LayerKind::Decoder));
        assert!(!t5.has_cross_attention(LayerKind::Encoder));
        let opt = ModelConfig::opt_13b();
        assert!(!opt.has_cross_attention(LayerKind::Decoder));
    }

    #[test]
    fn layers_iterator_orders_encoders_first() {
        let t5 = ModelConfig::t5_11b();
        let layers: Vec<_> = t5.layers().collect();
        assert_eq!(layers.len(), 48);
        assert!(layers[..24].iter().all(|&l| l == LayerKind::Encoder));
        assert!(layers[24..].iter().all(|&l| l == LayerKind::Decoder));
    }

    #[test]
    fn display_matches_name() {
        let m = ModelConfig::gpt3_39b();
        assert_eq!(m.to_string(), m.name());
    }
}
