//! The queryable profile produced by a profiling run.

use std::collections::BTreeMap;

use exegpt_units::Secs;
use serde::{Deserialize, Serialize};

use crate::error::ProfileError;
use crate::grid::{Cell, Grid1D, Grid2D, Line, Piece, SlopedCell};

/// Per-tensor-parallel-degree sweep tables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct TpTables {
    /// Encode attention kernel time over (batch, seq).
    pub enc_attn: Grid2D,
    /// Encode non-attention time over total tokens (batch × seq).
    pub enc_rest: Grid1D,
    /// Encode-layer tensor-parallel sync time over total tokens
    /// (2 all-reduces per encoder layer, after Megatron).
    pub enc_sync: Grid1D,
    /// Decode self-attention kernel time over (batch, context length).
    pub dec_attn: Grid2D,
    /// Decode cross-attention kernel time over (batch, input length);
    /// present only for encoder–decoder models.
    pub dec_cross: Option<Grid2D>,
    /// Decode non-attention time over batch size.
    pub dec_rest: Grid1D,
    /// Decode-layer tensor-parallel sync time over batch size
    /// (3 all-reduces per decoder layer).
    pub dec_sync: Grid1D,
}

/// Execution-time profile of a single encoder/decoder layer on a specific
/// (model, cluster) pair, across all profiled tensor-parallel degrees.
///
/// Built by [`Profiler::run`](crate::Profiler::run); queried by the
/// simulator and runner. All returned times are typed [`Secs`] and refer to
/// *one* layer; callers multiply by per-stage layer counts. The underlying
/// interpolation grids store raw seconds (`f64`) — the typed boundary is the
/// query methods.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerProfile {
    pub(crate) model_name: String,
    pub(crate) cluster_name: String,
    pub(crate) per_tp: BTreeMap<usize, TpTables>,
    /// Pipeline-stage handoff time over tokens transferred, intra-node.
    pub(crate) handoff_intra: Grid1D,
    /// Pipeline-stage handoff time over tokens transferred, inter-node.
    pub(crate) handoff_inter: Grid1D,
    /// Time to move one token's KV entry for one layer from an encoding
    /// GPU to a decoding GPU via CPU staging (WAA handover, §3).
    pub(crate) kv_transfer_per_token_layer: Secs,
    /// Largest batch size swept (upper bound for scheduler search ranges).
    pub(crate) max_batch: usize,
    /// Largest sequence/context length swept.
    pub(crate) max_seq: usize,
}

impl LayerProfile {
    /// Name of the profiled model.
    pub fn model_name(&self) -> &str {
        &self.model_name
    }

    /// Name of the profiled cluster.
    pub fn cluster_name(&self) -> &str {
        &self.cluster_name
    }

    /// The tensor-parallel degrees this profile was swept over.
    pub fn tp_degrees(&self) -> Vec<usize> {
        self.per_tp.keys().copied().collect()
    }

    /// Largest batch size covered by the sweep.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Largest sequence length covered by the sweep.
    pub fn max_seq(&self) -> usize {
        self.max_seq
    }

    #[inline]
    fn tables(&self, tp: usize) -> Result<&TpTables, ProfileError> {
        self.per_tp.get(&tp).ok_or_else(|| ProfileError::UnprofiledTpDegree {
            requested: tp,
            available: self.tp_degrees(),
        })
    }

    /// Time for one layer to *encode* `batch` sequences of `seq` tokens at
    /// tensor-parallel degree `tp` (attention + rest + TP sync).
    ///
    /// Fractional `batch`/`seq` are allowed: the simulator evaluates
    /// expected micro-batch sizes that need not be whole queries.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::UnprofiledTpDegree`] if `tp` was not swept.
    #[inline]
    pub fn encode_layer_time(&self, batch: f64, seq: f64, tp: usize) -> Result<Secs, ProfileError> {
        let t = self.tables(tp)?;
        let tokens = batch * seq;
        Ok(Secs::new(
            t.enc_attn.eval(batch, seq) + t.enc_rest.eval(tokens) + t.enc_sync.eval(tokens),
        ))
    }

    /// Time for one layer to run one *decode* iteration for `batch` queries
    /// whose mean total context is `ctx` tokens, with `input_len` cached
    /// input tokens for cross-attention (ignored for decoder-only models),
    /// at tensor-parallel degree `tp`.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::UnprofiledTpDegree`] if `tp` was not swept.
    #[inline]
    pub fn decode_layer_time(
        &self,
        batch: f64,
        ctx: f64,
        input_len: f64,
        tp: usize,
    ) -> Result<Secs, ProfileError> {
        let t = self.tables(tp)?;
        let cross = t.dec_cross.as_ref().map_or(0.0, |g| g.eval(batch, input_len));
        Ok(Secs::new(
            t.dec_attn.eval(batch, ctx) + cross + t.dec_rest.eval(batch) + t.dec_sync.eval(batch),
        ))
    }

    /// The per-stage decode bottleneck term
    /// `layers · decode_layer_time(batch) + handoff_time(batch)` at fixed
    /// context/input lengths, TP degree and link, as one function of the
    /// batch size (see [`DecodeStageGrid`]).
    ///
    /// This is the simulator's hot-loop hook: one lookup per pipeline-stage
    /// class per decode iteration instead of four.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::UnprofiledTpDegree`] if `tp` was not swept.
    pub fn decode_stage_grid(
        &self,
        ctx: f64,
        input_len: f64,
        tp: usize,
        layers: f64,
        intra_node: bool,
    ) -> Result<DecodeStageGrid, ProfileError> {
        let t = self.tables(tp)?;
        let handoff = if intra_node { &self.handoff_intra } else { &self.handoff_inter };
        let mut knots: Vec<f64> = t
            .dec_attn
            .xs()
            .iter()
            .chain(t.dec_cross.as_ref().map_or(&[][..], |g| g.xs()))
            .chain(t.dec_rest.xs())
            .chain(t.dec_sync.xs())
            .chain(handoff.xs())
            .copied()
            .collect();
        knots.sort_by(f64::total_cmp);
        knots.dedup();
        let ys = knots
            .iter()
            .map(|&b| {
                Ok((self.decode_layer_time(b, ctx, input_len, tp)? * layers
                    + self.handoff_time(b, intra_node))
                .as_secs())
            })
            .collect::<Result<Vec<_>, ProfileError>>()?;
        // Below the lowest knot every component table is on its first
        // segment, above the highest on its last.
        let edge = |last: bool| {
            let seg = |last_segment: usize| if last { last_segment } else { 0 };
            StageEdge {
                attn: t.dec_attn.cell(seg(t.dec_attn.last_segment()), ctx),
                cross: t.dec_cross.as_ref().map(|g| g.cell(seg(g.last_segment()), input_len)),
                rest: t.dec_rest.piece(seg(t.dec_rest.last_segment())),
                sync: t.dec_sync.piece(seg(t.dec_sync.last_segment())),
                handoff: handoff.piece(seg(handoff.last_segment())),
                layers,
            }
        };
        let (below, above) = (edge(false), edge(true));
        Ok(DecodeStageGrid { grid: Grid1D::new(knots, ys)?, below, above })
    }

    /// Pipeline-stage handoff time for an activation tensor of
    /// `tokens` tokens (`intra_node` selects the link).
    #[inline]
    pub fn handoff_time(&self, tokens: f64, intra_node: bool) -> Secs {
        Secs::new(if intra_node {
            self.handoff_intra.eval(tokens)
        } else {
            self.handoff_inter.eval(tokens)
        })
    }

    /// Time to transfer the KV-cache entries of `tokens` tokens across
    /// `layers` layers from encoding GPUs to decoding GPUs via CPU staging
    /// (WAA handover).
    pub fn kv_transfer_time(&self, tokens: f64, layers: usize) -> Secs {
        self.kv_transfer_per_token_layer * (tokens * layers as f64)
    }
}

/// One pipeline stage's decode term
/// `layers · decode_layer_time(batch) + handoff_time(batch)` over the batch
/// size, at the fixed context/input lengths, TP degree, layer count and
/// link it was built for by [`LayerProfile::decode_stage_grid`].
///
/// Every addend is piecewise-linear in the batch size, so on the union of
/// their knots the sum is too. Within the knots the term is one collapsed
/// 1-D grid: the same function as the individual lookups, exactly at the
/// knots and up to floating-point association in between. Outside them
/// the collapsed grid would extrapolate the *sum*, while the individual
/// lookups clamp each component at zero separately. There every component
/// sits on a fixed segment, its first below the knots and its last above,
/// so the term is evaluated from those segments, precomputed: the same
/// float operations in the same order as the individual lookups, hence the
/// same bits, without their binary searches.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeStageGrid {
    grid: Grid1D,
    below: StageEdge,
    above: StageEdge,
}

impl DecodeStageGrid {
    /// The knots: the union of the component tables' batch samples. A hook
    /// for tests that probe each region; the simulator needs only
    /// [`covers`](Self::covers).
    #[doc(hidden)]
    pub fn knots(&self) -> &[f64] {
        self.grid.xs()
    }

    /// Whether `batch` lies within the knots, where the term is read from
    /// the collapsed grid and may differ from the individual lookups by
    /// floating-point association. Outside it is bit-identical to them.
    #[inline]
    pub fn covers(&self, batch: f64) -> bool {
        let xs = self.grid.xs();
        batch >= xs[0] && batch <= xs[xs.len() - 1]
    }

    /// The term at `batch`: the scalar reference for
    /// [`fold_max`](Self::fold_max).
    pub fn eval(&self, batch: f64) -> Secs {
        let xs = self.grid.xs();
        if batch > xs[xs.len() - 1] {
            self.above.eval(batch)
        } else if batch >= xs[0] {
            Secs::new(self.grid.eval(batch))
        } else {
            // Below the knots, or NaN, which every lookup sends to its
            // first segment.
            self.below.eval(batch)
        }
    }

    /// Raises each `worst[i]` to the term at `batches[i]`: the batched
    /// [`eval`](Self::eval) behind the simulator's decode loop.
    ///
    /// Precondition: `batches` does not increase (a decode phase's
    /// micro-batch only shrinks), and has one entry per `worst` entry.
    /// Then the above-knot batches are a prefix, the below-knot ones a
    /// suffix, and each collapsed-grid segment a run in between, so the
    /// fold walks the regions in order with each segment's piece, and each
    /// edge's cell and pieces, matched once outside the loop. Debug builds
    /// assert the order.
    ///
    /// Each entry becomes `if term > worst[i] { term } else { worst[i] }`.
    /// That is bit for bit `worst[i].max(self.eval(batches[i]))` (the
    /// total order of [`Secs::max`]) whenever `worst[i]` is `+0.0` or a
    /// larger term: the two orders differ only on NaN and on zeros of
    /// opposite sign, a term is never NaN (every component is clamped at
    /// zero or a finite table value), and a worst that starts at `+0.0` is
    /// only ever replaced by a larger term.
    pub fn fold_max(&self, batches: &[f64], worst: &mut [Secs]) {
        debug_assert_eq!(batches.len(), worst.len(), "one worst term per batch");
        debug_assert!(batches.windows(2).all(|w| w[0] >= w[1]), "batches must not increase");
        let n = batches.len().min(worst.len());
        let xs = self.grid.xs();
        let (lo, hi) = (xs[0], xs[xs.len() - 1]);
        let mut i = batches[..n].iter().take_while(|&&b| b > hi).count();
        self.above.fold_max(&batches[..i], &mut worst[..i]);
        // Within the knots: walk down the collapsed grid's segments. `seg`
        // ends as `Grid1D::segment(batches[i])`: the last knot at or below
        // it, clamped to the last segment; the batches after it down to
        // that knot share the segment.
        let mut seg = self.grid.last_segment();
        while i < n && batches[i] >= lo {
            while seg > 0 && xs[seg] > batches[i] {
                seg -= 1;
            }
            let x0 = xs[seg];
            let end = i + batches[i..n].iter().take_while(|&&b| b >= x0).count();
            let (batches, worst) = (&batches[i..end], &mut worst[i..end]);
            match self.grid.piece(seg) {
                Piece::Constant(y) => worst.iter_mut().for_each(|w| raise(w, Secs::new(y))),
                Piece::Linear(line) => {
                    for (w, &b) in worst.iter_mut().zip(batches) {
                        raise(w, Secs::new(line.eval(b)));
                    }
                }
            }
            i = end;
        }
        self.below.fold_max(&batches[i..n], &mut worst[i..n]);
    }
}

/// `*worst = if term > *worst { term } else { *worst }`, in IEEE order (see
/// [`DecodeStageGrid::fold_max`] for when it agrees with [`Secs::max`]).
#[inline]
fn raise(worst: &mut Secs, term: Secs) {
    if term.as_secs() > worst.as_secs() {
        *worst = term;
    }
}

/// The stage term with every component table on one fixed segment.
#[derive(Debug, Clone, Copy, PartialEq)]
struct StageEdge {
    attn: Cell,
    cross: Option<Cell>,
    rest: Piece,
    sync: Piece,
    handoff: Piece,
    layers: f64,
}

impl StageEdge {
    /// `decode_layer_time(batch) * layers + handoff_time(batch)`, written
    /// as those two methods write it.
    #[inline]
    fn eval(&self, batch: f64) -> Secs {
        let cross = self.cross.map_or(0.0, |c| c.eval(batch));
        let t_layer = Secs::new(
            self.attn.eval(batch) + cross + self.rest.eval(batch) + self.sync.eval(batch),
        );
        t_layer * self.layers + Secs::new(self.handoff.eval(batch))
    }

    /// [`DecodeStageGrid::fold_max`] over batches on this edge. When every
    /// component is a sloped segment (the profiles' multi-knot tables) the
    /// matches are hoisted out of the loop; otherwise each batch takes
    /// [`eval`](Self::eval).
    fn fold_max(&self, batches: &[f64], worst: &mut [Secs]) {
        if batches.is_empty() {
            return;
        }
        let linear = match (self.attn.sloped(), self.rest, self.sync, self.handoff) {
            (Some(attn), Piece::Linear(rest), Piece::Linear(sync), Piece::Linear(handoff)) => {
                Some(LinearEdge { attn, rest, sync, handoff, layers: self.layers })
            }
            _ => None,
        };
        match (linear, self.cross.map(Cell::sloped)) {
            (Some(edge), None) => edge.fold_max(|_| 0.0, batches, worst),
            (Some(edge), Some(Some(cross))) => edge.fold_max(|b| cross.eval(b), batches, worst),
            _ => {
                for (w, &b) in worst.iter_mut().zip(batches) {
                    raise(w, self.eval(b));
                }
            }
        }
    }
}

/// A [`StageEdge`] whose components are all sloped segments.
#[derive(Clone, Copy)]
struct LinearEdge {
    attn: SlopedCell,
    rest: Line,
    sync: Line,
    handoff: Line,
    layers: f64,
}

impl LinearEdge {
    /// The fold with [`StageEdge::eval`]'s float operations in its order;
    /// `cross` is the cross-attention cell's value, or `0.0`.
    #[inline]
    fn fold_max(self, cross: impl Fn(f64) -> f64, batches: &[f64], worst: &mut [Secs]) {
        for (w, &b) in worst.iter_mut().zip(batches) {
            let t_layer =
                Secs::new(self.attn.eval(b) + cross(b) + self.rest.eval(b) + self.sync.eval(b));
            raise(w, t_layer * self.layers + Secs::new(self.handoff.eval(b)));
        }
    }
}
