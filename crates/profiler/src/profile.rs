//! The queryable profile produced by a profiling run.

use std::collections::BTreeMap;

use exegpt_units::Secs;

use crate::error::ProfileError;
use crate::grid::{Cell, Grid1D, Grid2D, Piece};

/// Per-tensor-parallel-degree sweep tables.
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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
    /// This is the simulator's decode hook: its RRA decode sum reads each
    /// stage class's term at the term's breakpoints, instead of four
    /// lookups per class and decode iteration.
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
        // Beyond the knots each edge is linear but for its components'
        // zero clamps, which join the knots as breakpoints. Both lists are
        // kept at their length: the knots were collected with duplicates.
        let grid = Grid1D::new(knots.clone(), ys)?;
        let (lo, hi) = (knots[0], knots[knots.len() - 1]);
        let mut breakpoints = knots;
        breakpoints.extend(below.roots().filter(|&r| r < lo));
        breakpoints.extend(above.roots().filter(|&r| r > hi));
        breakpoints.sort_by(f64::total_cmp);
        breakpoints.dedup();
        breakpoints.shrink_to_fit();
        Ok(DecodeStageGrid { grid, below, above, breakpoints })
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

    /// This profile with tables bent so that, beyond the knots, component
    /// lines reach zero at positive batch sizes: the first segments of the
    /// decode rest tables and of the handoff tables climb steeply from near
    /// zero, and the last segments of the TP sync tables fall slowly. A
    /// fixture for the tests of [`DecodeStageGrid::breakpoints`] and the
    /// simulator's decode sum, built through the grids' own constructor.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::InvalidAxis`] if a bent table is invalid.
    #[doc(hidden)]
    pub fn bent(&self) -> Result<LayerProfile, ProfileError> {
        let mut bent = self.clone();
        for tables in bent.per_tp.values_mut() {
            tables.dec_rest = tables.dec_rest.bent(true)?;
            tables.dec_sync = tables.dec_sync.bent(false)?;
        }
        bent.handoff_intra = bent.handoff_intra.bent(true)?;
        bent.handoff_inter = bent.handoff_inter.bent(true)?;
        Ok(bent)
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
///
/// The term is therefore one line between neighbouring
/// [`breakpoints`](Self::breakpoints): the knots, and the points beyond
/// them where a fixed segment reaches its zero clamp.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeStageGrid {
    grid: Grid1D,
    below: StageEdge,
    above: StageEdge,
    breakpoints: Vec<f64>,
}

impl DecodeStageGrid {
    /// The knots: the union of the component tables' batch samples. A hook
    /// for tests that probe each region; the simulator needs only
    /// [`covers`](Self::covers).
    #[doc(hidden)]
    pub fn knots(&self) -> &[f64] {
        self.grid.xs()
    }

    /// The batch sizes where the term may bend, ascending: the knots, and
    /// the zero clamps of the fixed segments below and above them. Between
    /// two neighbours, and past the first or the last, [`eval`](Self::eval)
    /// is linear in the batch size up to rounding.
    pub fn breakpoints(&self) -> &[f64] {
        &self.breakpoints
    }

    /// Whether `batch` lies within the knots, where the term is read from
    /// the collapsed grid and may differ from the individual lookups by
    /// floating-point association. Outside it is bit-identical to them.
    #[inline]
    pub fn covers(&self, batch: f64) -> bool {
        let xs = self.grid.xs();
        batch >= xs[0] && batch <= xs[xs.len() - 1]
    }

    /// The term at `batch`.
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

    /// Where each sloped component's line crosses zero, the only points
    /// where the edge's term bends.
    fn roots(&self) -> impl Iterator<Item = f64> {
        let cells = [Some(self.attn), self.cross].into_iter().flatten().map(Cell::root);
        let pieces = [self.rest, self.sync, self.handoff].into_iter().map(Piece::root);
        cells.chain(pieces).flatten().filter(|r| r.is_finite())
    }
}
