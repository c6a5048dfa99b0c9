//! Constrained FM-style k-way refinement (paper §IV-B/C).
//!
//! The refinement run during un-coarsening differs from METIS-style
//! boundary refinement in its move admissibility and objective: the
//! primary objective is *constraint satisfaction* — per-pair bandwidth
//! `Bmax` and per-part resources `Rmax` — and only secondarily the total
//! cut. A move is taken when it lexicographically improves
//! `(violation magnitude, total cut)`; moves that would create or worsen
//! a violation are inadmissible.
//!
//! ## Hot-path structure
//!
//! The sweep is *boundary-driven* in the style of modern multilevel
//! partitioners (kKaHyPar): instead of visiting every node every pass,
//! each pass visits only the current boundary nodes (maintained
//! incrementally by [`ppn_graph::Boundary`]) plus the nodes of parts
//! that violate `Rmax` — the only nodes that can have a strictly
//! improving move. Inner loops run off a [`Csr`] snapshot; all
//! bookkeeping is incremental:
//!
//! * [`ConstrainedState`] keeps the K×K traffic matrix, part weights,
//!   the total cut, and (when built with
//!   [`new_tracked`](ConstrainedState::new_tracked)) the violation
//!   magnitude up to date in O(degree) per applied move — no O(k²)
//!   rescans anywhere on the move path;
//! * move evaluation reads the mover's dense part-connectivity row and
//!   costs O(k), not O(degree);
//! * the pairwise-exchange repair pass evaluates a swap exactly as the
//!   composition of two single-move deltas on reusable k-length scratch
//!   buffers — no state clones, no allocation.
//!
//! Skipping interior nodes keeps the fixed points of a full sweep over
//! every node; the property suite checks that no node, boundary or
//! interior, still has a strictly improving single move on exit.
//!
//! ## CSR-native entry and the parallel sweep
//!
//! The engine borrows a [`CsrView`] rather than owning a [`Csr`], so
//! the flat level arena's per-level slices refine in place with zero
//! copies ([`constrained_refine_csr`]); [`constrained_refine`] stays as
//! the graph-input wrapper, snapshotting a `Csr` exactly as before —
//! all outputs are bit-identical.
//!
//! [`constrained_refine_parallel_csr`] is the million-node variant: each
//! pass first *frozen-evaluates* every active node against the current
//! (immutable) state in parallel — pure reads, order-independent, so
//! the candidate set is identical at any `RAYON_NUM_THREADS` — and then
//! commits serially in the pass's visit order, re-validating each
//! candidate against the live state before applying. The commit step
//! makes every applied move exactly a serial-engine move, so the
//! invariants (violations never increase; the cut never increases while
//! feasible) carry over unchanged, and a state where the frozen sweep
//! finds no candidate is precisely a state where the serial sweep would
//! apply no move: the two engines share fixed points, which the
//! `parallel_properties` suite checks at 1, 2 and 8 threads.

use ppn_graph::metrics::{part_weights_csr, CutMatrix};
use ppn_graph::prng::{derive_seed, XorShift128Plus};
use ppn_graph::trace;
use ppn_graph::{Boundary, Constraints, Csr, CsrView, NodeId, Partition, WeightedGraph};

#[cfg(feature = "parallel")]
use rayon::prelude::*;

/// Incrementally-maintained constraint bookkeeping for a partition.
#[derive(Clone, Debug)]
pub struct ConstrainedState {
    /// Pairwise inter-part traffic.
    pub cut: CutMatrix,
    /// Per-part resource usage.
    pub part_weights: Vec<u64>,
    /// Per-part node counts.
    pub part_sizes: Vec<usize>,
    /// Current total cut.
    pub total_cut: u64,
    /// `Rmax` the resource excess is tracked against (`u64::MAX` when
    /// untracked; the excess is then trivially zero).
    tracked_rmax: u64,
    /// Incrementally-maintained `Σ (part_weight - rmax).max(0)`.
    res_excess: u64,
}

/// Effect of a candidate move, measured lexicographically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MoveDelta {
    /// Change in total violation magnitude (bandwidth + resource).
    pub dviol: i64,
    /// Change in total cut.
    pub dcut: i64,
}

impl MoveDelta {
    /// Strictly improving under the lexicographic objective.
    pub fn improves(&self) -> bool {
        self.dviol < 0 || (self.dviol == 0 && self.dcut < 0)
    }
}

/// Evaluate a move described by the mover's dense part-connectivity row
/// (`row[q]` = summed edge weight from the mover into part `q`) and the
/// row's non-zero bitmask, against the current traffic matrix and part
/// weights. O(popcount(mask)) ≤ O(degree); allocation-free. For
/// `k > 64` the mask is ignored and the row is scanned densely.
#[allow(clippy::too_many_arguments)]
fn eval_from_row(
    cut: &CutMatrix,
    part_weights: &[u64],
    c: &Constraints,
    row: &[u64],
    mask: u64,
    from: usize,
    to: usize,
    wv: u64,
) -> MoveDelta {
    if from == to {
        return MoveDelta { dviol: 0, dcut: 0 };
    }
    let k = cut.k();
    let bmax = c.bmax;
    let eb = |x: u64| x.saturating_sub(bmax) as i64;
    let mut dviol = 0i64;
    let mut pair = |q: usize| {
        let w = row[q];
        if w == 0 {
            return;
        }
        let cf = cut.get(from, q);
        let ct = cut.get(to, q);
        dviol += eb(cf - w) - eb(cf) + eb(ct.saturating_add(w)) - eb(ct);
    };
    if k <= 64 {
        let mut m = mask & !(1u64 << from) & !(1u64 << to);
        while m != 0 {
            let q = m.trailing_zeros() as usize;
            m &= m - 1;
            pair(q);
        }
    } else {
        for q in (0..k).filter(|&q| q != from && q != to) {
            pair(q);
        }
    }
    // the (from, to) pair gains the mover's old internal edges and loses
    // its edges into the target part
    let cft = cut.get(from, to);
    let new_ft = (cft + row[from]) - row[to];
    dviol += eb(new_ft) - eb(cft);
    let dcut = row[from] as i64 - row[to] as i64;

    // resource violation delta on the two parts
    let rmax = c.rmax;
    let er = |x: u64| x.saturating_sub(rmax) as i64;
    let (wf, wt) = (part_weights[from], part_weights[to]);
    dviol += er(wt.saturating_add(wv)) - er(wt) - (er(wf) - er(wf - wv));

    MoveDelta { dviol, dcut }
}

impl ConstrainedState {
    /// Build the state for a complete partition. Violation queries fall
    /// back to a scan; prefer [`new_tracked`](ConstrainedState::new_tracked)
    /// on hot paths.
    pub fn new(g: &WeightedGraph, p: &Partition) -> Self {
        let cut = CutMatrix::compute(g, p);
        let total_cut = cut.total_cut();
        ConstrainedState {
            cut,
            part_weights: p.part_weights(g),
            part_sizes: p.part_sizes(),
            total_cut,
            tracked_rmax: u64::MAX,
            res_excess: 0,
        }
    }

    /// Build the state with violation magnitude tracked against `c`:
    /// [`violation`](ConstrainedState::violation) becomes O(1) and is
    /// maintained incrementally across [`apply_move`](ConstrainedState::apply_move).
    pub fn new_tracked(g: &WeightedGraph, p: &Partition, c: &Constraints) -> Self {
        Self::new(g, p).with_tracking(c)
    }

    /// [`new`](ConstrainedState::new) off a CSR view (the flat level
    /// arena's per-level form). Bit-identical to the graph constructor:
    /// the traffic matrix and part weights are order-independent `u64`
    /// sums.
    pub fn new_csr(csr: CsrView<'_>, p: &Partition) -> Self {
        let cut = CutMatrix::compute_csr(csr, p);
        let total_cut = cut.total_cut();
        ConstrainedState {
            cut,
            part_weights: part_weights_csr(csr, p),
            part_sizes: p.part_sizes(),
            total_cut,
            tracked_rmax: u64::MAX,
            res_excess: 0,
        }
    }

    /// [`new_tracked`](ConstrainedState::new_tracked) off a CSR view.
    pub fn new_tracked_csr(csr: CsrView<'_>, p: &Partition, c: &Constraints) -> Self {
        Self::new_csr(csr, p).with_tracking(c)
    }

    fn with_tracking(mut self, c: &Constraints) -> Self {
        self.cut.track_bmax(c.bmax);
        self.tracked_rmax = c.rmax;
        self.res_excess = self
            .part_weights
            .iter()
            .map(|&w| w.saturating_sub(c.rmax))
            .sum();
        self
    }

    /// Current violation magnitude against `c`. O(1) when the state was
    /// built with [`new_tracked`](ConstrainedState::new_tracked) for the
    /// same constraints, a scan otherwise.
    pub fn violation(&self, c: &Constraints) -> u64 {
        if c.bmax == self.cut.tracked_bmax() && c.rmax == self.tracked_rmax {
            return self.cut.tracked_excess() + self.res_excess;
        }
        c.violation_magnitude(&self.cut, &self.part_weights)
    }

    /// True when all constraints hold.
    pub fn feasible(&self, c: &Constraints) -> bool {
        self.violation(c) == 0
    }

    /// Evaluate moving `v` from its current part to `to` without
    /// mutating anything. `scratch` is a dense `k`-length buffer of
    /// per-part connectivity weights; it is resized and zeroed
    /// internally, so any reusable `Vec` will do. Cost: O(degree + k).
    ///
    /// Hot paths that already maintain a [`Boundary`] should evaluate
    /// off its connectivity rows instead, which drops the O(degree)
    /// row-building step.
    pub fn evaluate_move(
        &self,
        g: &WeightedGraph,
        p: &Partition,
        c: &Constraints,
        v: NodeId,
        to: u32,
        scratch: &mut Vec<u64>,
    ) -> MoveDelta {
        let from = p.part_of(v);
        debug_assert_ne!(from, Partition::UNASSIGNED);
        if from == to {
            return MoveDelta { dviol: 0, dcut: 0 };
        }
        let k = self.cut.k();
        scratch.clear();
        scratch.resize(k, 0);
        let mut mask = 0u64;
        for &(u, e) in g.neighbors(v) {
            let q = p.part_of(u);
            if q == Partition::UNASSIGNED {
                continue;
            }
            scratch[q as usize] += g.edge_weight(e);
            if k <= 64 {
                mask |= 1u64 << q;
            }
        }
        eval_from_row(
            &self.cut,
            &self.part_weights,
            c,
            scratch,
            mask,
            from as usize,
            to as usize,
            g.node_weight(v),
        )
    }

    /// Apply the move `v → to`, updating partition and bookkeeping. Cost
    /// O(degree): the total cut is advanced by the move's cut delta and
    /// the tracked violation magnitude by its violation delta — no
    /// matrix rescans.
    pub fn apply_move(&mut self, g: &WeightedGraph, p: &mut Partition, v: NodeId, to: u32) {
        let from = p.part_of(v);
        if from == to {
            return;
        }
        let dcut = self.cut.apply_move(g, p, v, from, to);
        self.apply_bookkeeping(from as usize, to as usize, g.node_weight(v), dcut);
        p.assign(v, to);
    }

    /// Shared non-matrix bookkeeping of a move: total cut, part weights
    /// and sizes, tracked resource excess.
    fn apply_bookkeeping(&mut self, from: usize, to: usize, wv: u64, dcut: i64) {
        self.total_cut = (self.total_cut as i64 + dcut) as u64;
        let r = self.tracked_rmax;
        let (wf, wt) = (self.part_weights[from], self.part_weights[to]);
        self.res_excess -= wf.saturating_sub(r) - (wf - wv).saturating_sub(r);
        self.res_excess += (wt + wv).saturating_sub(r) - wt.saturating_sub(r);
        self.part_weights[from] -= wv;
        self.part_weights[to] += wv;
        self.part_sizes[from] -= 1;
        self.part_sizes[to] += 1;
    }
}

/// Migration-aware objective for warm-started (incremental)
/// refinement: alongside the cut, moves are charged for walking nodes
/// *away from* a reference assignment (the previous deployment) and
/// credited for walking them back.
///
/// The combined gain of a move is the integer form of the paper-style
/// blend `λ·Δcut + (1−λ)·Δmigration`:
///
/// ```text
/// score = lambda_permille · Δcut + (1000 − lambda_permille) · Δmigration
/// ```
///
/// where `Δmigration` is the mover's node weight when the move leaves
/// its reference part, its negation when the move returns to it, and 0
/// otherwise (nodes with an [`Partition::UNASSIGNED`] reference — e.g.
/// freshly inserted processes — migrate for free). Constraint
/// violations stay lexicographically dominant: a violation-reducing
/// move is taken regardless of its migration bill, so the hard
/// `Rmax`/`Bmax` contracts of [`constrained_refine`] carry over
/// unchanged. `lambda_permille = 1000` recovers the pure-cut objective
/// over a different tie-break scale; `0` pins every node to its
/// reference part unless constraints force it out.
#[derive(Clone, Copy, Debug)]
pub struct MigrationOptions<'a> {
    /// Reference part per node ([`Partition::UNASSIGNED`] = free
    /// mover). Must cover every node of the refined graph.
    pub reference: &'a [u32],
    /// Weight (in per-mille) on `Δcut`; the remainder to 1000 weighs
    /// `Δmigration`. Values above 1000 are clamped.
    pub lambda_permille: u32,
}

/// Total node weight currently placed off its (non-`UNASSIGNED`)
/// reference part — the "migration mass" a cut-vs-migration report
/// divides by the total weight.
pub fn migration_mass(reference: &[u32], assignment: &[u32], vwgt: &[u64]) -> u64 {
    reference
        .iter()
        .zip(assignment)
        .zip(vwgt)
        .filter(|((&r, &a), _)| r != Partition::UNASSIGNED && r != a)
        .map(|(_, &w)| w)
        .sum()
}

/// Options for [`constrained_refine`].
#[derive(Clone, Debug)]
pub struct RefineOptions {
    /// Maximum sweeps.
    pub max_passes: usize,
    /// Visit-order seed.
    pub seed: u64,
    /// Never empty a part.
    pub protect_nonempty: bool,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions {
            max_passes: 8,
            seed: 1,
            protect_nonempty: true,
        }
    }
}

/// The boundary-driven refinement engine: a borrowed CSR view,
/// incremental constraint state, boundary set, and reusable scratch
/// buffers. All per-move work is allocation-free. Borrowing (rather
/// than owning) the CSR is what lets the flat level arena's per-level
/// slices refine without a copy.
struct RefineEngine<'a> {
    csr: CsrView<'a>,
    state: ConstrainedState,
    boundary: Boundary,
    /// k-length copy of the mover's connectivity row (the row mutates
    /// while the move is applied).
    row: Vec<u64>,
    /// Edge weight from the current swap pivot to every node (sparse
    /// fill/clear over its neighbourhood).
    uvw: Vec<u64>,
    /// Warm-start migration objective; `None` on the classic cut-only
    /// paths (which stay bit-identical).
    mig: Option<MigCtx<'a>>,
}

/// Resolved migration objective: the reference assignment plus the two
/// integer blend weights.
#[derive(Clone, Copy)]
struct MigCtx<'a> {
    reference: &'a [u32],
    /// Per-mille weight on `Δcut`.
    lam: i64,
    /// Per-mille weight on `Δmigration` (`1000 - lam`).
    mu: i64,
}

impl<'a> MigCtx<'a> {
    /// Migration-weight delta of moving a node of weight `wv` with
    /// reference part `r` from `from` to `to`.
    fn delta(&self, r: u32, from: u32, to: u32, wv: u64) -> i64 {
        if r == Partition::UNASSIGNED || from == to {
            0
        } else if from == r {
            wv as i64
        } else if to == r {
            -(wv as i64)
        } else {
            0
        }
    }
}

impl<'a> RefineEngine<'a> {
    fn new(csr: CsrView<'a>, p: &Partition, c: &Constraints) -> Self {
        let state = ConstrainedState::new_tracked_csr(csr, p, c);
        let boundary = Boundary::new(csr, p);
        let k = p.k();
        let n = csr.num_nodes();
        RefineEngine {
            csr,
            state,
            boundary,
            row: vec![0; k],
            uvw: vec![0; n],
            mig: None,
        }
    }

    /// Apply `v → to` across every incremental structure. O(degree + k).
    fn apply(&mut self, p: &mut Partition, v: NodeId, to: u32) {
        let from = p.part_of(v);
        if from == to {
            return;
        }
        self.row.copy_from_slice(self.boundary.conn(v));
        let dcut = self.state.cut.apply_conn_row_move(&self.row, from, to);
        self.state
            .apply_bookkeeping(from as usize, to as usize, self.csr.vwgt[v.index()], dcut);
        self.boundary.apply_move(self.csr, p, v, from, to);
        p.assign(v, to);
    }

    /// Nodes worth visiting this pass: the boundary, plus every node of
    /// an `Rmax`-violating part (interior nodes of feasible parts cannot
    /// have a strictly improving move).
    fn collect_active(&self, p: &Partition, c: &Constraints, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend_from_slice(self.boundary.nodes());
        if self.state.part_weights.iter().any(|&w| w > c.rmax) {
            for v in p
                .assignment()
                .iter()
                .enumerate()
                .filter(|&(_, &q)| self.state.part_weights[q as usize] > c.rmax)
                .map(|(i, _)| NodeId::from_index(i))
            {
                if !self.boundary.is_boundary(v) {
                    out.push(v);
                }
            }
        }
    }

    /// The best strictly-improving move of `v` against the *current*
    /// state, or `None`. Read-only — this is the half of
    /// [`try_best_move`](RefineEngine::try_best_move) the parallel
    /// frozen-evaluation sweep runs concurrently across nodes.
    fn best_move_for(
        &self,
        p: &Partition,
        c: &Constraints,
        v: NodeId,
        protect_nonempty: bool,
    ) -> Option<(MoveDelta, u32)> {
        let k = self.state.cut.k();
        let from = p.part_of(v) as usize;
        if protect_nonempty && self.state.part_sizes[from] == 1 {
            return None;
        }
        // candidate targets: parts in the neighbourhood (cut can only
        // improve toward those), plus — when the source part violates
        // Rmax — the lightest part (pure resource escape).
        let escape = if self.state.part_weights[from] > c.rmax {
            (0..k as u32)
                .filter(|&t| t as usize != from)
                .min_by_key(|&t| self.state.part_weights[t as usize])
        } else {
            None
        };
        let row = self.boundary.conn(v);
        let mask = self.boundary.conn_mask(v);
        let wv = self.csr.vwgt[v.index()];
        let mig = self.mig;
        let rv = mig.map(|m| m.reference[v.index()]);
        let mut best: Option<(MoveDelta, u32)> = None;
        let mut consider = |t: u32, row: &[u64]| {
            let d = eval_from_row(
                &self.state.cut,
                &self.state.part_weights,
                c,
                row,
                mask,
                from,
                t as usize,
                wv,
            );
            match mig {
                // classic cut-only objective — unchanged
                None => {
                    if !d.improves() {
                        return;
                    }
                    let better = match &best {
                        None => true,
                        Some((bd, bt)) => (d.dviol, d.dcut, t) < (bd.dviol, bd.dcut, *bt),
                    };
                    if better {
                        best = Some((d, t));
                    }
                }
                // warm-start blend: violations still dominate; among
                // equal-violation moves the blended λ·Δcut + μ·Δmig
                // score replaces the raw cut delta
                Some(m) => {
                    let r = rv.unwrap();
                    let score = m.lam.saturating_mul(d.dcut)
                        + m.mu.saturating_mul(m.delta(r, from as u32, t, wv));
                    if !(d.dviol < 0 || (d.dviol == 0 && score < 0)) {
                        return;
                    }
                    let better = match &best {
                        None => true,
                        Some((bd, bt)) => {
                            let bscore = m.lam.saturating_mul(bd.dcut)
                                + m.mu.saturating_mul(m.delta(r, from as u32, *bt, wv));
                            (d.dviol, score, t) < (bd.dviol, bscore, *bt)
                        }
                    };
                    if better {
                        best = Some((d, t));
                    }
                }
            }
        };
        if k <= 64 {
            let mut m = mask & !(1u64 << from);
            if let Some(e) = escape {
                m |= 1u64 << e;
            }
            while m != 0 {
                let t = m.trailing_zeros();
                m &= m - 1;
                consider(t, row);
            }
        } else {
            for t in 0..k as u32 {
                if t as usize == from || (row[t as usize] == 0 && escape != Some(t)) {
                    continue;
                }
                consider(t, row);
            }
        }
        best
    }

    /// Find and apply the best strictly-improving move of `v`, if any.
    fn try_best_move(
        &mut self,
        p: &mut Partition,
        c: &Constraints,
        v: NodeId,
        protect_nonempty: bool,
    ) -> bool {
        if let Some((d, t)) = self.best_move_for(p, c, v, protect_nonempty) {
            trace::hist("refine", "gain_dcut", d.dcut);
            trace::hist("refine", "gain_dviol", d.dviol);
            if let Some(m) = self.mig {
                let dm = m.delta(
                    m.reference[v.index()],
                    p.part_of(v),
                    t,
                    self.csr.vwgt[v.index()],
                );
                if dm > 0 {
                    trace::counter("migration", "mass_out", dm as u64);
                } else if dm < 0 {
                    trace::counter("migration", "mass_back", (-dm) as u64);
                }
            }
            self.apply(p, v, t);
            true
        } else {
            false
        }
    }

    /// Frozen-evaluation sweep: mark which active nodes have a strictly
    /// improving move against the current (immutable) state. Pure reads,
    /// evaluated in parallel when the `parallel` feature is on; each
    /// node's verdict depends only on the frozen state, so the output is
    /// identical at any thread count (and to a sequential scan).
    fn frozen_candidates(
        &self,
        p: &Partition,
        c: &Constraints,
        active: &[NodeId],
        protect_nonempty: bool,
    ) -> Vec<bool> {
        #[cfg(feature = "parallel")]
        {
            active
                .iter()
                .copied()
                .into_par_iter()
                .map(|v| self.best_move_for(p, c, v, protect_nonempty).is_some())
                .collect()
        }
        #[cfg(not(feature = "parallel"))]
        {
            active
                .iter()
                .map(|&v| self.best_move_for(p, c, v, protect_nonempty).is_some())
                .collect()
        }
    }

    /// Exact `(Δviolation, Δcut)` of the pairwise exchange
    /// `u: over → b`, then `v: b → over`, composed from the two
    /// single-move deltas. Only parts either node connects to can see a
    /// pair delta, and the delta on `(b, q)` is the exact negation of
    /// the delta on `(over, q)`, so the whole evaluation is
    /// O(popcount(mask_u | mask_v)) with no scratch. Requires `uvw` to
    /// hold `u`'s neighbour weights.
    fn eval_swap(
        &self,
        c: &Constraints,
        u: NodeId,
        over: usize,
        v: NodeId,
        b: usize,
    ) -> (i64, i64) {
        let k = self.state.cut.k();
        let ru = self.boundary.conn(u);
        let rv = self.boundary.conn(v);
        let w_uv = self.uvw[v.index()] as i64;
        // the (over, b) pair sees both moves plus the u-v edge twice
        let d_ob = (ru[over] as i64 - ru[b] as i64) + (rv[b] as i64 - rv[over] as i64) + 2 * w_uv;
        let dcut = d_ob; // third-part deltas cancel pairwise

        let bmax = c.bmax;
        let exc = |cur: u64, d: i64| -> i64 {
            let newv = (cur as i64 + d) as u64;
            newv.saturating_sub(bmax) as i64 - cur.saturating_sub(bmax) as i64
        };
        let cut = &self.state.cut;
        let mut dviol = 0i64;
        let mut third_party = |q: usize| {
            // pair (over, q) changes by rv[q] - ru[q]; pair (b, q) by
            // the exact opposite
            let d = rv[q] as i64 - ru[q] as i64;
            if d != 0 {
                dviol += exc(cut.get(over, q), d) + exc(cut.get(b, q), -d);
            }
        };
        if k <= 64 {
            let mut m = (self.boundary.conn_mask(u) | self.boundary.conn_mask(v))
                & !(1u64 << over)
                & !(1u64 << b);
            while m != 0 {
                let q = m.trailing_zeros() as usize;
                m &= m - 1;
                third_party(q);
            }
        } else {
            for q in (0..k).filter(|&q| q != over && q != b) {
                third_party(q);
            }
        }
        if d_ob != 0 {
            dviol += exc(cut.get(over, b), d_ob);
        }

        let rmax = c.rmax;
        let er = |x: u64| x.saturating_sub(rmax) as i64;
        let (wu, wv_w) = (self.csr.vwgt[u.index()], self.csr.vwgt[v.index()]);
        let (wa, wb) = (self.state.part_weights[over], self.state.part_weights[b]);
        dviol += er(wa - wu + wv_w) - er(wa) + er(wb + wu - wv_w) - er(wb);

        (dviol, dcut)
    }

    /// One round of violation-reducing pairwise exchanges between a
    /// resource-violating part and every other part. A swap is accepted
    /// only if it strictly reduces `(violation, cut)` lexicographically.
    /// Returns the number of swaps applied.
    fn swap_pass(&mut self, p: &mut Partition, c: &Constraints) -> usize {
        let k = p.k();
        let n = self.csr.num_nodes();
        let mut swaps = 0;
        while self.state.violation(c) > 0 {
            let Some(over) = (0..k).find(|&a| self.state.part_weights[a] > c.rmax) else {
                break;
            };
            // best = (dviol, dcut, u, v): total order, so scan order is
            // irrelevant to the winner
            let mut best: Option<(i64, i64, NodeId, NodeId)> = None;
            for u in 0..n {
                let u = NodeId::from_index(u);
                if p.part_of(u) as usize != over {
                    continue;
                }
                let wu = self.csr.vwgt[u.index()];
                for i in self.csr.xadj[u.index()]..self.csr.xadj[u.index() + 1] {
                    self.uvw[self.csr.adjncy[i] as usize] = self.csr.adjwgt[i];
                }
                for v in 0..n {
                    let v = NodeId::from_index(v);
                    let b = p.part_of(v) as usize;
                    if b == over {
                        continue;
                    }
                    let wv = self.csr.vwgt[v.index()];
                    if wv >= wu {
                        continue; // swap must lighten the violating part
                    }
                    // cheap resource prefilter before the exact check
                    let wa = self.state.part_weights[over];
                    let wb = self.state.part_weights[b];
                    let res_before =
                        (wa as i64 - c.rmax as i64).max(0) + (wb as i64 - c.rmax as i64).max(0);
                    let res_after = ((wa - wu + wv) as i64 - c.rmax as i64).max(0)
                        + ((wb - wv + wu) as i64 - c.rmax as i64).max(0);
                    if res_after >= res_before {
                        continue;
                    }
                    let (dviol, dcut) = self.eval_swap(c, u, over, v, b);
                    if dviol < 0 || (dviol == 0 && dcut < 0) {
                        let key = (dviol, dcut, u, v);
                        if best.map(|bk| key < bk).unwrap_or(true) {
                            best = Some(key);
                        }
                    }
                }
                for i in self.csr.xadj[u.index()]..self.csr.xadj[u.index() + 1] {
                    self.uvw[self.csr.adjncy[i] as usize] = 0;
                }
            }
            let Some((_, _, u, v)) = best else { break };
            let b = p.part_of(v);
            self.apply(p, u, b);
            self.apply(p, v, over as u32);
            swaps += 1;
        }
        swaps
    }
}

/// Constrained refinement sweep: each pass visits the boundary nodes
/// and `Rmax`-violators in random order; each visited node moves to the
/// part with the best strictly-improving `(Δviolation, Δcut)`. Returns
/// the number of moves applied.
///
/// The cut never increases while violations are zero; violations never
/// increase, period. The fixed points coincide with a full sweep over
/// every node: a node with no neighbour in another part and a feasible
/// home part can never have a strictly improving move, so skipping it
/// loses nothing.
pub fn constrained_refine(
    g: &WeightedGraph,
    p: &mut Partition,
    c: &Constraints,
    opts: &RefineOptions,
) -> usize {
    let csr = Csr::from_graph(g);
    constrained_refine_csr(&csr, p, c, opts)
}

/// [`constrained_refine`] off a borrowed CSR view — the entry the flat
/// level arena's per-level slices use, with no graph materialisation
/// and no CSR copy. Bit-identical to the graph entry on the same
/// topology (the wrapper above delegates here).
pub fn constrained_refine_csr<'a>(
    csr: impl Into<CsrView<'a>>,
    p: &mut Partition,
    c: &Constraints,
    opts: &RefineOptions,
) -> usize {
    refine_entry(csr.into(), p, c, opts, false, None)
}

/// Parallel-sweep constrained refinement off a borrowed CSR view (see
/// the module docs): each pass frozen-evaluates the active set in
/// parallel, then commits serially in visit order, re-validating every
/// candidate against the live state. Deterministic and independent of
/// `RAYON_NUM_THREADS`; shares all invariants and fixed points with
/// [`constrained_refine`], but interior passes may take different
/// (equally valid) move sequences — callers gate it by graph size, where
/// the frozen sweep's O(active · k) evaluation dwarfs the serial commit.
pub fn constrained_refine_parallel_csr<'a>(
    csr: impl Into<CsrView<'a>>,
    p: &mut Partition,
    c: &Constraints,
    opts: &RefineOptions,
) -> usize {
    refine_entry(csr.into(), p, c, opts, true, None)
}

/// Warm-start refinement under the migration-aware objective of
/// [`MigrationOptions`]: identical sweep structure to
/// [`constrained_refine`], but among constraint-neutral moves the
/// blended `λ·Δcut + (1−λ)·Δmigration` score decides. Violations never
/// increase; with `lambda_permille = 1000` and no reference the sweep
/// degenerates to the classic objective.
pub fn constrained_refine_migration(
    g: &WeightedGraph,
    p: &mut Partition,
    c: &Constraints,
    opts: &RefineOptions,
    mig: &MigrationOptions<'_>,
) -> usize {
    let csr = Csr::from_graph(g);
    refine_entry((&csr).into(), p, c, opts, false, Some(mig))
}

fn refine_entry<'a>(
    csr: CsrView<'a>,
    p: &mut Partition,
    c: &Constraints,
    opts: &RefineOptions,
    parallel: bool,
    mig: Option<&MigrationOptions<'a>>,
) -> usize {
    assert!(p.is_complete(), "refinement needs a complete partition");
    if csr.num_nodes() == 0 || p.k() <= 1 {
        return 0;
    }
    let mut engine = RefineEngine::new(csr, p, c);
    if let Some(m) = mig {
        assert_eq!(
            m.reference.len(),
            csr.num_nodes(),
            "migration reference must cover the graph"
        );
        let lam = m.lambda_permille.min(1000) as i64;
        engine.mig = Some(MigCtx {
            reference: m.reference,
            lam,
            mu: 1000 - lam,
        });
    }
    let mut rng = XorShift128Plus::new(derive_seed(opts.seed, 0xC0F1));
    let mut active: Vec<NodeId> = Vec::new();
    let mut total_moves = 0;

    for pass in 0..opts.max_passes {
        let _sp = trace::span("refine", "pass", pass as i64);
        engine.collect_active(p, c, &mut active);
        rng.shuffle(&mut active);
        trace::counter("refine", "boundary_nodes", active.len() as u64);
        trace::counter("refine", "moves_evaluated", active.len() as u64);
        let mut moves = 0;
        if parallel {
            // frozen-eval in parallel, commit serially in visit order;
            // the first commit re-validates against an unchanged state,
            // so a non-empty candidate set always yields >= 1 move
            let frozen = trace::span("refine", "frozen_eval", active.len() as i64);
            let candidates = engine.frozen_candidates(p, c, &active, opts.protect_nonempty);
            drop(frozen);
            for (&v, &is_candidate) in active.iter().zip(&candidates) {
                if is_candidate && engine.try_best_move(p, c, v, opts.protect_nonempty) {
                    moves += 1;
                }
            }
        } else {
            for &v in &active {
                if engine.try_best_move(p, c, v, opts.protect_nonempty) {
                    moves += 1;
                }
            }
        }
        total_moves += moves;
        trace::counter("refine", "moves_committed", moves as u64);
        trace::counter("refine", "moves_rejected", (active.len() - moves) as u64);
        if moves == 0 {
            // single moves exhausted: when resources are still violated,
            // try pairwise exchanges — tight packings (every part close
            // to Rmax) are unreachable by single moves because any move
            // overshoots the receiving part
            let swaps = engine.swap_pass(p, c);
            total_moves += swaps;
            trace::counter("refine", "swap_moves", swaps as u64);
            if swaps == 0 {
                break;
            }
        }
    }
    total_moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_graph::metrics::edge_cut;

    /// Two heavy producer-consumer pairs plus a moderate cross stream:
    /// the min-cut bisection routes 30 units over one pair — infeasible
    /// for Bmax = 20; the fix splits the traffic differently.
    fn bw_tension() -> WeightedGraph {
        let mut g = WeightedGraph::new();
        let n: Vec<_> = (0..6).map(|_| g.add_node(10)).collect();
        g.add_edge(n[0], n[1], 100).unwrap();
        g.add_edge(n[2], n[3], 100).unwrap();
        g.add_edge(n[1], n[2], 15).unwrap();
        g.add_edge(n[3], n[4], 15).unwrap();
        g.add_edge(n[4], n[5], 100).unwrap();
        g
    }

    #[test]
    fn state_matches_fresh_measurement_after_moves() {
        let g = bw_tension();
        let mut p = Partition::from_assignment(vec![0, 0, 1, 1, 2, 2], 3).unwrap();
        let mut s = ConstrainedState::new(&g, &p);
        s.apply_move(&g, &mut p, NodeId(1), 1);
        s.apply_move(&g, &mut p, NodeId(4), 0);
        let fresh = ConstrainedState::new(&g, &p);
        assert_eq!(s.cut, fresh.cut);
        assert_eq!(s.part_weights, fresh.part_weights);
        assert_eq!(s.total_cut, fresh.total_cut);
    }

    #[test]
    fn tracked_state_matches_scan_after_moves() {
        let g = bw_tension();
        let c = Constraints::new(25, 20);
        let mut p = Partition::from_assignment(vec![0, 0, 1, 1, 2, 2], 3).unwrap();
        let mut s = ConstrainedState::new_tracked(&g, &p, &c);
        for (v, to) in [(1u32, 1u32), (4, 0), (0, 2), (3, 0)] {
            s.apply_move(&g, &mut p, NodeId(v), to);
            let fresh = ConstrainedState::new(&g, &p);
            assert_eq!(s.total_cut, fresh.total_cut, "after {v}->{to}");
            assert_eq!(s.violation(&c), fresh.violation(&c), "after {v}->{to}");
        }
    }

    #[test]
    fn evaluate_matches_apply() {
        let g = bw_tension();
        let c = Constraints::new(25, 20);
        let mut scratch = Vec::new();
        for to in 0..3u32 {
            for vi in 0..6u32 {
                let mut p = Partition::from_assignment(vec![0, 0, 1, 1, 2, 2], 3).unwrap();
                let s = ConstrainedState::new_tracked(&g, &p, &c);
                let viol_before = s.violation(&c) as i64;
                let cut_before = s.total_cut as i64;
                let d = s.evaluate_move(&g, &p, &c, NodeId(vi), to, &mut scratch);
                let mut s2 = s.clone();
                s2.apply_move(&g, &mut p, NodeId(vi), to);
                assert_eq!(
                    d.dviol,
                    s2.violation(&c) as i64 - viol_before,
                    "node {vi} → {to}: violation delta mismatch"
                );
                assert_eq!(
                    d.dcut,
                    s2.total_cut as i64 - cut_before,
                    "node {vi} → {to}: cut delta mismatch"
                );
            }
        }
    }

    #[test]
    fn evaluate_handles_unconstrained_limits() {
        // u64::MAX limits must mean "no violation", not a sign-flipped
        // threshold (a saturation bug in an earlier version)
        let g = bw_tension();
        let c = Constraints::unconstrained();
        let p = Partition::from_assignment(vec![0, 1, 0, 1, 0, 1], 2).unwrap();
        let s = ConstrainedState::new_tracked(&g, &p, &c);
        let mut scratch = Vec::new();
        for vi in 0..6u32 {
            for to in 0..2u32 {
                let d = s.evaluate_move(&g, &p, &c, NodeId(vi), to, &mut scratch);
                assert_eq!(d.dviol, 0, "node {vi} → {to} under no constraints");
            }
        }
    }

    #[test]
    fn refinement_reduces_cut_without_violating() {
        let g = bw_tension();
        let c = Constraints::new(30, 200);
        // scrambled start
        let mut p = Partition::from_assignment(vec![0, 1, 0, 1, 0, 1], 2).unwrap();
        let before = edge_cut(&g, &p);
        constrained_refine(&g, &mut p, &c, &RefineOptions::default());
        let after = edge_cut(&g, &p);
        assert!(after <= before);
        assert!(
            c.is_feasible(&g, &p),
            "refinement must keep feasibility reachable"
        );
    }

    #[test]
    fn refinement_repairs_bandwidth_violation() {
        // a -20- b -5- c -20- d, with b on the wrong side: pair traffic
        // 20 > Bmax 10; moving b over drops it to 5.
        let mut g = WeightedGraph::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node(10)).collect();
        g.add_edge(n[0], n[1], 20).unwrap();
        g.add_edge(n[1], n[2], 5).unwrap();
        g.add_edge(n[2], n[3], 20).unwrap();
        let c = Constraints::new(100, 10);
        let mut p = Partition::from_assignment(vec![0, 1, 1, 1], 2).unwrap();
        let s = ConstrainedState::new(&g, &p);
        assert_eq!(
            s.violation(&c),
            10,
            "start must violate for the test to bite"
        );
        constrained_refine(&g, &mut p, &c, &RefineOptions::default());
        let s2 = ConstrainedState::new(&g, &p);
        assert_eq!(s2.violation(&c), 0, "single-move repair should succeed");
        assert!(c.is_feasible(&g, &p));
    }

    #[test]
    fn refinement_repairs_resource_violation() {
        // part 1 overweight; moving any one node over fixes it without
        // touching a heavy edge
        let mut g = WeightedGraph::new();
        let n: Vec<_> = (0..5).map(|_| g.add_node(10)).collect();
        for w in n.windows(2) {
            g.add_edge(w[0], w[1], 2).unwrap();
        }
        let c = Constraints::new(30, 100);
        let mut p = Partition::from_assignment(vec![0, 1, 1, 1, 1], 2).unwrap();
        assert!(ConstrainedState::new(&g, &p).violation(&c) > 0);
        constrained_refine(&g, &mut p, &c, &RefineOptions::default());
        assert!(c.is_feasible(&g, &p), "resource repair should succeed");
    }

    #[test]
    fn overweight_interior_nodes_are_visited() {
        // part 0 holds two isolated heavy nodes (no boundary edges at
        // all): only the Rmax-violator sweep can move one out
        let mut g = WeightedGraph::new();
        let _a = g.add_node(40);
        let _b = g.add_node(40);
        let c0 = g.add_node(10);
        let d = g.add_node(10);
        g.add_edge(c0, d, 3).unwrap();
        let c = Constraints::new(50, 100);
        let mut p = Partition::from_assignment(vec![0, 0, 1, 1], 2).unwrap();
        assert!(ConstrainedState::new(&g, &p).violation(&c) > 0);
        let moves = constrained_refine(&g, &mut p, &c, &RefineOptions::default());
        assert!(moves > 0);
        assert!(c.is_feasible(&g, &p), "weights {:?}", p.part_weights(&g));
    }

    #[test]
    fn violations_never_increase() {
        let g = bw_tension();
        let c = Constraints::new(30, 18);
        for seed in 0..8 {
            let assign: Vec<u32> = (0..6).map(|i| ((i + seed) % 3) as u32).collect();
            let mut p = Partition::from_assignment(assign, 3).unwrap();
            let v_before = ConstrainedState::new(&g, &p).violation(&c);
            constrained_refine(
                &g,
                &mut p,
                &c,
                &RefineOptions {
                    seed: seed as u64,
                    ..Default::default()
                },
            );
            let v_after = ConstrainedState::new(&g, &p).violation(&c);
            assert!(v_after <= v_before, "seed {seed}: {v_before} -> {v_after}");
        }
    }

    #[test]
    fn protect_nonempty_holds() {
        let g = bw_tension();
        let c = Constraints::unconstrained();
        let mut p = Partition::from_assignment(vec![0, 1, 1, 1, 1, 1], 2).unwrap();
        constrained_refine(&g, &mut p, &c, &RefineOptions::default());
        assert!(p.part_sizes().iter().all(|&s| s >= 1));
    }

    #[test]
    fn swap_pass_solves_tight_packing() {
        // two parts at 135 and 124 with Rmax 133: no single move helps
        // (every node weighs ≥ 30, so any move overshoots the receiving
        // part), but swapping 45 ↔ 40 lands at 130/129.
        let mut g = WeightedGraph::new();
        let a = g.add_node(60);
        let b = g.add_node(45);
        let c0 = g.add_node(30);
        let d = g.add_node(40);
        let e = g.add_node(49);
        let f = g.add_node(35);
        g.add_edge(a, b, 9).unwrap();
        g.add_edge(b, c0, 9).unwrap();
        g.add_edge(d, e, 9).unwrap();
        g.add_edge(e, f, 9).unwrap();
        g.add_edge(c0, d, 3).unwrap();
        let cons = Constraints::new(133, 1000);
        let mut p = Partition::from_assignment(vec![0, 0, 0, 1, 1, 1], 2).unwrap();
        assert_eq!(ConstrainedState::new(&g, &p).violation(&cons), 2);
        let moves = constrained_refine(&g, &mut p, &cons, &RefineOptions::default());
        assert!(moves > 0, "the swap pass must engage");
        assert!(
            cons.is_feasible(&g, &p),
            "swap should repair the packing: weights {:?}",
            p.part_weights(&g)
        );
    }

    #[test]
    fn feasible_stays_feasible() {
        let g = bw_tension();
        let c = Constraints::new(30, 120);
        let mut p = Partition::from_assignment(vec![0, 0, 0, 1, 1, 1], 2).unwrap();
        assert!(c.is_feasible(&g, &p));
        constrained_refine(&g, &mut p, &c, &RefineOptions::default());
        assert!(c.is_feasible(&g, &p));
    }

    #[test]
    fn migration_lambda_1000_matches_classic_fixed_point_quality() {
        // with λ = 1000 the migration term is muted: the sweep must
        // reach a state of the same cut/feasibility as the classic one
        let g = bw_tension();
        let c = Constraints::new(30, 200);
        let mut classic = Partition::from_assignment(vec![0, 1, 0, 1, 0, 1], 2).unwrap();
        constrained_refine(&g, &mut classic, &c, &RefineOptions::default());
        let mut warm = Partition::from_assignment(vec![0, 1, 0, 1, 0, 1], 2).unwrap();
        let reference = warm.assignment().to_vec();
        constrained_refine_migration(
            &g,
            &mut warm,
            &c,
            &RefineOptions::default(),
            &MigrationOptions {
                reference: &reference,
                lambda_permille: 1000,
            },
        );
        assert_eq!(edge_cut(&g, &warm), edge_cut(&g, &classic));
        assert!(c.is_feasible(&g, &warm));
    }

    #[test]
    fn migration_lambda_0_pins_a_feasible_reference() {
        // λ = 0: the start is feasible and equal to the reference, so
        // no move can improve (every departure costs migration)
        let g = bw_tension();
        let c = Constraints::new(30, 200);
        let reference = vec![0, 0, 0, 1, 1, 1];
        let mut p = Partition::from_assignment(reference.clone(), 2).unwrap();
        assert!(c.is_feasible(&g, &p));
        let moves = constrained_refine_migration(
            &g,
            &mut p,
            &c,
            &RefineOptions::default(),
            &MigrationOptions {
                reference: &reference,
                lambda_permille: 0,
            },
        );
        assert_eq!(moves, 0);
        assert_eq!(p.assignment(), reference.as_slice());
    }

    #[test]
    fn migration_never_blocks_violation_repair() {
        // same instance as refinement_repairs_bandwidth_violation, but
        // the violating start IS the reference: λ = 0 must still let
        // the repair move through (violations dominate migration)
        let mut g = WeightedGraph::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node(10)).collect();
        g.add_edge(n[0], n[1], 20).unwrap();
        g.add_edge(n[1], n[2], 5).unwrap();
        g.add_edge(n[2], n[3], 20).unwrap();
        let c = Constraints::new(100, 10);
        let reference = vec![0, 1, 1, 1];
        let mut p = Partition::from_assignment(reference.clone(), 2).unwrap();
        constrained_refine_migration(
            &g,
            &mut p,
            &c,
            &RefineOptions::default(),
            &MigrationOptions {
                reference: &reference,
                lambda_permille: 0,
            },
        );
        assert!(c.is_feasible(&g, &p), "repair must override migration");
    }

    #[test]
    fn intermediate_lambda_trades_cut_for_migration() {
        // two triangles joined by one light edge; reference splits one
        // triangle across the cut. High λ fixes the split (cheaper
        // cut, one migration); λ = 0 keeps the reference.
        let mut g = WeightedGraph::new();
        let n: Vec<_> = (0..6).map(|_| g.add_node(10)).collect();
        for &(a, b) in &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            g.add_edge(n[a], n[b], 10).unwrap();
        }
        g.add_edge(n[2], n[3], 1).unwrap();
        let c = Constraints::new(40, 1000);
        let reference = vec![0, 0, 1, 1, 1, 0]; // nodes 2 and 5 misplaced
        let run = |lambda: u32| {
            let mut p = Partition::from_assignment(reference.clone(), 2).unwrap();
            constrained_refine_migration(
                &g,
                &mut p,
                &c,
                &RefineOptions::default(),
                &MigrationOptions {
                    reference: &reference,
                    lambda_permille: lambda,
                },
            );
            (
                edge_cut(&g, &p),
                migration_mass(&reference, p.assignment(), &[10; 6]),
            )
        };
        let (cut_hi, mig_hi) = run(1000);
        let (cut_lo, mig_lo) = run(0);
        assert!(
            cut_hi < cut_lo,
            "high λ must chase the cut: {cut_hi} vs {cut_lo}"
        );
        assert_eq!(mig_lo, 0, "λ = 0 must not migrate a feasible reference");
        assert!(mig_hi > 0);
    }

    #[test]
    fn unassigned_reference_nodes_migrate_for_free() {
        // node 1 (reference UNASSIGNED) sits on the wrong side; λ near 0
        // still lets it move because its migration is free
        let mut g = WeightedGraph::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node(10)).collect();
        g.add_edge(n[0], n[1], 20).unwrap();
        g.add_edge(n[2], n[3], 20).unwrap();
        g.add_edge(n[1], n[2], 1).unwrap();
        let c = Constraints::new(40, 1000);
        let reference = vec![0, Partition::UNASSIGNED, 1, 1];
        let mut p = Partition::from_assignment(vec![0, 1, 1, 1], 2).unwrap();
        constrained_refine_migration(
            &g,
            &mut p,
            &c,
            &RefineOptions::default(),
            &MigrationOptions {
                reference: &reference,
                lambda_permille: 1,
            },
        );
        assert_eq!(
            p.part_of(NodeId(1)),
            0,
            "free mover should join its heavy edge"
        );
    }

    #[test]
    fn migration_mass_counts_only_real_departures() {
        let reference = vec![0, 1, Partition::UNASSIGNED, 1];
        let assignment = vec![0, 0, 1, 1];
        let vwgt = vec![5, 7, 11, 13];
        assert_eq!(migration_mass(&reference, &assignment, &vwgt), 7);
    }

    #[test]
    fn single_part_is_a_no_op() {
        let g = bw_tension();
        let mut p = Partition::all_in_one(6, 1);
        let moves = constrained_refine(
            &g,
            &mut p,
            &Constraints::unconstrained(),
            &RefineOptions::default(),
        );
        assert_eq!(moves, 0);
        assert!(p.assignment().iter().all(|&a| a == 0));
    }
}
