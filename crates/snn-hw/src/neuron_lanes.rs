//! Structure-of-arrays neuron datapath: the engine's hot-path state.
//!
//! [`crate::neuron_unit::NeuronUnit`] is the *architectural* view of one
//! LIF datapath — membrane register, refractory counter, per-operation
//! fault flags — and remains the fault-injection API and the behavioral
//! oracle (`step_reference`). The hot path, however, advances every
//! neuron every timestep, and an array-of-structs layout forces the
//! compiler through a per-neuron branch chain (refractory? vi faulty?
//! vl faulty? …) that defeats vectorization.
//!
//! [`NeuronLanes`] keeps the same state as parallel lanes, in `blocks`
//! independent copies of the neuron array:
//!
//! * `vmem: Vec<i32>` and `refrac: Vec<u32>` — `blocks × n` contiguous
//!   per-neuron state, block-major (block `b` owns `[b·n, (b+1)·n)`);
//! * one bitmask per faulty operation (`vi`/`vl`/`vr`/`sg`), bit `j % 64`
//!   of word `j / 64` set when neuron `j` has that fault, plus a sparse
//!   index list of faulty neurons — one such *fault plane* shared by
//!   every block, or one plane per block.
//!
//! The two plane layouts are the engine's two batching axes. Samples of a
//! batch share one plane: faults live in the hardware, not in the input.
//! The fault maps of a multi-map trial group each get their own plane
//! (the engine's persisted faults ∪ that map's overlay sites) and see the
//! same input. The single-sample state is the 1-block, shared-plane shape
//! ([`new`](NeuronLanes::new)); [`configure`](NeuronLanes::configure)
//! sets up every other shape.
//!
//! [`NeuronLanes::step_fused`] advances one block with a branch-free
//! integrate→leak→compare→reset kernel assuming the fault-free common
//! case (selects instead of branches, so the loop autovectorizes), then
//! re-runs the handful of faulty neurons through the exact
//! [`NeuronUnit::step`] semantics in a sparse patch pass, overwriting
//! their lanes and comparator/spike bits. Comparator and spike results
//! are produced as `u64` bitmask words — the currency of the batched
//! [`crate::engine::SpikeGuard::observe_cycle`] protocol. Every block runs
//! the same kernels, so a block evolves exactly like a single-sample
//! engine over the same fault plane (unit-tested below and pinned by
//! `tests/proptest_engine_equivalence.rs`).
//!
//! Synchronization with the architectural view happens at the fault
//! injection boundary ([`sync_from_units`](NeuronLanes::sync_from_units) /
//! [`sync_to_units`](NeuronLanes::sync_to_units)), not per step — see
//! [`crate::engine::ComputeEngine::neurons_mut`].

use crate::engine::NeuronFaultOverlay;
use crate::neuron_unit::{NeuronHwParams, NeuronOp, NeuronUnit, OpFaults};

/// Number of `u64` bitmask words covering `n` neurons.
#[inline]
pub fn n_words(n: usize) -> usize {
    n.div_ceil(64)
}

/// One plane of per-operation fault bitmasks plus the sparse faulty-index
/// list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct OpMasks {
    /// One bitmask per operation, in [`NeuronOp::ALL`] order.
    words: [Vec<u64>; 4],
    /// Indices of neurons with at least one op fault, ascending.
    faulty: Vec<u32>,
}

impl OpMasks {
    /// Rebuilds the plane from the units' fault flags plus `overlay`'s
    /// `(neuron, op)` sites.
    ///
    /// # Panics
    ///
    /// Panics if an overlay site's neuron index is out of range.
    fn import(&mut self, units: &[NeuronUnit], overlay: &[(u32, NeuronOp)]) {
        let n = units.len();
        for w in &mut self.words {
            w.clear();
            w.resize(n_words(n), 0);
        }
        for (j, u) in units.iter().enumerate() {
            for op in NeuronOp::ALL {
                if u.faults.has(op) {
                    self.set(j, op);
                }
            }
        }
        for &(j, op) in overlay {
            assert!(
                (j as usize) < n,
                "map site neuron {j} out of range for {n} lanes"
            );
            self.set(j as usize, op);
        }
        self.faulty.clear();
        let [vi, vl, vr, sg] = &self.words;
        for w in 0..vi.len() {
            let mut any = vi[w] | vl[w] | vr[w] | sg[w];
            while any != 0 {
                self.faulty.push((w * 64) as u32 + any.trailing_zeros());
                any &= any - 1;
            }
        }
    }

    fn set(&mut self, j: usize, op: NeuronOp) {
        self.words[op as usize][j >> 6] |= 1 << (j & 63);
    }

    fn has(&self, j: usize, op: NeuronOp) -> bool {
        self.words[op as usize][j >> 6] >> (j & 63) & 1 != 0
    }

    /// The fault flags of neuron `j`, reassembled from the op bitmasks.
    fn faults_of(&self, j: usize) -> OpFaults {
        OpFaults {
            vi: self.has(j, NeuronOp::VmemIncrease),
            vl: self.has(j, NeuronOp::VmemLeak),
            vr: self.has(j, NeuronOp::VmemReset),
            sg: self.has(j, NeuronOp::SpikeGeneration),
        }
    }
}

/// The branch-free fused integrate → leak → compare → reset pass over one
/// contiguous block of lanes, packing comparator/spike bits into words.
/// Assumes the fault-free case; [`NeuronLanes::step_fused`] corrects the
/// faulty lanes afterwards.
fn fused_block(
    vmem: &mut [i32],
    refrac: &mut [u32],
    acc: &[i32],
    v_thresh: &[i32],
    params: &NeuronHwParams,
    cmp_words: &mut [u64],
    spike_words: &mut [u64],
) {
    let chunks = vmem
        .chunks_mut(64)
        .zip(refrac.chunks_mut(64))
        .zip(acc.chunks(64).zip(v_thresh.chunks(64)));
    for (wi, ((vm_c, rf_c), (acc_c, th_c))) in chunks.enumerate() {
        let mut cmp_w = 0_u64;
        let lanes = vm_c
            .iter_mut()
            .zip(rf_c.iter_mut())
            .zip(acc_c.iter().zip(th_c.iter()));
        for (b, ((vm, rf), (&drive, &thresh))) in lanes.enumerate() {
            let r = *rf;
            let active = r == 0;
            let v = ((*vm).saturating_add(drive) - params.v_leak).max(0);
            let hot = active && v >= thresh;
            *vm = if active {
                if hot {
                    params.v_reset
                } else {
                    v
                }
            } else {
                *vm
            };
            *rf = if hot {
                params.t_refrac
            } else {
                r.saturating_sub(1)
            };
            cmp_w |= (hot as u64) << b;
        }
        cmp_words[wi] = cmp_w;
        spike_words[wi] = cmp_w;
    }
}

/// The engine's structure-of-arrays neuron state: `blocks` independent
/// copies of the neuron array over one shared or per-block fault planes
/// (see module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NeuronLanes {
    n: usize,
    blocks: usize,
    /// `blocks × n` membrane lanes, block-major (block `b` owns
    /// `vmem[b*n..(b+1)*n]`).
    vmem: Vec<i32>,
    refrac: Vec<u32>,
    /// One fault plane shared by every block, or one plane per block.
    masks: Vec<OpMasks>,
    /// Pre-step `(index, vmem, refrac)` snapshots of the faulty neurons,
    /// reused across steps so the patch pass never allocates.
    patch_scratch: Vec<(u32, i32, u32)>,
}

impl NeuronLanes {
    /// Rested, fault-free lanes for `n` neurons: the single-sample
    /// (1-block, shared-plane) shape.
    pub fn new(n: usize) -> Self {
        let mut lanes = Self::default();
        lanes.configure(&vec![NeuronUnit::new(); n], 1, &[]);
        lanes
    }

    /// Number of neurons per block.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the lanes hold zero neurons.
    pub fn is_empty(&self) -> bool {
        self.vmem.is_empty()
    }

    /// Number of lane blocks.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Number of bitmask words per op-fault / comparator mask.
    pub fn words(&self) -> usize {
        n_words(self.n)
    }

    /// The lane range of block `b`.
    fn block(&self, b: usize) -> std::ops::Range<usize> {
        assert!(b < self.blocks, "block index {b} of {}", self.blocks);
        b * self.n..(b + 1) * self.n
    }

    /// Block `b`'s membrane potentials.
    ///
    /// # Panics
    ///
    /// Panics if `b >= blocks`.
    pub fn vmem(&self, b: usize) -> &[i32] {
        &self.vmem[self.block(b)]
    }

    /// Sizes the lanes as `blocks` blocks of `units.len()` neurons, all at
    /// rest, over the hardware described by `units`. With no `overlays`
    /// every block shares one fault plane (`units`' faults — a batch of
    /// samples); otherwise block `b`'s plane is `units`' faults plus
    /// `overlays[b]`'s `(neuron, op)` sites (a trial group of fault
    /// maps). Reuses allocations across chunks.
    ///
    /// # Panics
    ///
    /// Panics if `overlays` is non-empty and its length differs from
    /// `blocks`, or an overlay site's neuron index is out of range.
    pub fn configure(
        &mut self,
        units: &[NeuronUnit],
        blocks: usize,
        overlays: &[NeuronFaultOverlay],
    ) {
        assert!(
            overlays.is_empty() || overlays.len() == blocks,
            "{} overlays for {blocks} blocks",
            overlays.len()
        );
        let n = units.len();
        self.n = n;
        self.blocks = blocks;
        self.vmem.clear();
        self.vmem.resize(blocks * n, 0);
        self.refrac.clear();
        self.refrac.resize(blocks * n, 0);
        self.masks
            .resize_with(overlays.len().max(1), OpMasks::default);
        for (b, masks) in self.masks.iter_mut().enumerate() {
            masks.import(units, overlays.get(b).map_or(&[], Vec::as_slice));
        }
    }

    /// Clears every block's membrane and refractory state (the sample
    /// boundary); fault planes persist, mirroring
    /// [`NeuronUnit::reset_state`].
    pub fn reset_state(&mut self) {
        self.vmem.fill(0);
        self.refrac.fill(0);
    }

    /// Reshapes to the single-sample shape and imports state *and* fault
    /// flags from the architectural view, rebuilding the sparse
    /// faulty-neuron list. Called once at the fault injection boundary,
    /// not per step.
    pub fn sync_from_units(&mut self, units: &[NeuronUnit]) {
        self.configure(units, 1, &[]);
        for (j, u) in units.iter().enumerate() {
            self.vmem[j] = u.vmem;
            self.refrac[j] = u.refrac;
        }
    }

    /// Exports membrane/refractory state back into the architectural
    /// view. Fault flags are *not* written: the architectural view is
    /// authoritative for faults (they are only ever mutated there).
    ///
    /// # Panics
    ///
    /// Panics unless the lanes are one block of `units.len()` neurons.
    pub fn sync_to_units(&self, units: &mut [NeuronUnit]) {
        assert_eq!(units.len(), self.vmem.len(), "single-block lane count");
        for (j, u) in units.iter_mut().enumerate() {
            u.vmem = self.vmem[j];
            u.refrac = self.refrac[j];
        }
    }

    /// Advances block `b` one timestep: the fused integrate → leak →
    /// compare → reset kernel against that block's fault plane.
    ///
    /// `acc` is the per-neuron accumulated synaptic drive, `v_thresh` the
    /// per-neuron thresholds. On return, bit `j` of `cmp_words` holds
    /// neuron `j`'s `Vmem ≥ Vth` comparator output and bit `j` of
    /// `spike_words` its internal spike (pre-guard); bits at or beyond
    /// the neuron count are zero.
    ///
    /// The main pass is branch-free and assumes no op faults; neurons on
    /// the sparse faulty list are then re-run through the exact
    /// [`NeuronUnit::step`] semantics from their pre-step state, patching
    /// lanes and output bits. Equivalence with the per-neuron reference
    /// is property-tested in `tests/proptest_engine_equivalence.rs`.
    ///
    /// # Panics
    ///
    /// Panics if `b >= blocks`, `acc`/`v_thresh` lengths differ from the
    /// neuron count, or the word buffers differ from
    /// [`words`](Self::words) (exact length, so no caller-supplied word
    /// can be left stale).
    pub fn step_fused(
        &mut self,
        b: usize,
        acc: &[i32],
        v_thresh: &[i32],
        params: &NeuronHwParams,
        cmp_words: &mut [u64],
        spike_words: &mut [u64],
    ) {
        let lanes = self.block(b);
        assert_eq!(acc.len(), self.n, "drive width");
        assert_eq!(v_thresh.len(), self.n, "threshold width");
        let words = self.words();
        assert_eq!(cmp_words.len(), words, "comparator word width");
        assert_eq!(spike_words.len(), words, "spike word width");
        let vmem = &mut self.vmem[lanes.clone()];
        let refrac = &mut self.refrac[lanes];
        let masks = &self.masks[if self.masks.len() == 1 { 0 } else { b }];
        // Save the faulty lanes' pre-step state before the vector pass
        // clobbers it.
        self.patch_scratch.clear();
        self.patch_scratch.extend(
            masks
                .faulty
                .iter()
                .map(|&j| (j, vmem[j as usize], refrac[j as usize])),
        );
        fused_block(vmem, refrac, acc, v_thresh, params, cmp_words, spike_words);
        for &(j, vmem0, refrac0) in &self.patch_scratch {
            let j = j as usize;
            let mut unit = NeuronUnit {
                vmem: vmem0,
                refrac: refrac0,
                faults: masks.faults_of(j),
            };
            let out = unit.step(acc[j] as i64, v_thresh[j], params);
            vmem[j] = unit.vmem;
            refrac[j] = unit.refrac;
            let (w, shift) = (j >> 6, j & 63);
            let keep = !(1_u64 << shift);
            cmp_words[w] = cmp_words[w] & keep | (out.cmp_out as u64) << shift;
            spike_words[w] = spike_words[w] & keep | (out.spike as u64) << shift;
        }
    }

    /// Applies lateral inhibition `total_inh` to every neuron of block
    /// `b` whose bit in `fired_words` is clear, mirroring
    /// [`NeuronUnit::inhibit`] (floored at 0, skipped while refractory).
    ///
    /// # Panics
    ///
    /// Panics if `b >= blocks` or `fired_words` differs from
    /// [`words`](Self::words).
    pub fn inhibit_non_fired(&mut self, b: usize, fired_words: &[u64], total_inh: i32) {
        let lanes = self.block(b);
        assert_eq!(fired_words.len(), self.words(), "fired word width");
        let chunks = self.vmem[lanes.clone()]
            .chunks_mut(64)
            .zip(self.refrac[lanes].chunks(64));
        for ((vm_c, rf_c), &fired) in chunks.zip(fired_words) {
            for (bit, (vm, &r)) in vm_c.iter_mut().zip(rf_c).enumerate() {
                let held = (fired >> bit) & 1 != 0 || r != 0;
                let v = (*vm - total_inh).max(0);
                *vm = if held { *vm } else { v };
            }
        }
    }

    /// Whether any lane's membrane sits at or above its per-neuron
    /// threshold. The event backend uses this after a comparator-active
    /// cycle to decide whether silent cycles may be skipped (a lane still
    /// at threshold — a reset-faulty burst neuron — must keep stepping).
    ///
    /// # Panics
    ///
    /// Panics unless the lanes are one block of `v_thresh.len()` neurons.
    pub fn any_at_or_above(&self, v_thresh: &[i32]) -> bool {
        assert_eq!(v_thresh.len(), self.vmem.len(), "threshold width");
        self.vmem.iter().zip(v_thresh).any(|(&v, &t)| v >= t)
    }

    /// Advances every lane `k` drive-free timesteps in one pass: each
    /// neuron first burns `r = min(refrac, k)` cycles of refractory
    /// countdown (membrane held, exactly as the fused kernel holds it),
    /// then applies `k − r` floored leak steps collapsed to a single
    /// subtraction via the precomputed cumulative
    /// [`LeakTable`](crate::event::LeakTable) — `max(v − k·d, 0)` equals
    /// `k` sequential `max(v − d, 0)` folds for any `d ≥ 0`, which the
    /// lazy-leak proptest pins against sequential [`step_fused`] cycles.
    /// Leak-faulty (`vl`) lanes hold their membrane, mirroring
    /// [`NeuronUnit::step`]'s faulty path with zero drive.
    ///
    /// Callers guarantee the skipped cycles were genuinely silent (no
    /// drive, no comparator activity); under that contract no spike,
    /// reset, or inhibition could have occurred, so state advance is all
    /// there is to replay.
    ///
    /// # Panics
    ///
    /// Panics unless the lanes have the single-sample (1-block) shape.
    pub fn advance_silent(&mut self, k: u32, leak: &crate::event::LeakTable) {
        assert_eq!(self.blocks, 1, "single-sample shape");
        if k == 0 {
            return;
        }
        let vl = &self.masks[0].words[NeuronOp::VmemLeak as usize];
        let lanes = self.vmem.iter_mut().zip(self.refrac.iter_mut());
        for (j, (vm, rf)) in lanes.enumerate() {
            let r = (*rf).min(k);
            *rf -= r;
            let k_leak = k - r;
            if k_leak == 0 || vl[j >> 6] >> (j & 63) & 1 != 0 {
                continue;
            }
            *vm = (i64::from(*vm) - leak.total(k_leak)).max(0) as i32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neuron_unit::NeuronOp;

    fn params() -> NeuronHwParams {
        NeuronHwParams {
            v_reset: 0,
            v_leak: 10,
            t_refrac: 2,
            v_inh: 100,
        }
    }

    /// Single-sample lanes over `units`' faults and state.
    fn single_over(units: &[NeuronUnit]) -> NeuronLanes {
        let mut lanes = NeuronLanes::new(0);
        lanes.sync_from_units(units);
        lanes
    }

    /// Drives `n` architectural units and the lanes side by side through
    /// the same random-ish schedule and asserts identical state and
    /// outputs every step.
    fn assert_lockstep(mut units: Vec<NeuronUnit>, drives: impl Fn(usize, usize) -> i32) {
        let p = params();
        let n = units.len();
        let thresholds = vec![500_i32; n];
        let mut lanes = single_over(&units);
        let words = lanes.words();
        let mut cmp = vec![0_u64; words];
        let mut spk = vec![0_u64; words];
        for t in 0..50 {
            let acc: Vec<i32> = (0..n).map(|j| drives(t, j)).collect();
            lanes.step_fused(0, &acc, &thresholds, &p, &mut cmp, &mut spk);
            for (j, u) in units.iter_mut().enumerate() {
                let out = u.step(acc[j] as i64, thresholds[j], &p);
                let (w, b) = (j >> 6, j & 63);
                assert_eq!((cmp[w] >> b) & 1 != 0, out.cmp_out, "cmp t={t} j={j}");
                assert_eq!((spk[w] >> b) & 1 != 0, out.spike, "spike t={t} j={j}");
                assert_eq!(lanes.vmem[j], u.vmem, "vmem t={t} j={j}");
                assert_eq!(lanes.refrac[j], u.refrac, "refrac t={t} j={j}");
            }
        }
    }

    #[test]
    fn fault_free_lanes_match_units() {
        let units = vec![NeuronUnit::new(); 70];
        assert_lockstep(units, |t, j| ((t * 131 + j * 37) % 400) as i32);
    }

    #[test]
    fn faulty_lanes_match_units_via_patch_pass() {
        let mut units = vec![NeuronUnit::new(); 70];
        units[0].faults.set(NeuronOp::VmemIncrease);
        units[3].faults.set(NeuronOp::VmemLeak);
        units[64].faults.set(NeuronOp::VmemReset);
        units[65].faults.set(NeuronOp::SpikeGeneration);
        units[69].faults.set(NeuronOp::VmemReset);
        units[69].faults.set(NeuronOp::SpikeGeneration);
        assert_lockstep(units, |t, j| ((t * 211 + j * 53) % 600) as i32);
    }

    #[test]
    fn inhibition_matches_units() {
        let mut units = vec![NeuronUnit::new(); 66];
        for (j, u) in units.iter_mut().enumerate() {
            u.vmem = (j as i32) * 7;
        }
        units[5].refrac = 1;
        let mut lanes = single_over(&units);
        let mut fired_words = vec![0_u64; lanes.words()];
        fired_words[0] |= 1 << 2;
        fired_words[1] |= 1 << 1; // neuron 65
        lanes.inhibit_non_fired(0, &fired_words, 40);
        for (j, u) in units.iter_mut().enumerate() {
            if j != 2 && j != 65 {
                u.inhibit(40);
            }
        }
        for (j, u) in units.iter().enumerate() {
            assert_eq!(lanes.vmem[j], u.vmem, "j={j}");
        }
    }

    #[test]
    fn sync_round_trips_state() {
        let mut units = vec![NeuronUnit::new(); 10];
        units[4].vmem = 77;
        units[4].refrac = 3;
        units[7].faults.set(NeuronOp::SpikeGeneration);
        let lanes = single_over(&units);
        assert_eq!(lanes.masks[0].faulty, vec![7]);
        let mut back = vec![NeuronUnit::new(); 10];
        lanes.sync_to_units(&mut back);
        assert_eq!(back[4].vmem, 77);
        assert_eq!(back[4].refrac, 3);
        // Faults are not exported: the architectural view owns them.
        assert!(!back[7].faults.any());
    }

    #[test]
    fn reset_state_keeps_fault_masks() {
        let mut units = vec![NeuronUnit::new(); 4];
        units[1].faults.set(NeuronOp::VmemReset);
        units[1].vmem = 50;
        let mut lanes = single_over(&units);
        lanes.reset_state();
        assert_eq!(lanes.vmem(0)[1], 0);
        assert!(lanes.masks[0].faults_of(1).vr);
        assert_eq!(lanes.masks[0].faulty, vec![1]);
    }

    /// Steps every block of `lanes` next to its own single-sample lanes
    /// in `singles` (same drive, same inhibition) and asserts identical
    /// comparator/spike words and membranes every step.
    fn assert_blocks_match_singles(
        lanes: &mut NeuronLanes,
        singles: &mut [NeuronLanes],
        drive: impl Fn(usize, usize) -> Vec<i32>,
    ) {
        let p = params();
        let thresholds = vec![500_i32; 70];
        assert_eq!(lanes.blocks(), singles.len());
        assert_eq!(lanes.words(), 2);
        let (mut cmp_b, mut spk_b) = (vec![0_u64; 2], vec![0_u64; 2]);
        let (mut cmp_s, mut spk_s) = (vec![0_u64; 2], vec![0_u64; 2]);
        for t in 0..40 {
            for (b, single) in singles.iter_mut().enumerate() {
                let acc = drive(t, b);
                lanes.step_fused(b, &acc, &thresholds, &p, &mut cmp_b, &mut spk_b);
                single.step_fused(0, &acc, &thresholds, &p, &mut cmp_s, &mut spk_s);
                assert_eq!(cmp_b, cmp_s, "cmp t={t} b={b}");
                assert_eq!(spk_b, spk_s, "spike t={t} b={b}");
                // Inhibit off the spike words to also exercise the
                // per-block inhibition.
                lanes.inhibit_non_fired(b, &spk_b, 40);
                single.inhibit_non_fired(0, &spk_s, 40);
                assert_eq!(lanes.vmem(b), single.vmem(0), "vmem t={t} b={b}");
            }
        }
    }

    #[test]
    fn batch_lanes_match_independent_single_lanes() {
        // Shared plane (a batch): every sample block must evolve exactly
        // like its own isolated single-sample lanes over the same faulty
        // hardware, each under its own drive.
        let mut units = vec![NeuronUnit::new(); 70];
        units[0].faults.set(NeuronOp::VmemReset);
        units[65].faults.set(NeuronOp::SpikeGeneration);
        units[69].faults.set(NeuronOp::VmemLeak);
        let mut batch = NeuronLanes::new(0);
        batch.configure(&units, 3, &[]);
        assert_eq!(batch.masks.len(), 1);
        let mut singles: Vec<NeuronLanes> = (0..3).map(|_| single_over(&units)).collect();
        assert_blocks_match_singles(&mut batch, &mut singles, |t, s| {
            (0..70)
                .map(|j| ((t * 131 + j * 37 + s * 71) % 550) as i32)
                .collect()
        });
    }

    #[test]
    fn batch_lanes_reconfigure_resets_state() {
        let units = vec![NeuronUnit::new(); 4];
        let p = params();
        let (mut cmp, mut spk) = (vec![0_u64; 1], vec![0_u64; 1]);
        let mut lanes = NeuronLanes::new(0);
        lanes.configure(&units, 2, &[]);
        lanes.step_fused(1, &[400; 4], &[500; 4], &p, &mut cmp, &mut spk);
        assert!(lanes.vmem(1).iter().any(|&v| v > 0));
        // Reconfiguring (next chunk of a campaign) starts from rest again.
        lanes.configure(&units, 2, &[]);
        assert!(lanes.vmem(1).iter().all(|&v| v == 0));
        assert!(!lanes.is_empty());
        assert_eq!(lanes.len(), 4);
    }

    #[test]
    fn map_lanes_match_independent_single_lanes_with_union_faults() {
        // Per-block planes (a trial group): every map block must evolve
        // exactly like single-sample lanes whose units carry the base
        // faults ∪ that map's overlay, under one shared drive per cycle.
        let mut base_units = vec![NeuronUnit::new(); 70];
        base_units[7].faults.set(NeuronOp::VmemLeak);
        base_units[64].faults.set(NeuronOp::SpikeGeneration);
        let overlays: Vec<NeuronFaultOverlay> = vec![
            vec![],
            vec![(0, NeuronOp::VmemReset), (69, NeuronOp::VmemReset)],
            vec![(7, NeuronOp::VmemLeak), (65, NeuronOp::VmemIncrease)],
        ];
        let mut maps = NeuronLanes::new(0);
        maps.configure(&base_units, 3, &overlays);
        assert_eq!(maps.masks.len(), 3);
        let mut singles: Vec<NeuronLanes> = overlays
            .iter()
            .map(|overlay| {
                let mut units = base_units.clone();
                for &(j, op) in overlay {
                    units[j as usize].faults.set(op);
                }
                single_over(&units)
            })
            .collect();
        assert_blocks_match_singles(&mut maps, &mut singles, |t, _| {
            (0..70).map(|j| ((t * 131 + j * 37) % 550) as i32).collect()
        });
    }

    #[test]
    fn map_lanes_reconfigure_resets_state_and_masks() {
        let units = vec![NeuronUnit::new(); 4];
        let p = params();
        let (mut cmp, mut spk) = (vec![0_u64; 1], vec![0_u64; 1]);
        let mut lanes = NeuronLanes::new(0);
        lanes.configure(&units, 1, &[vec![(1, NeuronOp::SpikeGeneration)]]);
        assert_eq!(lanes.masks[0].faulty, vec![1]);
        lanes.step_fused(0, &[400; 4], &[500; 4], &p, &mut cmp, &mut spk);
        assert!(lanes.vmem(0).iter().any(|&v| v > 0));
        // The next trial group starts from rest with fresh fault planes —
        // the old overlay must not leak into the new maps.
        lanes.configure(&units, 2, &[vec![], vec![(2, NeuronOp::VmemReset)]]);
        assert_eq!(lanes.blocks(), 2);
        assert!(lanes.vmem(0).iter().all(|&v| v == 0));
        assert!(lanes.masks[0].faulty.is_empty());
        assert_eq!(lanes.masks[1].faulty, vec![2]);
        // Nor into the single-sample shape: one plane, the units' faults.
        lanes.sync_from_units(&units);
        assert_eq!(lanes.blocks(), 1);
        assert_eq!(lanes.masks.len(), 1);
        assert!(lanes.masks[0].faulty.is_empty());
    }

    #[test]
    fn overlay_duplicates_and_base_overlap_are_idempotent() {
        let mut units = vec![NeuronUnit::new(); 4];
        units[3].faults.set(NeuronOp::VmemReset);
        let mut maps = NeuronLanes::new(0);
        maps.configure(
            &units,
            1,
            &[vec![
                (3, NeuronOp::VmemReset),
                (2, NeuronOp::VmemLeak),
                (2, NeuronOp::VmemLeak),
            ]],
        );
        assert_eq!(maps.masks[0].faulty, vec![2, 3]);
        assert!(maps.masks[0].faults_of(3).vr);
        assert!(maps.masks[0].faults_of(2).vl);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn overlay_out_of_range_neuron_panics() {
        let units = vec![NeuronUnit::new(); 4];
        NeuronLanes::new(0).configure(&units, 1, &[vec![(9, NeuronOp::VmemReset)]]);
    }

    #[test]
    fn word_count_covers_partial_words() {
        assert_eq!(n_words(0), 0);
        assert_eq!(n_words(1), 1);
        assert_eq!(n_words(64), 1);
        assert_eq!(n_words(65), 2);
        assert_eq!(NeuronLanes::new(130).words(), 3);
    }
}
