//! Tiered weight residency: page 1-bit banks through the upload lane.
//!
//! PhoneBit's packed banks are ~32× smaller than their float parents, so
//! uploading a layer's bank costs a fraction of the layer's compute — cheap
//! enough to *stream* weights instead of holding every bank resident. This
//! module builds the [`PagingSchedule`] a budgeted plan carries: a
//! deterministic, per-step replay of prefetch issue times, upload-lane
//! occupancy, compute stalls, and evictions, computed once at lowering
//! time from the plan's own solo step durations and the device's
//! [`UploadProfile`].
//!
//! The schedule is the no-drift artifact of this subsystem (the same
//! discipline as fusion chains and fault plans): its per-step stalls are
//! charged in one place, the plan walk the estimator, the admission
//! controller's window model and the engine's windows all go through, so a
//! paged tenant's modeled and executed timelines cannot diverge. Nothing
//! replays residency at run time: the device books the hot-set peak once.
//!
//! ## The streaming discipline
//!
//! Banks execute in plan-step order, which makes prefetch trivial and
//! optimal under a serial upload lane: a **depth-1 look-ahead** issues the
//! next weighted step's bank the moment the current weighted step starts
//! computing — provided both banks fit the budget together — and an
//! **evict-after-use** policy (LRU degenerates to exactly this under
//! in-order replay) frees each bank as its step completes. Every window
//! replays the identical schedule, so cold and steady windows pay the same
//! stalls and the hot-set peak is exactly the largest adjacent pair of
//! banks the look-ahead ever co-resides.

use std::sync::Arc;

use phonebit_gpusim::UploadProfile;

use crate::plan::ExecutionPlan;

/// One step's row in the residency ledger: when its bank's upload was
/// issued, when it landed, how long the compute timeline stalled waiting,
/// and whether the bank was evicted after use.
#[derive(Debug, Clone, PartialEq)]
pub struct PagingStep {
    /// Original layer index ([`crate::plan::PlanStep::index`]).
    pub layer: usize,
    /// Step name (shared with the plan, clone-cheap).
    pub name: Arc<str>,
    /// Bytes this step's bank pages (net of dictionary compression; 0 for
    /// weightless steps). Fused groups page their members' banks together.
    pub bank_bytes: usize,
    /// Upload-lane busy seconds for this bank (0 when nothing pages).
    pub upload_s: f64,
    /// When the prefetcher issued the upload, seconds on the window
    /// timeline.
    pub issue_s: f64,
    /// When the upload completed (bank became resident), seconds.
    pub ready_s: f64,
    /// Seconds the compute timeline stalled at this step waiting for the
    /// bank (0 when the look-ahead hid the upload behind prior compute).
    pub stall_s: f64,
    /// Whether the bank is evicted when the step completes (always true
    /// for weighted steps of a streaming schedule).
    pub evicted: bool,
}

/// The precomputed residency schedule a budgeted [`ExecutionPlan`]
/// carries — one [`PagingStep`] per plan step, in step order.
#[derive(Debug, Clone, PartialEq)]
pub struct PagingSchedule {
    /// The weight budget the schedule was built against, bytes.
    pub budget_bytes: usize,
    /// Σ bank bytes across every step — the fully-resident footprint.
    pub total_weight_bytes: usize,
    /// Peak co-resident bank bytes the replay ever holds: the whole model
    /// when resident, else the largest overlap the look-ahead creates.
    pub hot_peak_bytes: usize,
    /// True when the budget covers every bank: nothing pages, no stalls,
    /// and the plan behaves byte-identically to an unbudgeted one.
    pub resident: bool,
    /// Per-step ledger rows, aligned with the plan's steps.
    pub steps: Vec<PagingStep>,
}

impl PagingSchedule {
    /// Builds the schedule for a plan (its steps carry their bank bytes)
    /// whose solo step durations are known. `durations` must align with
    /// `plan.steps` (the solo, uncontended walk — contention at serve
    /// time only widens the compute gaps uploads hide behind, so the
    /// precomputed stalls stay a safe upper bound for the look-ahead and
    /// identical for scheduler and executor by construction).
    pub(crate) fn build(
        plan: &ExecutionPlan,
        durations: &[f64],
        upload: UploadProfile,
        budget_bytes: usize,
    ) -> Self {
        assert_eq!(plan.steps.len(), durations.len());
        let step_banks: Vec<usize> = plan.steps.iter().map(|s| s.bank_bytes).collect();
        let total: usize = step_banks.iter().sum();
        debug_assert_eq!(
            total, plan.weights_bytes,
            "per-step banks must account for every resident weight byte"
        );
        if budget_bytes >= total {
            // Fully resident: every bank stays on-device, nothing pages.
            let steps = plan
                .steps
                .iter()
                .map(|s| PagingStep {
                    layer: s.index,
                    name: s.name.clone(),
                    bank_bytes: s.bank_bytes,
                    upload_s: 0.0,
                    issue_s: 0.0,
                    ready_s: 0.0,
                    stall_s: 0.0,
                    evicted: false,
                })
                .collect();
            return Self {
                budget_bytes,
                total_weight_bytes: total,
                hot_peak_bytes: total,
                resident: true,
                steps,
            };
        }

        // Streaming replay: weighted steps in order, depth-1 look-ahead,
        // evict-after-use. The lane is serial (`lane_free`); the compute
        // timeline (`t`) advances by solo durations plus any stalls.
        let weighted: Vec<usize> = (0..step_banks.len())
            .filter(|&i| step_banks[i] > 0)
            .collect();
        let mut issue = vec![0.0f64; plan.steps.len()];
        let mut ready = vec![0.0f64; plan.steps.len()];
        let mut stall = vec![0.0f64; plan.steps.len()];
        let mut lane_free = 0.0f64;
        let mut hot_peak = 0usize;
        if let Some(&w0) = weighted.first() {
            issue[w0] = 0.0;
            ready[w0] = upload.upload_s(step_banks[w0]);
            lane_free = ready[w0];
            hot_peak = step_banks[w0];
        }
        let mut t = 0.0f64;
        let mut next = 1usize; // index into `weighted` of the next bank to issue
        for (i, dur) in durations.iter().enumerate() {
            if step_banks[i] > 0 {
                stall[i] = (ready[i] - t).max(0.0);
                t += stall[i];
                // Depth-1 prefetch: issue the next bank at this step's
                // compute start when both fit together, else at its
                // completion (after this bank's eviction).
                if let Some(&w) = weighted.get(next) {
                    let overlap = step_banks[i] + step_banks[w] <= budget_bytes;
                    let desired = if overlap { t } else { t + dur };
                    issue[w] = desired.max(lane_free);
                    ready[w] = issue[w] + upload.upload_s(step_banks[w]);
                    lane_free = ready[w];
                    let peak = if overlap {
                        step_banks[i] + step_banks[w]
                    } else {
                        step_banks[i].max(step_banks[w])
                    };
                    hot_peak = hot_peak.max(peak);
                    next += 1;
                }
            }
            t += dur;
        }
        let steps = plan
            .steps
            .iter()
            .enumerate()
            .map(|(i, s)| PagingStep {
                layer: s.index,
                name: s.name.clone(),
                bank_bytes: step_banks[i],
                upload_s: if step_banks[i] > 0 {
                    upload.upload_s(step_banks[i])
                } else {
                    0.0
                },
                issue_s: issue[i],
                ready_s: ready[i],
                stall_s: stall[i],
                evicted: step_banks[i] > 0,
            })
            .collect();
        Self {
            budget_bytes,
            total_weight_bytes: total,
            hot_peak_bytes: hot_peak,
            resident: false,
            steps,
        }
    }

    /// Total modeled stall seconds one window pays waiting for uploads.
    pub fn stall_s(&self) -> f64 {
        self.steps.iter().map(|s| s.stall_s).sum()
    }

    /// Upload-lane busy seconds one window keeps the lane copying.
    pub fn lane_busy_s(&self) -> f64 {
        self.steps.iter().map(|s| s.upload_s).sum()
    }

    /// Banks evicted per window (0 when fully resident).
    pub fn evictions(&self) -> usize {
        self.steps.iter().filter(|s| s.evicted).count()
    }
}

impl ExecutionPlan {
    /// The smallest weight budget under which the depth-1 streaming replay
    /// of this plan never exposes an upload it could have hidden: the
    /// largest sum of adjacent weighted banks (look-ahead co-residency), or
    /// the single largest bank when fewer than two steps carry weights.
    /// This is the "paged floor" admission grants an oversubscribed tenant.
    pub fn paged_floor_bytes(&self) -> usize {
        paged_floor(self.steps.iter().map(|s| s.bank_bytes))
    }

    /// The hard feasibility floor of the streaming replay: the single
    /// largest weighted bank. No schedule exists below it; between it and
    /// [`ExecutionPlan::paged_floor_bytes`] the replay still runs, but
    /// wherever an adjacent pair no longer fits the depth-1 look-ahead
    /// defers that upload to the current bank's eviction, so those uploads
    /// serialize against compute instead of hiding behind it. Admission
    /// degrades an oversubscribed tenant to this grant when the no-stall
    /// floors alone overflow the pooled budget — more stalls, same
    /// bit-exact outputs.
    pub fn paged_min_bytes(&self) -> usize {
        self.steps.iter().map(|s| s.bank_bytes).max().unwrap_or(0)
    }
}

/// The largest single bank or sum of two adjacent weighted banks.
fn paged_floor(step_banks: impl Iterator<Item = usize>) -> usize {
    let weighted: Vec<usize> = step_banks.filter(|&b| b > 0).collect();
    let single = weighted.iter().copied().max().unwrap_or(0);
    let pairs = weighted.windows(2).map(|w| w[0] + w[1]).max().unwrap_or(0);
    single.max(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phonebit_gpusim::Phone;
    use phonebit_models::{zoo, Variant};

    use crate::plan::RouteOverrides;

    fn budgeted_plan(budget: usize) -> ExecutionPlan {
        let arch = zoo::alexnet_micro(Variant::Binary);
        let overrides = RouteOverrides {
            weight_budget: Some(budget),
            ..RouteOverrides::default()
        };
        ExecutionPlan::for_arch(&arch, &Phone::xiaomi_9().gpu, 1, &overrides).expect("lowers")
    }

    #[test]
    fn full_budget_is_resident_and_stall_free() {
        let total = zoo::alexnet_micro(Variant::Binary).binary_bytes();
        let plan = budgeted_plan(total);
        let pg = plan.paging.as_ref().expect("budgeted plan carries paging");
        assert!(pg.resident);
        assert_eq!(pg.total_weight_bytes, total);
        assert_eq!(pg.hot_peak_bytes, total);
        assert_eq!(pg.stall_s(), 0.0);
        assert_eq!(pg.evictions(), 0);
    }

    #[test]
    fn floor_budget_streams_under_the_hot_peak() {
        let arch = zoo::alexnet_micro(Variant::Binary);
        let total = arch.binary_bytes();
        let floor = budgeted_plan(total).paged_floor_bytes();
        assert!(floor < total, "micro net has more than two weighted layers");

        let paged = budgeted_plan(floor);
        let pg = paged.paging.as_ref().unwrap();
        assert!(!pg.resident);
        assert!(pg.hot_peak_bytes <= floor, "look-ahead respects the floor");
        assert!(pg.lane_busy_s() > 0.0);
        assert!(pg.evictions() > 0);
        // The replay is causally consistent: uploads complete before the
        // stall the step charges ends, and the lane is serial.
        let mut lane = 0.0f64;
        for s in pg.steps.iter().filter(|s| s.bank_bytes > 0) {
            assert!(s.ready_s >= s.issue_s);
            assert!(s.issue_s >= lane - 1e-12, "serial lane never rewinds");
            lane = s.ready_s;
        }
    }

    #[test]
    fn first_bank_always_pays_its_upload() {
        let paged = budgeted_plan(1);
        let pg = paged.paging.as_ref().unwrap();
        let first = pg.steps.iter().find(|s| s.bank_bytes > 0).unwrap();
        // Nothing precedes the first weighted step, so its upload cannot
        // hide: the stall is the full upload time.
        assert!(first.stall_s > 0.0);
        assert!((first.stall_s - first.upload_s).abs() < 1e-12);
    }

    #[test]
    fn floor_is_max_adjacent_pair() {
        assert_eq!(paged_floor([10, 0, 1, 2].into_iter()), 11);
        assert_eq!(paged_floor([0, 0, 7, 0].into_iter()), 7);
        assert_eq!(paged_floor([].into_iter()), 0);
        assert_eq!(paged_floor([3, 4, 5].into_iter()), 9);
    }
}
